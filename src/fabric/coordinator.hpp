// FabricCoordinator: crash-isolated campaign execution over worker
// processes or remote daemons.
//
// The coordinator cuts a frozen CampaignPlan's index space into shards
// (one unit of work per shard, each owning a stable journal path) and
// runs them over one of two transports, one shard per endpoint:
//
//   * pipe (options.hosts empty): `workers` spawned kfi_worker
//     subprocesses report KFFR status frames on an inherited pipe;
//   * TCP (options.hosts set): each "host:port" endpoint is a
//     kfi_campaignd daemon, driven over net.hpp's KFNM session protocol
//     with the same KFFR frames riding inside kStatus messages, and the
//     completed shard journal streamed back byte-for-byte.
//
// Endpoints are crash domains: a worker or daemon that segfaults,
// wedges, or is kill -9ed loses nothing but wall-clock time, because
// every completed injection was already fsync'd to a shard journal.  The
// one scheduler notices the death (EOF / waitpid, a refusal, or a missed
// heartbeat lease), recovers what the shard journal holds, and
// re-dispatches the remaining indices to the next free endpoint after a
// deterministic-seeded exponential backoff.
//
// Robustness state machine per unit (shard):
//
//   pending --dispatch--> running --kDone+exit / kJournal--> done
//      ^                     |
//      +--- backoff(eligible_at) --- death (exit!=0, EOF, lease miss)
//
// and per endpoint: one that keeps dying (restarts > max_restarts) is
// retired; the fabric degrades gracefully until fewer than `min_workers`
// live endpoints remain, at which point it aborts with FabricError —
// leaving every shard journal on disk, so the whole fabric is resumable
// (the coordinator itself may be SIGKILLed at any point: shard
// boundaries are pure functions of (total, shards), so a rerun
// recomputes identical slices and resumes each shard's journal).
//
// When every unit is done the shard journals are spliced into one
// CampaignResult whose result_fingerprint is byte-identical to the
// single-process run of the same plan.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "fabric/net.hpp"
#include "fabric/splice.hpp"
#include "fabric/wire.hpp"
#include "inject/engine.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {

/// Coordinator-level failure: spawn machinery broke, an endpoint reported
/// a plan fingerprint mismatch or refused a request, or the fabric
/// degraded below min_workers.  Shard journals are always left on disk —
/// the campaign is resumable.
struct FabricError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Indices of `slice` not yet carrying a successful record in the shard
/// journal at `path`.  Quarantined (harness-error) entries stay in the
/// remaining set — the engine re-executes them on resume, exactly like a
/// single-process resume would.  A missing or torn-at-frame-zero journal
/// means the whole slice remains; a journal for a different campaign is
/// a hard configuration error (FabricError).
std::vector<u32> remaining_indices(const std::string& path,
                                   const std::vector<u32>& slice,
                                   u64 want_plan_fp);

/// Live per-endpoint view handed to the progress callback: what each
/// worker slot or daemon host is doing right now, including the outcome
/// tally its latest frame carried.  A finished shard stays on its
/// endpoint as done, complete and with its final tally until that
/// endpoint takes another shard.  Purely observational.
struct RemoteHostProgress {
  std::string host;       // "host:port", or "worker<k>" for a pipe slot
  bool connected = false;  // a session is live
  bool done = false;       // shard finished (journal complete / retrieved)
  bool retired = false;    // endpoint gave up (too many deaths)
  u32 shard = 0;
  u32 completed = 0;  // of `total`, finished (incl. resumed)
  u32 total = 0;      // indices this session runs (the shard's remainder)
  std::array<u32, kFrameOutcomeSlots> outcomes{};
};

struct FabricOptions {
  /// Daemon endpoints, one shard each: non-empty selects the TCP
  /// transport.  Empty runs `workers` kfi_worker subprocesses instead.
  std::vector<HostSpec> hosts;
  /// Worker subprocess slots (>= 1) and shard count of the pipe transport.
  u32 workers = 2;
  /// Path to the kfi_worker binary.  Required by the pipe transport.
  std::string worker_binary;
  /// Shard journals live at "<prefix>.shard<k>of<n>.kfij" (TCP: where the
  /// retrieved journals land).  Required.
  std::string journal_prefix;
  /// Abort (FabricError) when fewer live endpoints than this remain.
  u32 min_workers = 1;
  /// Engine threads inside each worker or daemon run.
  u32 jobs = 1;
  /// TCP only: the first submission per shard tells the daemon to drop
  /// any journal it holds for this (plan, shard).  false = resume.  The
  /// pipe transport always resumes the shard journals it finds.
  bool fresh = true;
  /// Heartbeat lease: an endpoint silent this long is presumed wedged,
  /// its session ended (worker SIGKILLed, socket closed) and its shard
  /// re-dispatched.
  double lease_seconds = 30.0;
  /// Heartbeat period requested of workers and daemons.
  double heartbeat_seconds = 1.0;
  /// TCP connect timeout per dispatch attempt.
  double connect_timeout_seconds = 5.0;
  /// Exponential backoff before re-dispatching a dead endpoint's shard:
  /// restart r waits min(cap, base * 2^(r-1)) seconds scaled by a
  /// deterministic jitter in [0.5, 1.5) from an Rng seeded by
  /// (plan fingerprint, endpoint) — reruns back off identically.
  /// base = 0 restarts immediately.
  double backoff_base = 0.05;
  double backoff_cap = 2.0;
  /// Deaths one endpoint absorbs before it is retired.
  u32 max_restarts = 3;
  /// Pipe-transport chaos knob: each shard's FIRST worker launch
  /// self-SIGKILLs after completing this many injections (0 = off).
  /// Restarted workers run to completion, so the campaign still finishes
  /// — the chaos tests use this for deterministic mid-campaign loss.
  u32 chaos_kill_after = 0;
  /// Journal durability policy for the shard journals.
  inject::FlushPolicy flush = inject::FlushPolicy::kFsync;
  /// Supervisor knobs forwarded to each endpoint's engine.
  u32 retries = 1;
  double stall_seconds = 0.0;
  /// Narrate session lifecycle (dispatch/death/re-dispatch) to stderr.
  bool verbose = false;
  /// Live tally sink: called (from the coordinator thread) whenever any
  /// endpoint reports progress, with a snapshot of every endpoint.  May
  /// be empty.
  std::function<void(const std::vector<RemoteHostProgress>&)> progress;
};

class FabricCoordinator {
 public:
  explicit FabricCoordinator(FabricOptions options);

  /// Run the plan across the endpoints and splice the shard journals into
  /// one result.  Existing shard journals for the same plan are resumed
  /// (SIGKILL-safe: rerunning after any crash — endpoint or coordinator —
  /// continues where the journals stopped).  Throws FabricError when the
  /// fabric cannot make progress or an endpoint refuses the plan (typed,
  /// before any injection); shard journals survive for a later resume.
  inject::CampaignResult run(const inject::CampaignPlan& plan,
                             SpliceStats* stats = nullptr);

  /// The shard journal paths run() uses for `plan` (total = targets).
  std::vector<std::string> journal_paths(u32 total) const;

 private:
  u32 shards() const;

  FabricOptions opt_;
};

/// The multi-host names: the same coordinator with `hosts` set.
using RemoteOptions = FabricOptions;
using RemoteCoordinator = FabricCoordinator;

}  // namespace kfi::fabric
