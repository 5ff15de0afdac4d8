// CampaignEngine: executes a frozen CampaignPlan across worker Machines,
// under a fault-tolerant supervisor.
//
// Each worker owns a private replica of the experiment apparatus — a
// Machine booted from the plan's shared immutable kernel image, a
// Workload, a UdpChannel, a CrashCollector, and an ExperimentRunner — and
// claims injection indices from a shared counter.  Because every
// injection experiment starts from the boot snapshot and draws all of its
// randomness from the plan's pre-drawn per-run seed, a record depends
// only on (plan, index): the merged CampaignResult is bit-identical to a
// serial run of the same plan, which the parity tests assert.  The merge
// is deterministic by construction: records land at their target index,
// and the reboot / datagram / drop / cycle counters are order-independent
// per-injection sums.
//
// The supervisor layer makes the campaign durable and partial-failure
// tolerant (the NFTAPE control host's job in the paper's Figure 1):
//   * journal      — completed records are flushed to an append-only
//                    journal as they finish; a killed campaign resumes by
//                    skipping journaled indices, bit-identically.
//   * isolation    — an exception escaping one injection retries that
//                    index on a freshly built worker rig, then quarantines
//                    it as a harness-error record; the campaign continues.
//   * watchdog     — a supervisor thread monitors per-worker heartbeats;
//                    an injection exceeding its wall budget is interrupted
//                    via the machine's HarnessInterrupt and quarantined
//                    instead of wedging the run.
//   * cancel       — a cooperative cancel flag (e.g. set from SIGINT)
//                    stops workers at the next injection boundary with the
//                    journal flushed, so the run can be resumed.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "inject/plan.hpp"

namespace kfi::inject {

class InjectionJournal;

/// Observability for the run itself (wall-clock, not simulated, so it is
/// deliberately excluded from the determinism contract).
struct CampaignThroughput {
  u32 jobs = 0;  // worker threads used; 0 = result predates the engine
  double plan_seconds = 0.0;  // codegen + calibration + profile + targets
  double run_seconds = 0.0;   // injection execution (all workers)
  double wall_seconds = 0.0;  // plan + run
  /// Simulated cycles consumed by all injection runs (summed per worker).
  u64 simulated_cycles = 0;
  /// Private (non-shared) resident memory pages held by worker machines at
  /// campaign end: the COW observability for bench/campaign_scaling.  With
  /// copy-on-write boot-snapshot sharing these stay small and roughly flat
  /// per worker (dirty pages only); without it every worker holds a full
  /// image.  0 when no worker executed anything.
  u64 worker_private_pages = 0;   // summed across workers
  u32 max_worker_private_pages = 0;  // largest single worker
  /// Spin-loop fast-forwards the worker machines took (Machine::run) and
  /// the simulated cycles they charged without simulating them; summed
  /// per completed injection.  In-process runs only: fabric results
  /// carry zeroes.
  u64 spin_skips = 0;
  u64 spin_skipped_cycles = 0;

  double injections_per_second(size_t injections) const {
    return run_seconds > 0.0
               ? static_cast<double>(injections) / run_seconds
               : 0.0;
  }
  double simulated_cycles_per_second() const {
    return run_seconds > 0.0
               ? static_cast<double>(simulated_cycles) / run_seconds
               : 0.0;
  }
};

/// One remote host's supervisor ledger for a multi-host fabric run:
/// what the coordinator had to do to keep that host's shards moving.
struct FabricHostStats {
  std::string host;             // "host:port" endpoint label
  u64 dispatches = 0;           // shard submissions sent (incl. re-sends)
  u64 deaths = 0;               // connection losses / refusals / EOFs
  u64 lease_revocations = 0;    // heartbeat leases the coordinator revoked
  u64 backoff_waits = 0;        // reconnect backoff sleeps charged
  double backoff_seconds = 0.0;
  u64 records = 0;              // journal records this host delivered
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<InjectionRecord> records;
  /// records[i] is only meaningful where done_mask[i] != 0; an
  /// uninterrupted campaign has every index done.  (Interrupted runs
  /// leave default records at unexecuted indices.)
  std::vector<u8> done_mask;
  u64 nominal_cycles = 0;  // calibrated fault-free run length
  double kernel_fraction = 0.15;
  std::vector<workload::HotFunction> hot_functions;
  u64 reboots = 0;
  u64 datagrams_sent = 0;
  u64 datagrams_dropped = 0;
  CampaignThroughput throughput;

  // Supervisor observability (operational, excluded from the result
  // fingerprint just like throughput).
  u64 quarantined = 0;       // harness-error records (incl. stalls)
  u64 stalls = 0;            // wall-clock watchdog / step-budget trips
  u64 harness_retries = 0;   // retry attempts consumed before success
  u64 resumed_records = 0;   // records recovered from the journal
  u64 journal_flushes = 0;   // journal appends flushed this run
  bool interrupted = false;  // cancelled before every index completed
  /// Retry-backoff observability: waits taken before harness-error
  /// retries, total and per engine worker (worker_backoff_waits[w] is
  /// worker thread w's count; empty when no worker ran).
  u64 retry_backoff_waits = 0;
  double retry_backoff_seconds = 0.0;
  std::vector<u64> worker_backoff_waits;

  // Fabric observability, filled by the multi-process coordinator (zero
  // for in-process runs).  Like the supervisor block these never enter
  // the result fingerprint or the paper denominators: a worker death is
  // a harness event, not an injection outcome.
  u32 fabric_workers = 0;         // subprocess slots the fabric ran with
  u64 fabric_worker_deaths = 0;   // abnormal worker exits (incl. SIGKILL)
  u64 fabric_redispatches = 0;    // shard re-assignments after a death
  u64 fabric_backoff_waits = 0;   // restart backoff sleeps taken
  double fabric_backoff_seconds = 0.0;
  u64 fabric_spliced_duplicates = 0;  // identical dup entries dropped
  /// Per-host supervisor ledger, filled by the multi-host coordinator
  /// (empty for in-process and single-host fabric runs).  Operational
  /// only — like every fabric_* field it never touches the result
  /// fingerprint or the paper denominators.
  std::vector<FabricHostStats> fabric_hosts;

  /// Indices actually carrying a record (resumed + executed).
  u64 executed() const {
    u64 n = 0;
    for (const u8 d : done_mask) n += d;
    return n;
  }
};

using ProgressFn = std::function<void(u32 done, u32 total)>;

/// Supervisor knobs for one engine run.  The default-constructed control
/// is the plain in-memory campaign: no journal, one retry, watchdog off.
struct RunControl {
  /// Durable record sink; also the source of resumed indices (its
  /// recovered() entries are skipped and pre-merged).  May be null.
  InjectionJournal* journal = nullptr;
  /// Harness-error retries per index before quarantining (each retry runs
  /// on a freshly built worker rig).
  u32 retries = 1;
  /// Exponential backoff before each harness-error retry: retry attempt a
  /// (1-based) waits min(cap, base * 2^(a-1)) seconds, scaled by a
  /// deterministic jitter in [0.5, 1.5) drawn from a per-worker Rng
  /// seeded by (plan seed, worker id) — every run of the same plan waits
  /// the same amounts.  base = 0 restores the immediate retry.  Purely
  /// wall-clock: results are bit-identical with any backoff settings.
  double retry_backoff_base = 0.02;
  double retry_backoff_cap = 1.0;
  /// Optional index slice: execute only these plan indices (sorted,
  /// unique, all < plan.targets.size()).  The fabric gives each worker
  /// process its shard this way.  Records land at their plan index as
  /// usual; completion (`interrupted`) is judged against the slice.
  /// Null = every index.
  const std::vector<u32>* indices = nullptr;
  /// Wall-clock budget for a single injection; exceeding it interrupts
  /// the machine and quarantines the index.  0 disables the watchdog.
  double stall_seconds = 0.0;
  /// Max simulation-loop steps per Machine::run call (0 = unlimited);
  /// catches livelocks that stop advancing the cycle counter.
  u64 step_budget = 0;
  /// Cooperative cancel (e.g. set by a SIGINT handler): workers stop
  /// claiming indices, the journal stays flushed, run() returns the
  /// partial result with `interrupted` set.  May be null.
  const std::atomic<bool>* cancel = nullptr;
  /// Test/chaos hook invoked before every injection attempt; a throw is
  /// treated exactly like a harness fault inside that attempt.
  std::function<void(u32 index, u32 attempt)> harness_fault_hook;
  /// Observational per-record hook, invoked once per completed index
  /// (after the record is merged and journaled), serialized with the
  /// progress callback.  The campaign daemon uses it to stream a live
  /// outcome tally; resumed (journal-recovered) records do NOT pass
  /// through it — read them from the journal's recovered() instead.
  std::function<void(u32 index, const InjectionRecord& record)>
      record_observer;
  /// Error-propagation tracing: each worker rig gets a TaintEngine wired
  /// to its machine, and every record carries a PropagationSummary.
  /// Strictly observational — the result fingerprint is bit-identical
  /// with tracing on or off (the parity tests and
  /// bench/propagation_overhead enforce it).
  bool trace = false;
  /// Test knob: install a disabled ErrnoInjector on every rig of a
  /// physical campaign.  A hook that declines every call must leave the
  /// result fingerprint bit-identical to a hook-free run (the seam parity
  /// tests enforce it).  Ignored for kErrno campaigns (which always
  /// install their injector).
  bool errno_hook_probe = false;
};

class CampaignEngine {
 public:
  /// `jobs` worker threads; 0 = hardware concurrency, 1 (default) = serial
  /// on the calling thread.
  explicit CampaignEngine(u32 jobs = 1) : jobs_(jobs) {}

  /// Resolve a jobs knob: 0 -> hardware concurrency (min 1), else as-is.
  static u32 resolve_jobs(u32 requested);

  u32 jobs() const { return resolve_jobs(jobs_); }

  /// Execute the plan under `control` and merge worker results
  /// deterministically.  `progress` (if set) is serialized and reports
  /// monotone completion counts, not execution order; a throwing progress
  /// callback aborts the campaign cleanly (workers stop at the next
  /// injection boundary, the journal keeps every completed record) and
  /// the exception is rethrown to the caller after the pool drains.
  CampaignResult run(const CampaignPlan& plan, const ProgressFn& progress = {},
                     const RunControl& control = {}) const;

 private:
  u32 jobs_;
};

}  // namespace kfi::inject
