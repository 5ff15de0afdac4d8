// Shard runner: one shard of a fabric campaign, executed in this process.
//
// kfi_worker (request on argv, frames on a status pipe) and kfi_campaignd
// (request in a kSubmit, frames inside kStatus messages) run a shard the
// same way, so the sequence lives here once:
//
//   load_shard          decode the spec blob and index ranges, rebuild the
//                       plan, refuse (typed) on fingerprint skew or an
//                       index outside the plan — before any injection;
//   open_shard_journal  resume the shard journal, or create it;
//   run_shard           hello frame, the engine over the slice with a
//                       progress frame per completed injection and
//                       heartbeat frames from a helper thread, then a done
//                       frame with the supervisor totals.
//
// Each tool keeps only its own I/O: where the request comes from, where
// the journal lives, and how a frame reaches the coordinator.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fabric/net.hpp"
#include "fabric/wire.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {

/// A shard request checked against its rebuilt plan.
struct Shard {
  inject::CampaignPlan plan;
  u64 plan_fp = 0;
  std::vector<u32> indices;
};

/// Decode `req` and rebuild its plan into `*out`.  Returns a typed
/// refusal instead: kSkew on a protocol version mismatch or, when
/// `pin_plan_fp`, a rebuilt fingerprint other than req.expect_plan_fp;
/// kBadRequest on an undecodable spec blob, malformed or empty index
/// ranges, or an index outside the plan.  Plan building itself may throw.
std::optional<Refusal> load_shard(const SubmitRequest& req, bool pin_plan_fp,
                                  Shard* out);

/// Resume the shard journal at `path`, or create it when there is none
/// (req.fresh drops an existing one first).  req.flush picks the policy.
inject::InjectionJournal open_shard_journal(const SubmitRequest& req,
                                            const Shard& shard,
                                            const std::string& path);

/// Delivers one status frame to the coordinator; false = the peer is gone.
using FrameSink = std::function<bool(const StatusFrame&)>;

/// Run the shard's slice against `journal`, streaming hello / progress /
/// heartbeat / done frames to `sink` (calls are serialized).  Heartbeats
/// tick every req.heartbeat_seconds (<= 0: none) and stop at once when
/// the run ends.  Once `sink` returns false the engine is cancelled at the
/// next injection boundary and no done frame is sent.  A nonzero
/// `chaos_kill_after` raises SIGKILL after that many completions in this
/// process.  Returns true when the slice completed and the done frame was
/// delivered; false when cancelled (the journal stays resumable).
bool run_shard(const SubmitRequest& req, const Shard& shard,
               inject::InjectionJournal& journal, const FrameSink& sink,
               u32 chaos_kill_after = 0);

}  // namespace kfi::fabric
