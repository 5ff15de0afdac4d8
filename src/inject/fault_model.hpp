// FaultModel: what gets corrupted and when.
//
// The 2004 paper injects exactly one single-bit flip per run, applied at
// activation (single-shot).  That model stays the default — and stays
// bit-identical end to end: a legacy-model plan fingerprints, journals
// and executes exactly as it did before fault models existed.  On top of
// it the model adds:
//
//   shape    kSingleBit  one flipped bit per fault event (the paper)
//            kMultiBit   k distinct random bits of the same unit
//            kBurst      `burst_span` adjacent bits of the same unit
//            kOpclass    single-bit, but the targeted instruction is
//                        drawn only from one functional-unit class
//                        (code campaigns only)
//   trigger  kSingleShot one fault event per run, applied by the paper's
//                        Section 3.3 protocol (breakpoints, deferred
//                        injection)
//            kRate       a Poisson process in simulated cycles: the
//                        per-run event count and event times are
//                        pre-drawn from the plan's seeded RNG, so rate
//                        campaigns stay deterministic and resumable
//
// Everything the model decides is frozen into the CampaignPlan's
// InjectionTarget FaultSite lists at plan time; the runner only replays
// the schedule.
#pragma once

#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "isa/opclass.hpp"

namespace kfi::inject {

enum class CampaignKind : u8;

enum class FaultShape : u8 { kSingleBit = 0, kMultiBit, kBurst, kOpclass };
enum class FaultTrigger : u8 { kSingleShot = 0, kRate };

/// Typed failure for an inconsistent or out-of-range fault model (bad
/// CLI knobs, opclass shape on a non-code campaign, ...).
class FaultModelError : public Error {
 public:
  explicit FaultModelError(const std::string& what) : Error(what) {}
};

struct FaultModel {
  FaultShape shape = FaultShape::kSingleBit;
  FaultTrigger trigger = FaultTrigger::kSingleShot;
  /// kMultiBit: distinct bits flipped per fault event (1..32).
  u32 bits = 1;
  /// kBurst: adjacent bits flipped per fault event (2..32).
  u32 burst_span = 2;
  /// kRate: expected fault events per nominal run length (> 0).
  double rate = 0.0;
  /// kOpclass: functional-unit class the targeted instruction must have.
  isa::OpClass opclass = isa::OpClass::kAlu;

  /// The paper's model — and the bit-identical-to-seed fast path.
  bool is_legacy() const {
    return shape == FaultShape::kSingleBit && trigger == FaultTrigger::kSingleShot;
  }

  /// Bits flipped by one fault event under this shape.
  u32 flips_per_event() const;

  /// Throws FaultModelError when the knobs are out of range or do not fit
  /// the campaign kind.  Every plan build calls this first.
  void validate(CampaignKind kind) const;

  /// Human-readable summary, e.g. "multi-bit k=4" or
  /// "single-bit rate=2.0/run".
  std::string name() const;
};

/// FNV-1a over the model's knobs.  Stamped into journal headers so a
/// resume can refuse a journal written under a different fault model even
/// when the rest of the plan matches.
u64 fault_model_fingerprint(const FaultModel& model);

}  // namespace kfi::inject
