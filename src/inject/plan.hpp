// CampaignPlan: STEP 1 of the paper's Figure 2, frozen into a value.
//
// Everything a campaign decides before the first injection — calibration,
// the hot-function profile, the pre-generated targets, and the per-run
// random seeds — is computed once, up front, on a single machine.  The
// result is an immutable plan that any number of worker Machines can
// execute in any order: because every per-injection random decision is
// derived from the plan's pre-drawn seeds (not from shared mutable RNG
// state), the merged campaign result is bit-identical no matter how many
// workers ran it.
#pragma once

#include <vector>

#include "errnoinj/errno_model.hpp"
#include "inject/fault_model.hpp"
#include "inject/record.hpp"
#include "kernel/machine.hpp"
#include "workload/profiler.hpp"

namespace kfi::inject {

struct CampaignSpec {
  isa::Arch arch = isa::Arch::kCisca;
  CampaignKind kind = CampaignKind::kCode;
  u32 injections = 200;
  u64 seed = 1;
  u32 workload_scale = 1;
  kernel::MachineOptions machine{};
  /// UDP crash-data datagram loss probability (unknown-crash source).
  double channel_loss = 0.03;
  /// Hang budget as a multiple of the calibrated fault-free run length.
  double budget_factor = 3.0;
  /// What gets corrupted and when; the default is the paper's single-bit
  /// single-shot model, which keeps the plan bit-identical to a
  /// pre-FaultModel build.  Validated (FaultModelError) at plan build.
  FaultModel model{};
  /// The errno-campaign model (kind == kErrno only; must be enabled for
  /// errno campaigns and disabled — the default — for every other kind).
  /// Validated (ErrnoModelError) at plan build.
  errnoinj::ErrnoModel errno_model{};
};

/// The frozen inputs of one campaign.  Building a plan runs codegen,
/// calibration, profiling, and target generation exactly once; executing
/// it (serial or parallel) touches none of that machinery again.
struct CampaignPlan {
  CampaignSpec spec;
  /// The built kernel image, shared read-only by every worker Machine.
  kir::ImagePtr image;
  u64 nominal_cycles = 0;      // calibrated fault-free run length
  double kernel_fraction = 0.15;
  u64 budget_cycles = 0;       // watchdog hang budget
  /// kErrno: eligible syscall invocations observed in the fault-free
  /// calibration run (the invocation-index draw window).
  u64 eligible_invocations = 0;
  std::vector<workload::HotFunction> hot_functions;
  std::vector<InjectionTarget> targets;
  /// Pre-drawn per-injection run seeds (one per target, in target order);
  /// seed targets[i]'s workload schedule, in-run decisions, and crash-data
  /// datagram loss.
  std::vector<u64> run_seeds;
  /// Wall-clock seconds spent building the plan (codegen + calibration +
  /// profile + target generation).
  double plan_seconds = 0.0;
};

/// The golden pass (workload/profiler.hpp): the calibrated fault-free run
/// length in cycles, with an optional kernel profile taken in the same run.
using workload::calibrate_workload;

/// Kernel-time share of the calibrated run, read off the machine right
/// after calibrate_workload().  Falls back to the ExperimentRunner default
/// when the calibration was degenerate.
double calibrated_kernel_fraction(const kernel::Machine& machine,
                                  u64 nominal_cycles);

/// Build the full plan for a spec (codegen, boot, one golden pass that
/// calibrates and profiles, generate targets, pre-draw seeds).
CampaignPlan build_campaign_plan(const CampaignSpec& spec);

/// Machine options for the campaign's (and every worker's) machine.
kernel::MachineOptions campaign_machine_options(const CampaignSpec& spec);

/// FNV-1a over every determinism-relevant input of a plan: the spec
/// (including the semantics-affecting machine options), the calibration
/// results, and all pre-generated targets and per-run seeds.  The
/// injection journal stamps this into its header so a resume can refuse a
/// journal written for a different campaign.  The bit-exact machine
/// configuration (MachineOptions::reference) is deliberately excluded: a
/// journal may be resumed under either.
u64 plan_fingerprint(const CampaignPlan& plan);

}  // namespace kfi::inject
