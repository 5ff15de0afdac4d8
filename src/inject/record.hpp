// Injection campaign vocabulary: targets, outcome categories, and the
// per-injection record the framework logs.
//
// The outcome categories are exactly the paper's Table 2 plus its Table
// 5/6 reporting convention: crashes whose dump reached the remote
// collector are "known crashes"; crashes whose crash-data packet was lost
// merge with hangs into the "Hang/Unknown Crash" column.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "errnoinj/cascade.hpp"
#include "isa/arch.hpp"
#include "isa/opclass.hpp"
#include "kernel/crash.hpp"
#include "trace/summary.hpp"

namespace kfi::inject {

/// kErrno is the non-physical campaign family: nothing is corrupted, the
/// injector forces error returns at the syscall boundary instead.
enum class CampaignKind : u8 { kStack = 0, kRegister, kData, kCode, kErrno };

std::string campaign_kind_name(CampaignKind kind);

/// One corruption site: where one fault event lands.  Which fields carry
/// meaning depends on the target's CampaignKind; unused fields stay zero
/// so sites hash and serialize uniformly.
struct FaultSite {
  /// kCode: the corrupted instruction's address.  kData: the word-aligned
  /// data word.  Unused for stack/register sites.
  Addr addr = 0;
  /// Bit within the corrupted unit.  Code on cisca indexes the
  /// instruction's bytes in memory order (bit 0 = LSB of the first byte);
  /// everything else indexes the 32-bit word / register value.
  u32 bit = 0;
  /// kCode: length in bytes of the targeted instruction.  The default 1
  /// means "whole unit" — on riscf the generator always stores 4 (every
  /// instruction is one 32-bit word), and a site with insn_len = 1 on
  /// riscf is likewise treated as the whole word by the flip path.
  u32 insn_len = 1;
  /// kStack: which kernel task's stack, and the depth within its live
  /// frames (0 = at SP, 1 = stack top), resolved at injection time.
  u32 task = 0;
  double depth_frac = 0.0;
  /// kRegister: system-register index.
  u32 reg_index = 0;
  // kErrno overloads two existing fields so errno sites hash, journal and
  // fingerprint through the same paths as physical ones: `task` carries
  // the eligible-invocation index to force, `bit` the forced return word.
  /// Rate-triggered models: when this site's fault event fires, as a
  /// fraction of the nominal run length.  Sites are kept sorted by this.
  double at_frac = 0.0;

  bool operator==(const FaultSite&) const = default;
};

/// One pre-generated injection target (STEP 1 of the paper's Figure 2):
/// an ordered list of FaultSites plus the per-kind context shared by all
/// of them.  The legacy single-bit model generates exactly one site;
/// multi-bit and burst shapes put their k flips of the same unit into k
/// sites; rate-triggered models pre-draw one site list entry per Poisson
/// event (possibly empty, possibly spanning several units).
struct InjectionTarget {
  CampaignKind kind = CampaignKind::kCode;

  /// kCode: the activation breakpoint sits at the FUNCTION ENTRY (the
  /// profiled "instruction breakpoint location based on selected kernel
  /// functions"); the flip is applied to the chosen instruction when the
  /// function is first entered.
  Addr code_entry = 0;
  std::string function;
  /// kCode: functional-unit class of the (first) targeted instruction;
  /// fills the per-class outcome breakdown and is the selection predicate
  /// under the opclass-targeted fault model.
  isa::OpClass opclass = isa::OpClass::kOther;

  /// kRegister: name of the (first) targeted register, resolved by the
  /// runner at injection time.
  std::string reg_name;

  /// When (fraction of the nominal run) single-shot deferred injections
  /// (stack, register) fire.  Rate-triggered schedules use per-site
  /// at_frac instead.
  double inject_at_frac = 0.0;

  /// The fault sites, in application order (sorted by at_frac for rate
  /// schedules).  Empty only for a rate target whose Poisson draw was 0.
  std::vector<FaultSite> sites;

  /// The first (for the legacy model: only) site.  Checked access.
  FaultSite& site();
  const FaultSite& site() const;

  // Per-kind constructors for the single-event shapes.
  static InjectionTarget code(Addr entry, Addr addr, u32 insn_len, u32 bit,
                              std::string function = {});
  static InjectionTarget data(Addr addr, u32 bit);
  static InjectionTarget stack(u32 task, double depth_frac, u32 bit,
                               double at_frac = 0.0);
  static InjectionTarget sysreg(u32 reg_index, u32 bit, double at_frac = 0.0);
  /// kErrno: force return `ret` at eligible invocation `invocation`.
  /// Rate-triggered errno targets append more sites (sorted, unique
  /// invocation indices); a Poisson draw of 0 leaves `sites` empty.
  static InjectionTarget errno_return(u32 invocation, u32 ret);

  bool operator==(const InjectionTarget&) const = default;
};

/// The pre-FaultModel flat view of a target: the 15 per-kind fields the
/// legacy plan fingerprint is defined over (so legacy plans keep their
/// fingerprints).  Derived from the first site; exact for every
/// single-site target, which is the only kind that fingerprint ever sees.
struct LegacyTargetFields {
  CampaignKind kind = CampaignKind::kCode;
  Addr code_entry = 0;
  Addr code_addr = 0;
  u32 code_insn_len = 1;
  u32 code_bit = 0;
  std::string function;
  Addr data_addr = 0;
  u32 data_bit = 0;
  u32 stack_task = 0;
  double stack_depth_frac = 0.0;
  u32 stack_bit = 0;
  u32 reg_index = 0;
  u32 reg_bit = 0;
  std::string reg_name;
  double inject_at_frac = 0.0;
};

LegacyTargetFields legacy_target_fields(const InjectionTarget& target);

/// Table 2 outcome categories (with the Table 5/6 known/unknown split),
/// plus one harness-side category the paper's tables do not have:
/// kHarnessError marks an injection the *control host* failed to execute
/// (a worker exception or a wall-clock stall, retried and then
/// quarantined).  It says nothing about the target's error sensitivity,
/// so the analysis layer reports it separately and keeps it out of every
/// paper-convention denominator.
enum class OutcomeCategory : u8 {
  kNotActivated = 0,
  kNotManifested,
  kFailSilenceViolation,
  kKnownCrash,
  kHangOrUnknownCrash,
  kHarnessError,
  kNumOutcomes,
};

std::string outcome_name(OutcomeCategory outcome);

struct InjectionRecord {
  InjectionTarget target;
  OutcomeCategory outcome = OutcomeCategory::kNotActivated;

  bool activated = false;
  bool activation_known = true;  // false for register injections (fn 1)
  Cycles activation_cycle = 0;
  /// Baseline for cycles_to_crash, following the paper: activation for
  /// code/stack errors, injection for data and register errors (their
  /// footnote 5 and the Section 6 discussion of latent data errors).
  Cycles latency_base_cycle = 0;

  bool crashed = false;
  bool crash_report_received = false;  // survived the UDP channel
  kernel::CrashReport crash{};
  Cycles cycles_to_crash = 0;

  u32 syscalls_completed = 0;

  /// Error-propagation digest, filled only when the campaign ran with
  /// tracing enabled (propagation_valid).  Observational: deliberately
  /// excluded from result_fingerprint, so traced and untraced campaigns
  /// fingerprint identically.
  trace::PropagationSummary propagation{};
  bool propagation_valid = false;

  /// Cascade digest of a forced-errno run (kErrno campaigns only).
  /// Unlike propagation this is *part of the result*: it is mixed into
  /// result_fingerprint and journaled from v4 on.
  errnoinj::CascadeSummary cascade{};
  bool cascade_valid = false;

  // kHarnessError only: what went wrong in the harness and how many
  // attempts (initial + retries) were consumed before quarantining.
  std::string harness_error;
  u32 harness_attempts = 0;
};

}  // namespace kfi::inject
