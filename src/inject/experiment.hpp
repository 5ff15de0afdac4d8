// ExperimentRunner: executes one injection experiment end to end
// (STEP 2 and STEP 3 of the paper's Figure 2).
//
// Protocols, following Section 3.3:
//   code:     arm the instruction breakpoint at the target; when fetch
//             reaches it (before execution), flip the chosen bit of the
//             instruction bytes — the error then persists for the rest of
//             the run; activation = breakpoint reached.
//   stack /
//   data:     insert the error first (flip the bit), then arm a data
//             memory breakpoint over the word.  A write hit means the
//             error was overwritten: re-inject and mark activated.  A read
//             hit consumes the corrupted value: mark activated and stop
//             monitoring.  No hit by the end of the run: restore the
//             original value, not activated.
//   register: flip the bit of the system register at a random point of
//             the run; activation cannot be monitored (paper footnote 1).
//   errno:    no breakpoint, no corruption: the attached ErrnoInjector
//             forces the scheduled syscall results; activation = the first
//             forced result delivered, and every op's check feeds the
//             record's CascadeSummary.
//
// Every kind runs the same experiment loop (run_one): reboot, drive the
// workload syscall by syscall, stop for the kind's trigger, watch, and
// classify.  The kinds differ only in the private hooks that loop calls.
//
// Outcomes follow Table 2, with crashes whose crash-data datagram was lost
// on the UDP channel merging into Hang/Unknown Crash as in Tables 5/6.
//
// Fault models: every protocol above applies the target's whole FaultSite
// list (one site under the paper's default model; k sites for multi-bit /
// burst shapes).  Under the rate trigger the Section 3.3 monitors are
// replaced by a cycle-triggered hook: the pre-drawn event schedule bounds
// each Machine::run slice, and each due site is applied when the machine
// stops at its cycle — activation is unknowable, as for registers.
#pragma once

#include <vector>

#include "errnoinj/injector.hpp"
#include "inject/channel.hpp"
#include "inject/fault_model.hpp"
#include "inject/record.hpp"
#include "common/rng.hpp"
#include "kernel/machine.hpp"
#include "trace/taint.hpp"
#include "workload/workload.hpp"

namespace kfi::inject {

class ExperimentRunner {
 public:
  ExperimentRunner(kernel::Machine& machine, workload::Workload& wl,
                   UdpChannel& channel, CrashCollector& collector,
                   u64 nominal_cycles, u64 budget_cycles,
                   double kernel_fraction = 0.15);

  /// Run one injection; `sequence` tags the crash-data datagram.
  InjectionRecord run_one(const InjectionTarget& target, u64 run_seed,
                          u32 sequence);

  /// Select the fault model the campaign froze into its plan (the
  /// trigger decides the run_one protocol; shapes are already encoded in
  /// the targets' site lists).  Defaults to the paper's legacy model.
  void set_fault_model(const FaultModel& model) { model_ = model; }

  /// Attach (or detach, with nullptr) the errno injector for kErrno
  /// campaigns.  The caller owns the injector and must also install it on
  /// the machine (Machine::set_syscall_result_hook); run_one() arms it
  /// with each target's frozen schedule and disarms it afterwards.
  void set_errno_injector(errnoinj::ErrnoInjector* injector) {
    errno_injector_ = injector;
  }

  /// Attach (or detach, with nullptr) an error-propagation taint engine.
  /// When attached, every run_one() seeds the engine at the exact flipped
  /// byte (register slot, memory byte, or instruction byte) and stores the
  /// finalized PropagationSummary in the record.  The caller must also
  /// attach the engine to the machine (Machine::set_trace_sink) so the CPU
  /// and glue hooks feed it; this stays strictly observational.
  void set_taint_engine(trace::TaintEngine* taint) { taint_ = taint; }

  /// Hang-budget bookkeeping (absorbed from the old standalone Watchdog):
  /// each run_one() "reboots" the machine back to the boot snapshot and
  /// runs it for at most budget_cycles before declaring a hang.
  u64 budget_cycles() const { return budget_cycles_; }
  u64 reboots() const { return reboots_; }
  u64 nominal_cycles() const { return nominal_; }
  /// Simulated cycles consumed by all run_one() calls so far (campaign
  /// throughput observability; deterministic, so it merges bit-identically
  /// across workers).
  u64 simulated_cycles() const { return simulated_cycles_; }

 private:
  /// Restore the boot snapshot ("reboot") before an experiment.
  void reboot();
  /// Flip bit `bit` (0..31) of the 32-bit value at word_addr, respecting
  /// the machine's endianness; seeds the taint engine (when attached) at
  /// the flipped byte.
  void flip_value_bit(Addr word_addr, u32 bit);
  /// Flip several bits of the same word (multi-bit / burst shapes); each
  /// flipped byte is seeded into the taint engine.
  void flip_value_bits(Addr word_addr, const std::vector<u32>& bits);
  /// Flip one code site (cisca: the instruction's byte stream in memory
  /// order; riscf: the 32-bit word).  Any write path bumps the page write
  /// version, so predecoded instruction caches invalidate automatically.
  void flip_code_site(const FaultSite& site);
  /// Mark the byte at `va` as the taint seed (no-op without an engine).
  void seed_taint_byte(Addr va);
  /// Resolve the live stack-word address for one stack site; returns 0 if
  /// the chosen process currently has no live stack words.
  Addr resolve_stack_addr(const FaultSite& site) const;
  /// Flip the target's register sites (all of the same register; bits are
  /// clamped to the architectural width and deduped so a clamp collision
  /// cannot silently cancel a flip).  Returns false when the single
  /// context-window draw lands the use in user context (EFLAGS/ESP/EIP on
  /// cisca, SP/MSR/SRR0/1 on riscf): the corrupted user context is
  /// replaced at the next kernel entry, so nothing reaches kernel state.
  bool inject_register(const InjectionTarget& target);
  /// Rate-trigger path: apply one scheduled site now.  Returns true when
  /// kernel state was actually corrupted.
  bool apply_rate_site(const InjectionTarget& target, const FaultSite& site,
                       InjectionRecord& record);

  // --- the per-kind hooks of run_one's single event loop ---
  struct Run;
  /// Arm the kind's trigger: the code breakpoint, the data flip and its
  /// breakpoint, the deferred stack/register injection, or the errno
  /// schedule.  Rate-triggered runs arm nothing.
  void arm(Run& run);
  /// A cycle stop: inject whatever is due and return true, or return
  /// false when nothing was (the hang budget ran out).
  bool on_cycle_stop(Run& run);
  /// An instruction or data breakpoint (physical kinds only).
  void on_breakpoint(Run& run, const kernel::Event& ev);
  /// Errno: count this op's forced returns and feed the cascade tracker.
  void on_errno_op(Run& run, bool ok);
  /// Errno: fold the run into the record's CascadeSummary and disarm.
  void finish_errno(Run& run, bool final_ok);
  /// Table 2 outcome of a run that reached the workload's end.
  OutcomeCategory classify_completed(Run& run);

  kernel::Machine& machine_;
  workload::Workload& wl_;
  UdpChannel& channel_;
  CrashCollector& collector_;
  u64 nominal_;
  u64 budget_cycles_;
  u64 reboots_ = 0;
  double kernel_fraction_;
  u64 simulated_cycles_ = 0;
  trace::TaintEngine* taint_ = nullptr;
  errnoinj::ErrnoInjector* errno_injector_ = nullptr;
  FaultModel model_{};
  Rng rng_{0x5eed};
};

}  // namespace kfi::inject
