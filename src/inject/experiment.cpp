#include "inject/experiment.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "kernel/abi.hpp"
#include "kernel/layout.hpp"

namespace kfi::inject {

using kernel::Event;
using kernel::EventKind;

/// Share of context-register uses attributable to kernel context under the
/// triggered-use model (the workloads are syscall-dominated).
constexpr double kContextRegKernelShare = 0.6;

ExperimentRunner::ExperimentRunner(kernel::Machine& machine,
                                   workload::Workload& wl, UdpChannel& channel,
                                   CrashCollector& collector,
                                   u64 nominal_cycles, u64 budget_cycles,
                                   double kernel_fraction)
    : machine_(machine),
      wl_(wl),
      channel_(channel),
      collector_(collector),
      nominal_(nominal_cycles),
      budget_cycles_(budget_cycles),
      kernel_fraction_(kernel_fraction) {}

void ExperimentRunner::reboot() {
  machine_.restore(machine_.boot_snapshot());
  ++reboots_;
}

void ExperimentRunner::seed_taint_byte(Addr va) {
  if (taint_ == nullptr) return;
  const u32 phys = machine_.space().translate(va, 1, mem::Access::kRead).phys;
  taint_->seed_memory(va, phys, 1);
}

void ExperimentRunner::flip_value_bit(Addr word_addr, u32 bit) {
  mem::AddressSpace& space = machine_.space();
  space.vwrite32(word_addr, space.vread32(word_addr) ^ (1u << bit));
  // Seed the taint mark at the byte the flip landed in (the word is stored
  // in the machine's endianness; bit 0 is the LSB of the 32-bit value).
  seed_taint_byte(machine_.arch() == isa::Arch::kRiscf
                      ? word_addr + (3 - bit / 8)
                      : word_addr + bit / 8);
}

void ExperimentRunner::flip_value_bits(Addr word_addr,
                                       const std::vector<u32>& bits) {
  for (const u32 bit : bits) flip_value_bit(word_addr, bit);
}

void ExperimentRunner::flip_code_site(const FaultSite& site) {
  if (machine_.arch() == isa::Arch::kRiscf) {
    flip_value_bit(site.addr, site.bit);
    return;
  }
  // cisca: instructions are byte streams; the bit indexes them in memory
  // order (bit 0 = LSB of the first byte).
  machine_.space().vflip_bit(site.addr + site.bit / 8, site.bit % 8);
  seed_taint_byte(site.addr + site.bit / 8);
}

Addr ExperimentRunner::resolve_stack_addr(const FaultSite& site) const {
  const u32 task = site.task % kernel::kNumTasks;
  Addr sp;
  if (task == machine_.current_task()) {
    sp = machine_.cpu().stack_pointer();
  } else {
    sp = machine_.read_global("task_structs", task, "sp");
  }
  const Addr base = machine_.task_stack_base(task);
  const Addr top = machine_.task_stack_top(task);
  if (sp < base || sp > top) sp = top;  // implausible: treat stack as empty
  // Random location across the plausibly-used part of the stack: the live
  // frames plus a dead zone below the stack pointer that deeper call
  // chains and interrupts will claim.  Words in the dead zone activate by
  // write (re-injected per Section 3.3) or not at all — this is what
  // keeps activation below 100% for pre-planned stack targets.
  const u32 dead_zone = (top - base) / 8;
  const Addr lo = sp - base > dead_zone ? sp - dead_zone : base;
  const u32 words = (top - lo) / 4;
  if (words < 2) return 0;
  const u32 pick =
      static_cast<u32>(site.depth_frac * static_cast<double>(words - 1));
  return lo + 4 * pick;
}

namespace {

/// Registers whose live value alternates between user and kernel context.
/// The paper's trigger is "a system register is used"; for these, a large
/// share of uses happen in user context, where the corrupted value is
/// replaced from the task state at the next kernel entry.
bool is_context_register(isa::Arch arch, const std::string& name) {
  if (arch == isa::Arch::kCisca) {
    return name == "ESP" || name == "EIP" || name == "EFLAGS";
  }
  return name == "SRR0" || name == "SRR1" || name == "MSR";
}

}  // namespace

bool ExperimentRunner::inject_register(const InjectionTarget& target) {
  isa::SystemRegisterBank& bank = machine_.cpu().sysregs();
  const u32 index = target.site().reg_index % bank.count();
  const u32 width = bank.info(index).bits;
  if (is_context_register(machine_.arch(), bank.info(index).name) &&
      !rng_.chance(kContextRegKernelShare)) {
    // Use landed in user context: the flip corrupts state the kernel
    // replaces on entry.  Injected but with no kernel-visible effect.
    return false;
  }
  // All sites name the same register; clamp each bit to the architectural
  // width and dedup so a clamp collision cannot flip a bit back.
  std::vector<u32> bits;
  for (const FaultSite& s : target.sites) {
    const u32 bit = s.bit % width;
    if (std::find(bits.begin(), bits.end(), bit) == bits.end()) {
      bits.push_back(bit);
    }
  }
  for (const u32 bit : bits) bank.flip_bit(index, bit);
  return true;
}

bool ExperimentRunner::apply_rate_site(const InjectionTarget& target,
                                       const FaultSite& site,
                                       InjectionRecord& record) {
  switch (target.kind) {
    case CampaignKind::kCode:
      // Corrupt the instruction in place; the page write-version bump
      // invalidates any predecoded cache line covering it.
      flip_code_site(site);
      return true;
    case CampaignKind::kData:
      flip_value_bit(site.addr, site.bit);
      return true;
    case CampaignKind::kStack: {
      // Stack geometry is only meaningful at firing time: resolve the live
      // word now, not at plan time.
      const Addr addr = resolve_stack_addr(site);
      if (addr == 0) return false;
      flip_value_bit(addr, site.bit);
      return true;
    }
    case CampaignKind::kRegister: {
      isa::SystemRegisterBank& bank = machine_.cpu().sysregs();
      const u32 index = site.reg_index % bank.count();
      if (record.target.reg_name.empty()) {
        record.target.reg_name = bank.info(index).name;
      }
      const u32 bit = site.bit % bank.info(index).bits;
      if (is_context_register(machine_.arch(), bank.info(index).name) &&
          !rng_.chance(kContextRegKernelShare)) {
        return false;
      }
      bank.flip_bit(index, bit);
      if (taint_ != nullptr) {
        taint_->seed_register(machine_.cpu().sysreg_slot(index));
      }
      return true;
    }
    case CampaignKind::kErrno:
      KFI_CHECK(false, "errno campaigns never take the rate-site path");
      break;
  }
  return false;
}

/// One experiment's state, shared by run_one's event loop and the
/// per-kind hooks.
struct ExperimentRunner::Run {
  explicit Run(const InjectionTarget& t) : target(t) { record.target = t; }

  /// The cycle a fraction of the nominal run length after the start.
  u64 at(double frac) const {
    return start + static_cast<u64>(frac * static_cast<double>(nominal));
  }
  /// The cycle the next Machine::run slice stops at: the hang budget, or
  /// an earlier deferred-injection or rate-site cycle.
  u64 next_stop() const {
    u64 stop = budget_end;
    if (pending_deferred) stop = std::min(stop, inject_at);
    if (rate_mode && next_site < target.sites.size()) {
      stop = std::min(stop, at(target.sites[next_site].at_frac));
    }
    return stop;
  }

  const InjectionTarget& target;
  InjectionRecord record;
  bool errno_run = false;
  bool rate_mode = false;
  u64 nominal = 0;
  u64 start = 0;
  u64 budget_end = 0;
  bool fsv = false;
  bool hang = false;
  bool completed = false;
  // Whether the latency baseline has been fixed (cycle 0 is a legitimate
  // baseline for data errors injected at run start).
  bool latency_base_set = false;

  // Physical kinds.  Deferred single-shot stack/register injection:
  bool pending_deferred = false;
  u64 inject_at = 0;
  // Section 3.3 monitor: the data breakpoint over the corrupted word.
  bool monitoring = false;
  Addr watched_word = 0;
  std::vector<u32> watched_bits;
  // Rate trigger: the next site of the pre-drawn schedule not yet due.
  size_t next_site = 0;
  bool rate_applied_any = false;

  // Errno.
  errnoinj::CascadeTracker tracker;
  u32 ops_completed = 0;
  size_t forces_seen = 0;
  bool forced_any = false;
};

namespace {

std::vector<u32> site_bits(const InjectionTarget& target) {
  std::vector<u32> bits;
  bits.reserve(target.sites.size());
  for (const FaultSite& s : target.sites) bits.push_back(s.bit);
  return bits;
}

}  // namespace

void ExperimentRunner::arm(Run& run) {
  const InjectionTarget& target = run.target;
  InjectionRecord& record = run.record;
  isa::CpuCore& cpu = machine_.cpu();
  if (run.errno_run) {
    // No breakpoints, no corruption: arm the injector with the frozen
    // per-run schedule, one ScheduledError per site (the plan stored the
    // invocation index in site.task and the forced return in site.bit;
    // see FaultSite's kErrno field overloads).
    KFI_CHECK(errno_injector_ != nullptr,
              "errno campaign run without an attached ErrnoInjector");
    std::vector<errnoinj::ScheduledError> schedule;
    schedule.reserve(target.sites.size());
    for (const FaultSite& s : target.sites) schedule.push_back({s.task, s.bit});
    errno_injector_->arm(std::move(schedule));
    return;
  }
  if (run.rate_mode || target.kind == CampaignKind::kRegister) {
    // No monitor can observe a use of the corrupted state (registers,
    // paper footnote 1) — and rate-mode flips are likewise unmonitored.
    record.activation_known = false;
  }
  // Rate trigger: the plan pre-drew a Poisson event schedule into the
  // site list (sorted by at_frac); no Section 3.3 monitor is armed, and
  // each site fires when the machine reaches its cycle.
  if (run.rate_mode) return;
  switch (target.kind) {
    case CampaignKind::kCode:
      // Breakpoint at the selected function's entry; the flips are
      // applied to the chosen instruction when the function is first
      // reached.
      cpu.debug().arm_insn_bp(target.code_entry != 0 ? target.code_entry
                                                     : target.site().addr);
      break;
    case CampaignKind::kData:
      // Every site of a multi-bit/burst shape lands in the same word.
      run.watched_word = target.site().addr;
      run.watched_bits = site_bits(target);
      flip_value_bits(run.watched_word, run.watched_bits);
      // Data-error latency runs from injection: latent errors can sit
      // unconsumed for a long time (the paper's long-tail discussion).
      record.activation_cycle = cpu.cycles();
      record.latency_base_cycle = cpu.cycles();
      run.latency_base_set = true;
      cpu.debug().arm_data_bp(0, run.watched_word, 4, /*on_read=*/true,
                              /*on_write=*/true);
      run.monitoring = true;
      break;
    case CampaignKind::kStack:
    case CampaignKind::kRegister:
      run.pending_deferred = true;
      run.inject_at = run.at(target.inject_at_frac);
      break;
    case CampaignKind::kErrno:
      break;
  }
}

bool ExperimentRunner::on_cycle_stop(Run& run) {
  const InjectionTarget& target = run.target;
  InjectionRecord& record = run.record;
  isa::CpuCore& cpu = machine_.cpu();
  if (run.pending_deferred && cpu.cycles() >= run.inject_at) {
    run.pending_deferred = false;
    if (target.kind == CampaignKind::kRegister) {
      isa::SystemRegisterBank& bank = cpu.sysregs();
      const u32 index = target.site().reg_index % bank.count();
      record.target.reg_name = bank.info(index).name;
      if (inject_register(target)) {
        record.activation_cycle = cpu.cycles();
        // Register latency runs from injection (paper footnote 5).
        record.latency_base_cycle = cpu.cycles();
        run.latency_base_set = true;
        if (taint_ != nullptr) {
          // Seed the register's shadow slot.  The bank write above is
          // injector traffic, not program traffic, so it does not pass
          // through the CPU's trace hooks; seeding here is what makes the
          // flip visible to the engine.
          taint_->seed_register(cpu.sysreg_slot(index));
        }
      }
    } else {  // stack
      run.watched_word = resolve_stack_addr(target.site());
      run.watched_bits = site_bits(target);
      if (run.watched_word != 0) {
        flip_value_bits(run.watched_word, run.watched_bits);
        record.activation_cycle = cpu.cycles();
        cpu.debug().arm_data_bp(0, run.watched_word, 4, true, true);
        run.monitoring = true;
      }
    }
    return true;
  }
  if (run.rate_mode && run.next_site < target.sites.size() &&
      cpu.cycles() >= run.at(target.sites[run.next_site].at_frac)) {
    while (run.next_site < target.sites.size() &&
           cpu.cycles() >= run.at(target.sites[run.next_site].at_frac)) {
      const FaultSite& s = target.sites[run.next_site++];
      if (apply_rate_site(target, s, record)) {
        run.rate_applied_any = true;
        if (!run.latency_base_set) {
          record.activation_cycle = cpu.cycles();
          record.latency_base_cycle = cpu.cycles();
          run.latency_base_set = true;
        }
      }
    }
    return true;
  }
  return false;  // the budget ran out: a hang
}

void ExperimentRunner::on_breakpoint(Run& run, const Event& ev) {
  KFI_CHECK(!run.errno_run, "stray breakpoint in an errno run");
  InjectionRecord& record = run.record;
  isa::CpuCore& cpu = machine_.cpu();
  if (ev.kind == EventKind::kInsnBp) {
    // Code injection: the selected function was entered; corrupt the
    // chosen instruction before execution proceeds.
    for (const FaultSite& s : run.target.sites) flip_code_site(s);
    record.activated = true;
    record.activation_cycle = cpu.cycles();
    record.latency_base_cycle = cpu.cycles();
    run.latency_base_set = true;
    return;
  }
  if (!record.activated) {
    record.activated = true;
    record.activation_cycle = cpu.cycles();
    // Stack latency runs from activation (first access).
    if (run.target.kind == CampaignKind::kStack) {
      record.latency_base_cycle = cpu.cycles();
      run.latency_base_set = true;
    }
  }
  if (ev.hit.is_write) {
    // The write overwrote the error: re-inject (Section 3.3).
    flip_value_bits(run.watched_word, run.watched_bits);
  } else {
    // Read access consumed the corrupted value.
    cpu.debug().disarm_data_bp(0);
    run.monitoring = false;
  }
}

void ExperimentRunner::on_errno_op(Run& run, bool ok) {
  InjectionRecord& record = run.record;
  // Forces are delivered exactly at syscall completion, so the delta in
  // the injector's log is this op's force count.
  const size_t forced = errno_injector_->forced().size();
  const u32 newly = static_cast<u32>(forced - run.forces_seen);
  run.forces_seen = forced;
  if (newly > 0 && !record.activated) {
    // Activation == the first forced return was delivered; the latency
    // baseline runs from there (cf. code/stack errors).
    record.activated = true;
    record.activation_cycle = machine_.cpu().cycles();
    record.latency_base_cycle = machine_.cpu().cycles();
    run.latency_base_set = true;
  }
  run.tracker.record_op(run.ops_completed, newly, ok);
  ++run.ops_completed;
}

void ExperimentRunner::finish_errno(Run& run, bool final_ok) {
  InjectionRecord& record = run.record;
  const std::vector<errnoinj::ForcedError>& forced =
      errno_injector_->forced();
  record.cascade =
      run.tracker.finalize(run.completed, final_ok, run.ops_completed);
  run.forced_any = !forced.empty();
  if (run.forced_any) {
    record.cascade.first_forced_syscall = forced.front().syscall;
    record.cascade.natural_ret = forced.front().natural_ret;
    record.cascade.forced_ret = forced.front().forced_ret;
  }
  record.cascade_valid = true;
  errno_injector_->disarm();
}

OutcomeCategory ExperimentRunner::classify_completed(Run& run) {
  InjectionRecord& record = run.record;
  if (run.errno_run) {
    // The schedule never fired (index beyond the run's eligible
    // invocations, or an empty Poisson draw): nothing was injected.
    if (!run.forced_any) return OutcomeCategory::kNotActivated;
    return run.fsv ? OutcomeCategory::kFailSilenceViolation
                   : OutcomeCategory::kNotManifested;
  }
  if (run.fsv) {
    // Output corruption proves the error was consumed, even if it slipped
    // through an unmonitored path (e.g. the exception glue).
    record.activated = record.activated || record.activation_known;
    return OutcomeCategory::kFailSilenceViolation;
  }
  if (run.rate_mode && !run.rate_applied_any) {
    // Every scheduled flip missed kernel state (user-context register
    // windows, empty stacks) or the schedule was empty: provably nothing
    // was injected, so the clean run is a non-activation, and that is
    // known despite the rate trigger being unmonitorable in general.
    record.activation_known = true;
    return OutcomeCategory::kNotActivated;
  }
  if (!record.activated && !run.rate_mode &&
      run.target.kind != CampaignKind::kRegister) {
    // Paper Section 3.3: breakpoint never reached — the original value
    // is restored and the error marked as not activated.  (The reboot
    // before the next experiment restores it here.)
    return OutcomeCategory::kNotActivated;
  }
  return OutcomeCategory::kNotManifested;
}

InjectionRecord ExperimentRunner::run_one(const InjectionTarget& target,
                                          u64 run_seed, u32 sequence) {
  Run run(target);
  run.errno_run = target.kind == CampaignKind::kErrno;
  run.rate_mode = !run.errno_run && model_.trigger == FaultTrigger::kRate;
  run.nominal = nominal_;
  InjectionRecord& record = run.record;

  reboot();  // fresh boot state for every experiment
  wl_.reset(run_seed);
  rng_ = Rng(run_seed ^ 0xC0117E47u);  // per-run decisions (context window)
  channel_.begin_run(run_seed);  // per-run loss decisions (determinism)
  if (taint_ != nullptr) taint_->reset();  // fresh shadow state too

  isa::CpuCore& cpu = machine_.cpu();
  run.start = cpu.cycles();
  run.budget_end = run.start + budget_cycles_;
  arm(run);

  while (!record.crashed && !run.hang) {
    auto req = wl_.next(machine_);
    if (!req) {
      run.completed = true;
      break;
    }
    machine_.begin_syscall(req->nr, req->a0, req->a1, req->a2);
    record.syscalls_completed += 1;

    bool syscall_done = false;
    while (!syscall_done && !record.crashed && !run.hang) {
      const Event ev = machine_.run(run.next_stop());
      switch (ev.kind) {
        case EventKind::kCycleStop:
          run.hang = !on_cycle_stop(run);
          break;
        case EventKind::kInsnBp:
        case EventKind::kDataBp:
          on_breakpoint(run, ev);
          break;
        case EventKind::kSyscallDone: {
          syscall_done = true;
          const bool ok = wl_.check(machine_, ev.ret);
          if (!ok) run.fsv = true;
          if (run.errno_run) on_errno_op(run, ok);
          break;
        }
        case EventKind::kCrash:
          record.crashed = true;
          record.crash = ev.crash;
          if (!record.activated && !run.errno_run) {
            // Consumed through an unmonitored path (e.g. the exception
            // glue): the crash itself proves activation.
            record.activated = true;
            if (record.activation_cycle == 0) {
              record.activation_cycle = run.start;
            }
          }
          if (!run.latency_base_set) {
            record.latency_base_cycle = record.activation_cycle != 0
                                            ? record.activation_cycle
                                            : run.start;
          }
          record.cycles_to_crash =
              ev.crash.cycles_to_crash - record.latency_base_cycle;
          break;
        case EventKind::kCheckstop:
          run.hang = true;
          break;
        case EventKind::kIdle:
          KFI_CHECK(false, "machine idle mid-syscall");
          break;
      }
    }
  }

  const bool final_ok = !run.completed || wl_.final_check(machine_);
  if (!final_ok) run.fsv = true;
  if (run.errno_run) finish_errno(run, final_ok);

  // STEP 3: classify and (for crashes) deposit the crash data remotely.
  if (record.crashed) {
    kernel::CrashReport wire = record.crash;
    wire.cycles_to_crash = record.cycles_to_crash;
    channel_.send(DataDeposit::serialize(sequence, wire));
    collector_.poll(channel_);
    record.crash_report_received = collector_.has(sequence);
    record.outcome = record.crash_report_received
                         ? OutcomeCategory::kKnownCrash
                         : OutcomeCategory::kHangOrUnknownCrash;
  } else if (run.hang) {
    record.activated = record.activated || !record.activation_known;
    record.outcome = OutcomeCategory::kHangOrUnknownCrash;
  } else {
    record.outcome = classify_completed(run);
  }
  if (run.monitoring) cpu.debug().disarm_data_bp(0);
  cpu.debug().disarm_insn_bp();
  simulated_cycles_ += cpu.cycles() - run.start;
  if (taint_ != nullptr) {
    record.propagation = taint_->finalize();
    record.propagation_valid = true;
  }
  return record;
}

}  // namespace kfi::inject
