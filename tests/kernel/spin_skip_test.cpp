// Spin-loop fast-forward (Machine::run): a long run that revisits an
// identical machine state skips the whole periods left before the next
// cycle-driven event, charging their cycles.  The skip must be invisible:
// each hand-built loop below replaces the syscall dispatcher, runs on a
// production machine (which may skip) and on the plain reference machine
// (MachineOptions::reference, which never does), and both must end in the
// same event, cycle count, registers and memory.  The campaign tests run
// known spin-hang code injections both ways and compare the records.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "cisca/cpu.hpp"
#include "cisca/encode.hpp"
#include "inject/campaign.hpp"
#include "kernel/abi.hpp"
#include "kernel/layout.hpp"
#include "kernel/machine.hpp"
#include "kernel/program.hpp"
#include "riscf/cpu.hpp"
#include "riscf/encode.hpp"

namespace kfi::kernel {
namespace {

/// Four timer ticks and a half at the default 1M-cycle timer period.
constexpr u64 kBudget = 4'500'000;

/// mftb rT (time base lower): opcode 31, XO 371, TBR 268.
constexpr u32 mftb(u8 rt) { return 0x7C0C42E6u | (u32{rt} << 21); }

/// Builds a loop's bytes for the dispatcher entry at `base`.
using Build = std::function<std::vector<u8>(Addr base)>;
/// Further changes to a booted machine before the loop is entered.
using Patch = std::function<void(Machine&)>;

struct LoopRun {
  std::unique_ptr<Machine> machine;
  Event event;
};

/// Boot, overwrite the syscall dispatcher with the loop, enter it through
/// a getpid call (with the interrupt flag as asked) and run until
/// `budget` cycles pass or an earlier event.
LoopRun run_loop(isa::Arch arch, bool reference, const Build& build,
                 bool interrupts, u64 budget, const Patch& patch) {
  MachineOptions opts;
  opts.reference = reference;
  LoopRun run;
  run.machine = std::make_unique<Machine>(arch, opts);
  Machine& m = *run.machine;
  const Addr entry = m.image().function(KernelEntryPoints::kDispatch).addr;
  const std::vector<u8> code = build(entry);
  m.space().vwrite_bytes(entry, code.data(), static_cast<u32>(code.size()));
  if (patch) patch(m);
  if (!interrupts) {
    if (arch == isa::Arch::kCisca) {
      dynamic_cast<cisca::CiscaCpu&>(m.cpu()).regs().eflags &=
          ~(1u << cisca::kFlagIF);
    } else {
      dynamic_cast<riscf::RiscfCpu&>(m.cpu()).regs().msr &= ~riscf::kMsrEE;
    }
  }
  m.begin_syscall(Syscall::kGetpid);
  run.event = m.run(m.cpu().cycles() + budget);
  return run;
}

/// Run the loop both ways and require identical end states.  Returns the
/// production machine's fast-forward count.
u64 expect_reference_end(isa::Arch arch, const Build& build,
                         bool interrupts, u64 budget = kBudget,
                         const Patch& patch = {}) {
  const LoopRun fast = run_loop(arch, false, build, interrupts, budget, patch);
  const LoopRun ref = run_loop(arch, true, build, interrupts, budget, patch);
  EXPECT_EQ(fast.event.kind, ref.event.kind);
  EXPECT_EQ(fast.event.kind, EventKind::kCycleStop);
  EXPECT_EQ(fast.machine->cpu().cycles(), ref.machine->cpu().cycles());
  EXPECT_EQ(fast.machine->cpu().snapshot().words,
            ref.machine->cpu().snapshot().words);
  EXPECT_TRUE(fast.machine->space().phys().snapshot() ==
              ref.machine->space().phys().snapshot());
  EXPECT_EQ(ref.machine->spin_stats().skips, 0u);
  EXPECT_EQ(fast.machine->spin_stats().skips == 0,
            fast.machine->spin_stats().skipped_cycles == 0);
  return fast.machine->spin_stats().skips;
}

cisca::MemOperand user_word() {
  cisca::MemOperand mem;
  mem.disp = static_cast<i32>(kUserBufBase);
  return mem;
}

// --- the loops, one builder per arch ---

Build spin(isa::Arch arch) {
  if (arch == isa::Arch::kCisca) {
    return [](Addr base) {
      cisca::Asm a(base);
      const auto top = a.new_label();
      a.bind(top);
      a.jmp(top);
      return a.finish();
    };
  }
  return [](Addr base) {
    riscf::Asm a(base);
    const auto top = a.new_label();
    a.bind(top);
    a.b(top);
    return a.finish();
  };
}

/// Stores the same word every iteration: the page's write version moves
/// each period but its bytes repeat, so the skip needs the copy-and-verify
/// proof.
Build idempotent_store(isa::Arch arch) {
  if (arch == isa::Arch::kCisca) {
    return [](Addr base) {
      cisca::Asm a(base);
      const auto top = a.new_label();
      a.bind(top);
      a.mov_rm_imm(user_word(), 0x5A5A5A5Au);
      a.jmp(top);
      return a.finish();
    };
  }
  return [](Addr base) {
    riscf::Asm a(base);
    a.li32(5, kUserBufBase);
    a.li32(6, 0x5A5A5A5Au);
    const auto top = a.new_label();
    a.bind(top);
    a.stw(6, 0, 5);
    a.b(top);
    return a.finish();
  };
}

/// Increments a memory word every iteration with the registers otherwise
/// repeating: the state never repeats, so nothing may be skipped.
Build counting_store(isa::Arch arch) {
  if (arch == isa::Arch::kCisca) {
    return [](Addr base) {
      cisca::Asm a(base);
      const auto top = a.new_label();
      a.bind(top);
      a.inc_rm(user_word());
      a.jmp(top);
      return a.finish();
    };
  }
  return [](Addr base) {
    riscf::Asm a(base);
    a.li32(5, kUserBufBase);
    const auto top = a.new_label();
    a.bind(top);
    a.lwz(6, 0, 5);
    a.addi(6, 6, 1);
    a.stw(6, 0, 5);
    a.li(6, 0);
    a.b(top);
    return a.finish();
  };
}

class SpinLoopTest : public ::testing::TestWithParam<isa::Arch> {};

TEST_P(SpinLoopTest, PureSpinAcrossTimerTicksMatchesReference) {
  // Each tick's ISR breaks the period; the loop is found again after it,
  // so every tick interval is skipped separately.
  EXPECT_GE(expect_reference_end(GetParam(), spin(GetParam()), true), 3u);
}

TEST_P(SpinLoopTest, PureSpinWithInterruptsOffMatchesReference) {
  EXPECT_GE(expect_reference_end(GetParam(), spin(GetParam()), false), 1u);
}

TEST_P(SpinLoopTest, IdempotentStoreLoopIsProvenAndSkipped) {
  EXPECT_GE(
      expect_reference_end(GetParam(), idempotent_store(GetParam()), true),
      1u);
}

TEST_P(SpinLoopTest, ChangingStoreLoopIsNeverSkipped) {
  EXPECT_EQ(
      expect_reference_end(GetParam(), counting_store(GetParam()), true, 2'000'000),
      0u);
}

TEST_P(SpinLoopTest, EveryRunCallStartsAFreshProbe) {
  // The same spin driven by many short run() calls: the probe resets on
  // every entry and never gets past the gate, so nothing is skipped.
  MachineOptions opts;
  Machine m(GetParam(), opts);
  const Addr entry = m.image().function(KernelEntryPoints::kDispatch).addr;
  const std::vector<u8> code = spin(GetParam())(entry);
  m.space().vwrite_bytes(entry, code.data(), static_cast<u32>(code.size()));
  m.begin_syscall(Syscall::kGetpid);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(m.run(m.cpu().cycles() + 5'000).kind, EventKind::kCycleStop);
  }
  EXPECT_EQ(m.spin_stats().skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothArches, SpinLoopTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return info.param == isa::Arch::kCisca
                                      ? std::string("cisca")
                                      : std::string("riscf");
                         });

TEST(SpinLoopTest, TimeBaseLoopExitsAtTheReferenceCycle) {
  // Spin until the time base passes entry + 1Mi cycles.  Inside the wait
  // the registers repeat (r3 is cleared after the compare), so only the
  // cycle-read guard keeps the detector from skipping past the exit; r7
  // records the exit cycle, and the spin after it is skipped as usual.
  const Build build = [](Addr base) {
    riscf::Asm a(base);
    a.emit_word(mftb(4));
    a.addis(4, 4, 0x10);
    const auto wait = a.new_label();
    a.bind(wait);
    a.emit_word(mftb(3));
    a.cmplw(3, 4);
    a.li(3, 0);
    a.blt(wait);
    a.emit_word(mftb(7));
    const auto done = a.new_label();
    a.bind(done);
    a.b(done);
    return a.finish();
  };
  EXPECT_GE(expect_reference_end(isa::Arch::kRiscf, build, false, 3'000'000),
            1u);
}

TEST(SpinLoopTest, HltSleepToTheNextTickIsNotPeriodic) {
  // The timer ISR counts ECX down, then spins on `hlt` with IF set: the
  // first hlt sleeps to the next tick (a clock-dependent charge; the live
  // ISR frame keeps that tick from firing), later ones cost only
  // themselves.  A period that spans the first hlt is longer than the
  // ones after it and must not be repeated.  The probe saves states at
  // doubling distances, so sweep the countdown until one save lands on
  // the hlt loop before its first sleep.
  for (u32 count = 1; count <= 8; ++count) {
    const Patch tick_halts = [count](Machine& m) {
      const Addr isr =
          m.image().function(KernelEntryPoints::kTimerTick).addr;
      cisca::Asm a(isr);
      a.mov_r_imm(cisca::kEcx, count);
      const auto down = a.new_label();
      a.bind(down);
      a.dec_r(cisca::kEcx);
      a.jcc(cisca::kCondNE, down);
      const auto halt = a.new_label();
      a.bind(halt);
      a.hlt();
      a.jmp(halt);
      const std::vector<u8> code = a.finish();
      m.space().vwrite_bytes(isr, code.data(), static_cast<u32>(code.size()));
    };
    SCOPED_TRACE("countdown " + std::to_string(count));
    expect_reference_end(isa::Arch::kCisca, spin(isa::Arch::kCisca), true,
                         kBudget, tick_halts);
  }
}

// --- injection level: known spin hangs of the seed-1 code campaigns ---

class SpinHangCampaignTest : public ::testing::TestWithParam<isa::Arch> {};

TEST_P(SpinHangCampaignTest, SkippedHangMatchesTheReferenceRecord) {
  inject::CampaignSpec spec;
  spec.arch = GetParam();
  spec.kind = inject::CampaignKind::kCode;
  spec.injections = 186;
  spec.seed = 1;
  const inject::CampaignPlan plan = inject::build_campaign_plan(spec);
  // Code flips that leave the kernel spinning in these campaigns.
  const std::vector<u32> hang = {GetParam() == isa::Arch::kCisca ? 44u : 30u};
  inject::RunControl control;
  control.indices = &hang;

  const inject::CampaignResult fast =
      inject::CampaignEngine(1).run(plan, {}, control);
  inject::CampaignPlan reference_plan = plan;
  reference_plan.spec.machine.reference = true;
  const inject::CampaignResult ref =
      inject::CampaignEngine(1).run(reference_plan, {}, control);

  const inject::InjectionRecord& rec = fast.records[hang[0]];
  EXPECT_EQ(rec.outcome, inject::OutcomeCategory::kHangOrUnknownCrash);
  EXPECT_FALSE(rec.crashed);
  EXPECT_EQ(inject::result_fingerprint(fast), inject::result_fingerprint(ref));
  EXPECT_EQ(fast.throughput.simulated_cycles, ref.throughput.simulated_cycles);
  EXPECT_GT(fast.throughput.spin_skips, 0u);
  EXPECT_GT(fast.throughput.spin_skipped_cycles, 0u);
  EXPECT_EQ(ref.throughput.spin_skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothArches, SpinHangCampaignTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return info.param == isa::Arch::kCisca
                                      ? std::string("cisca")
                                      : std::string("riscf");
                         });

}  // namespace
}  // namespace kfi::kernel
