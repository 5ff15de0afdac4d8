// Robustness fuzzing: the simulators must execute ARBITRARY garbage
// safely, and their superblock fast path must stay bit-identical to
// single-stepping while doing so.  Every injection campaign depends on
// this — corrupted kernels jump into data, stacks, and re-aligned byte
// soup, and the only acceptable outcomes are architectural traps,
// breakpoints, halts, or plain execution.  A host-side exception
// (kfi::InternalError) anywhere in these paths would poison campaign
// statistics.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "cisca/cpu.hpp"
#include "common/rng.hpp"
#include "kernel/abi.hpp"
#include "kernel/layout.hpp"
#include "kernel/machine.hpp"
#include "mem/address_space.hpp"
#include "riscf/cpu.hpp"
#include "trace/sink.hpp"

namespace kfi {
namespace {

constexpr Addr kCode = 0x10000;
constexpr u32 kCodeBytes = 16384;
constexpr Addr kStackTop = 0x31000;
constexpr u32 kStackBytes = 8192;

/// Folds every CPU-side trace hook, arguments included, into one FNV-1a
/// hash: two CPUs made the same hook calls in the same order iff their
/// hashes agree.
class HookHash final : public trace::TraceSink {
 public:
  u64 value() const { return h_; }

  void on_insn_fetch(trace::RegSlot slot, Addr pc, u32 phys1, u32 len1,
                     u32 phys2, u32 len2) override {
    mix(1, slot, pc, phys1, len1, phys2, len2);
  }
  void on_reg_read(trace::RegSlot slot) override { mix(2, slot); }
  void on_reg_write(trace::RegSlot slot) override { mix(3, slot); }
  void on_reg_merge(trace::RegSlot slot) override { mix(4, slot); }
  void on_mem_read(Addr va, u32 phys, u32 len) override {
    mix(5, va, phys, len);
  }
  void on_mem_write(Addr va, u32 phys, u32 len) override {
    mix(6, va, phys, len);
  }
  void on_branch_decision() override { mix(7); }
  void on_priv_transition(trace::PrivEvent ev) override { mix(8, ev); }
  void on_ctx_save(trace::RegSlot slot, u32 phys) override {
    mix(9, slot, phys);
  }
  void on_ctx_restore(trace::RegSlot slot, u32 phys) override {
    mix(10, slot, phys);
  }
  void on_glue_reg_set(trace::RegSlot slot) override { mix(11, slot); }
  void on_glue_mem_set(u32 phys, u32 len) override { mix(12, phys, len); }
  void on_glue_reg_copy(trace::RegSlot dst, trace::RegSlot src) override {
    mix(13, dst, src);
  }
  void on_syscall_result(trace::RegSlot slot) override { mix(14, slot); }

 private:
  template <typename... T>
  void mix(T... v) {
    ((h_ = (h_ ^ static_cast<u64>(v)) * 0x100000001b3ull), ...);
  }
  u64 h_ = 0xcbf29ce484222325ull;
};

template <typename Cpu>
struct FuzzRig {
  mem::AddressSpace space;
  Cpu cpu{space};
  HookHash hooks;

  explicit FuzzRig(mem::Endian endian) : space(256 * 1024, endian) {
    space.map_region("code", kCode, kCodeBytes,
                     {.read = true, .write = true, .execute = true});
    space.map_region("stack", kStackTop - kStackBytes, kStackBytes,
                     {.read = true, .write = true, .execute = true});
  }

  std::vector<u8> bytes(Addr base, u32 len) const {
    std::vector<u8> out(len);
    space.vread_bytes(base, out.data(), len);
    return out;
  }
};

/// A random code word.  cisca takes raw random bytes; riscf's opcode map is
/// sparse, so three words in four get a primary opcode the decoder knows
/// (loads and stores with a small aligned displacement), or nearly every
/// run would end at its first illegal instruction.
template <typename Cpu>
u32 random_code_word(Rng& rng) {
  const u32 word = rng.next_u32();
  if constexpr (std::is_same_v<Cpu, riscf::RiscfCpu>) {
    static constexpr u32 kPrimary[] = {7,  10, 11, 12, 14, 15, 16, 18, 21,
                                       24, 25, 28, 31, 32, 33, 34, 36, 37,
                                       38, 40, 44};
    if (rng.below(4) == 0) return word;
    const u32 op = kPrimary[rng.below(std::size(kPrimary))];
    const u32 d = op >= 32 ? (word & 0xFC) : (word & 0xFFFF);
    return (op << 26) | (word & 0x03FF0000u) | d;
  }
  return word;
}

/// Differential fuzz: two CPUs get the same random code and state.  One
/// runs block dispatches with its fast paths on, under random step
/// budgets, cycle bounds and breakpoints; its twin single-steps.  After
/// every dispatch consuming k machine-loop iterations the twin takes k
/// steps, stopping early only at a non-kOk status or a data-breakpoint
/// hit, and both must agree on everything: the step count, status, trap,
/// data hits, registers, cycles and (in the rounds with a sink attached)
/// every trace hook.  Memory is compared at the end of each round.  Both
/// must also execute arbitrary garbage without a host exception: the
/// acceptable outcomes are traps, breakpoints, halts and plain execution.
///
/// Each round restarts both CPUs from the same register snapshot with
/// random pointers into the mapped regions, so memory operands often land
/// in mapped memory: loads, stores (into the code too, which must end the
/// dispatch), and data-breakpoint hits.
template <typename Cpu>
void fuzz_cpu(mem::Endian endian, u64 seed) {
  constexpr bool kRiscf = std::is_same_v<Cpu, riscf::RiscfCpu>;
  constexpr u32 kInsnAlign = kRiscf ? 4 : 1;
  FuzzRig<Cpu> blocked(endian), stepped(endian);
  blocked.cpu.set_fast_paths(true);
  const isa::CpuSnapshot reset = blocked.cpu.snapshot();
  Rng rng(seed);
  const auto write_code = [&](Addr from, Addr to) {
    for (Addr a = from; a < to; a += 4) {
      const u32 word = random_code_word<Cpu>(rng);
      blocked.space.vwrite32(a, word);
      stepped.space.vwrite32(a, word);
    }
  };
  const auto pointer = [&] {
    return rng.chance(0.5)
               ? kStackTop - kStackBytes + 4 * static_cast<u32>(rng.below(
                                                   kStackBytes / 4))
               : kCode + 4 * static_cast<u32>(rng.below(kCodeBytes / 4));
  };
  write_code(kCode, kCode + kCodeBytes);
  u64 data_hits = 0;
  for (u32 round = 0; round < 1000; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Fresh code in a random window, start pc, registers and breakpoints,
    // identical in both.
    const Addr window = kCode + 256 * static_cast<u32>(rng.below(64));
    write_code(window, window + 256);
    const Addr pc = kCode + kInsnAlign * static_cast<u32>(rng.below(
                                             kCodeBytes / kInsnAlign));
    const bool armed_insn_bp = rng.chance(0.5);
    const Addr insn_bp = pc + kInsnAlign * static_cast<u32>(rng.below(32));
    const Addr data_bp = kStackTop - kStackBytes +
                         4 * static_cast<u32>(rng.below(kStackBytes / 4 - 128));
    const u32 data_len = 4 * static_cast<u32>(rng.range(1, 128));
    const bool data_read = rng.chance(0.5);
    const bool code_bp = rng.chance(0.3);
    const Addr code_bp_at = kCode + 4 * static_cast<u32>(rng.below(
                                            kCodeBytes / 4 - 64));
    std::vector<u32> gprs(kRiscf ? 32 : 8);
    for (u32& g : gprs) g = pointer();
    const bool traced = (round & 1) != 0;
    for (FuzzRig<Cpu>* rig : {&blocked, &stepped}) {
      rig->cpu.restore(reset);
      rig->cpu.set_pc(pc);
      for (size_t g = 0; g < gprs.size(); ++g) rig->cpu.regs().gpr[g] = gprs[g];
      if (armed_insn_bp) rig->cpu.debug().arm_insn_bp(insn_bp);
      rig->cpu.debug().arm_data_bp(0, data_bp, data_len, data_read, true);
      if (code_bp) rig->cpu.debug().arm_data_bp(1, code_bp_at, 256, true, true);
      rig->cpu.set_trace_sink(traced ? &rig->hooks : nullptr);
    }
    for (u32 dispatch = 0; dispatch < 200; ++dispatch) {
      isa::BlockLimits limits;
      if (rng.chance(0.25)) limits.max_insns = rng.range(1, 8);
      if (rng.chance(0.25)) {
        limits.cycle_bound = blocked.cpu.cycles() + rng.range(1, 40);
      }
      u64 consumed = 0;
      const isa::StepResult rb =
          blocked.cpu.step_block(limits, &consumed);  // must never throw
      isa::StepResult rs;
      u64 steps = 0;
      while (steps < consumed) {
        rs = stepped.cpu.step();
        ++steps;
        if (rs.status != isa::StepStatus::kOk || rs.num_data_hits > 0) break;
      }
      ASSERT_EQ(steps, consumed) << "dispatch " << dispatch;
      ASSERT_EQ(rb.status, rs.status) << "dispatch " << dispatch;
      ASSERT_EQ(rb.trap.cause, rs.trap.cause) << "dispatch " << dispatch;
      ASSERT_EQ(rb.trap.pc, rs.trap.pc) << "dispatch " << dispatch;
      ASSERT_EQ(rb.trap.addr, rs.trap.addr) << "dispatch " << dispatch;
      ASSERT_EQ(rb.trap.has_addr, rs.trap.has_addr)
          << "dispatch " << dispatch;
      ASSERT_EQ(rb.trap.aux, rs.trap.aux) << "dispatch " << dispatch;
      ASSERT_EQ(rb.num_data_hits, rs.num_data_hits) << "dispatch " << dispatch;
      for (u8 h = 0; h < rb.num_data_hits; ++h) {
        ASSERT_EQ(rb.data_hits[h].addr, rs.data_hits[h].addr);
        ASSERT_EQ(rb.data_hits[h].is_write, rs.data_hits[h].is_write);
      }
      data_hits += rb.num_data_hits;
      ASSERT_TRUE(blocked.cpu.registers_equal(stepped.cpu.snapshot()))
          << "dispatch " << dispatch;
      ASSERT_EQ(blocked.cpu.cycles(), stepped.cpu.cycles())
          << "dispatch " << dispatch;
      ASSERT_EQ(blocked.hooks.value(), stepped.hooks.value())
          << "dispatch " << dispatch;
      if (rb.status == isa::StepStatus::kTrap ||
          rb.status == isa::StepStatus::kHalted) {
        break;
      }
    }
    ASSERT_EQ(blocked.bytes(kCode, kCodeBytes),
              stepped.bytes(kCode, kCodeBytes));
    ASSERT_EQ(blocked.bytes(kStackTop - kStackBytes, kStackBytes),
              stepped.bytes(kStackTop - kStackBytes, kStackBytes));
  }
  // The garbage reached every part of the engine: multi-instruction
  // blocks (cisca's page-end window included), invalidations by stores
  // into cached code, and data-breakpoint stops.
  const isa::SuperblockStats sb = blocked.cpu.superblock_stats();
  EXPECT_GT(sb.block_insns, sb.dispatches);
  EXPECT_GT(sb.invalidations, 0u);
  EXPECT_GT(data_hits, 0u);
}

TEST(FuzzTest, CiscaExecutesRandomBytesWithoutHostFaults) {
  fuzz_cpu<cisca::CiscaCpu>(mem::Endian::kLittle, 0xF00D);
}

TEST(FuzzTest, RiscfExecutesRandomWordsWithoutHostFaults) {
  fuzz_cpu<riscf::RiscfCpu>(mem::Endian::kBig, 0xBEEF);
}

TEST(FuzzTest, MachineSurvivesRandomKernelBitFlips) {
  // Heavier end-to-end fuzz: flip random kernel text/data/stack bits on a
  // live machine and run syscalls; any outcome is fine except a host
  // exception or an unclassifiable event.
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    kernel::Machine machine(arch, kernel::MachineOptions{});
    Rng rng(arch == isa::Arch::kCisca ? 111 : 222);
    for (u32 trial = 0; trial < 40; ++trial) {
      machine.restore(machine.boot_snapshot());
      // 1-3 random flips across text, data, and stack regions.
      const u32 flips = 1 + static_cast<u32>(rng.below(3));
      for (u32 f = 0; f < flips; ++f) {
        Addr addr = 0;
        switch (rng.below(3)) {
          case 0:
            addr = machine.image().code_base +
                   static_cast<u32>(rng.below(machine.image().code.size()));
            break;
          case 1:
            addr = machine.image().data_base +
                   static_cast<u32>(rng.below(machine.image().data.size()));
            break;
          default:
            addr = machine.task_stack_base(
                       static_cast<u32>(rng.below(kernel::kNumTasks))) +
                   static_cast<u32>(
                       rng.below(kernel::stack_size(arch) - 4));
            break;
        }
        machine.space().vflip_bit(addr, rng.bit_index(8));
      }
      for (u32 s = 0; s < 30; ++s) {
        const kernel::Event ev = machine.syscall(
            static_cast<kernel::Syscall>(1 + rng.below(8)), 0,
            kernel::kUserBufBase, 64);
        if (ev.kind != kernel::EventKind::kSyscallDone) break;
      }
    }
  }
}

TEST(FuzzTest, MachineSurvivesRandomRegisterCorruption) {
  for (const auto arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    kernel::Machine machine(arch, kernel::MachineOptions{});
    Rng rng(arch == isa::Arch::kCisca ? 333 : 444);
    isa::SystemRegisterBank& bank = machine.cpu().sysregs();
    for (u32 trial = 0; trial < 60; ++trial) {
      machine.restore(machine.boot_snapshot());
      machine.begin_syscall(kernel::Syscall::kWrite, 1,
                            kernel::kUserBufBase, 64);
      machine.run(machine.cpu().cycles() + 1000);
      const u32 reg = static_cast<u32>(rng.below(bank.count()));
      bank.flip_bit(reg, rng.bit_index(bank.info(reg).bits));
      // Drain to any terminal event within a bounded budget.
      const u64 stop = machine.cpu().cycles() + 30'000'000;
      for (;;) {
        const kernel::Event ev = machine.run(stop);
        if (ev.kind == kernel::EventKind::kSyscallDone ||
            ev.kind == kernel::EventKind::kCrash ||
            ev.kind == kernel::EventKind::kCheckstop ||
            ev.kind == kernel::EventKind::kCycleStop) {
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace kfi
