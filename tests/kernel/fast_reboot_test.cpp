// Dirty-page fast reboot: restoring the boot snapshot after an injection
// run must leave memory byte-identical to the pre-optimization full-copy
// restore, while copying only the pages the run actually dirtied.
#include <gtest/gtest.h>

#include "kernel/abi.hpp"
#include "kernel/layout.hpp"
#include "kernel/machine.hpp"

namespace kfi::kernel {
namespace {

class FastRebootTest : public ::testing::TestWithParam<isa::Arch> {};

/// Dirty a scattered set of pages the way an injection run does: syscalls
/// (data page counters, stack frames, timer state) plus direct flips into
/// text, data, and a far stack.
void dirty_machine(Machine& machine) {
  for (u32 i = 0; i < 3; ++i) machine.syscall(Syscall::kGetpid);
  machine.space().vflip_bit(kTextBase + 0x40, 3);
  machine.space().vflip_bit(kDataBase + 0x1000, 5);
  machine.space().vflip_bit(stack_top(machine.arch(), 2) - 16, 1);
}

TEST_P(FastRebootTest, FastRestoreIsByteIdenticalToFullCopy) {
  const isa::Arch arch = GetParam();
  MachineOptions fast_opts;
  MachineOptions full_opts;
  full_opts.reference = true;
  Machine fast(arch, fast_opts);
  Machine full(arch, full_opts);

  dirty_machine(fast);
  dirty_machine(full);
  fast.restore(fast.boot_snapshot());
  full.restore(full.boot_snapshot());

  const auto& fast_pm = fast.space().phys();
  const auto& full_pm = full.space().phys();
  // The fast path copied a strict subset of pages; the full path all.
  EXPECT_GT(fast_pm.last_restore_pages(), 0u);
  EXPECT_LT(fast_pm.last_restore_pages(), fast_pm.num_pages());
  EXPECT_EQ(full_pm.last_restore_pages(), full_pm.num_pages());

  // Memory is byte-identical between the two restore strategies (both
  // machines are deterministic clones up to the restore path).
  ASSERT_EQ(fast_pm.size(), full_pm.size());
  std::vector<u8> fast_bytes(fast_pm.size()), full_bytes(full_pm.size());
  fast_pm.read_bytes(0, fast_bytes.data(), fast_pm.size());
  full_pm.read_bytes(0, full_bytes.data(), full_pm.size());
  EXPECT_EQ(fast_bytes, full_bytes);
  // And identical to the boot snapshot itself.
  EXPECT_EQ(fast_bytes, *fast.boot_snapshot().memory);
}

TEST_P(FastRebootTest, RepeatedRebootsConverge) {
  // Reboot loops (one per injection) keep working: every restore returns
  // to the bit-exact boot state and the dirty set never grows stale.
  const isa::Arch arch = GetParam();
  Machine machine(arch, MachineOptions{});
  const auto& pm = machine.space().phys();
  u32 first_run_pages = 0;
  for (u32 run = 0; run < 4; ++run) {
    dirty_machine(machine);
    machine.restore(machine.boot_snapshot());
    if (run == 0) first_run_pages = pm.last_restore_pages();
    std::vector<u8> bytes(pm.size());
    pm.read_bytes(0, bytes.data(), pm.size());
    ASSERT_EQ(bytes, *machine.boot_snapshot().memory) << "run " << run;
  }
  EXPECT_GT(first_run_pages, 0u);
  EXPECT_LT(first_run_pages, pm.num_pages());
  // An immediate re-restore with nothing dirtied copies nothing.
  machine.restore(machine.boot_snapshot());
  EXPECT_EQ(pm.last_restore_pages(), 0u);
}

TEST_P(FastRebootTest, BootSnapshotIsSharedNotDuplicated) {
  // The satellite fix for the boot-time double copy: Machine::boot() and
  // its stored boot snapshot share one immutable buffer.
  const isa::Arch arch = GetParam();
  Machine machine(arch, MachineOptions{});
  const MachineSnapshot copy = machine.boot_snapshot();  // struct copy
  EXPECT_EQ(copy.memory.get(), machine.boot_snapshot().memory.get());
  // Holders: the machine's boot snapshot, the memory's restore baseline,
  // and our copy — all the same buffer, never a fresh allocation.
  EXPECT_EQ(copy.memory.use_count(), 3);
}

INSTANTIATE_TEST_SUITE_P(BothArchs, FastRebootTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return info.param == isa::Arch::kCisca
                                      ? std::string("cisca")
                                      : std::string("riscf");
                         });

}  // namespace
}  // namespace kfi::kernel
