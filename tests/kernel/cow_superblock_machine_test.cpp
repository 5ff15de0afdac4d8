// Machine-level contracts of two fast paths: COW pages and superblocks.
//
//   * COW boot-snapshot sharing: a worker Machine constructed from a donor
//     machine's boot snapshot starts with ZERO private pages (its memory
//     aliases the donor's snapshot buffer) yet is bit-identical — same
//     boot state, same behavior, same snapshots — to a machine that
//     booted itself.
//
//   * Superblock invalidation end-to-end: depositing a bit flip into a
//     kernel code page whose instructions are already cached in
//     superblocks (on by default) must invalidate the stale blocks, so the
//     machine behaves bit-identically to the reference configuration,
//     which caches nothing.
#include <gtest/gtest.h>

#include "kernel/abi.hpp"
#include "kernel/layout.hpp"
#include "kernel/machine.hpp"
#include "kernel/program.hpp"

namespace kfi::kernel {
namespace {

class CowSuperblockMachineTest : public ::testing::TestWithParam<isa::Arch> {};

TEST_P(CowSuperblockMachineTest, WorkerFromDonorSnapshotMatchesSelfBooted) {
  const isa::Arch arch = GetParam();
  const kir::ImagePtr image = build_shared_kernel_image(arch);
  MachineOptions opts;
  Machine donor(arch, opts, image);
  Machine self(arch, opts, image);
  Machine worker(arch, opts, image, donor.boot_snapshot());

  // The whole point: adopting the donor's snapshot leaves the worker with
  // no private pages until it writes something.
  EXPECT_EQ(worker.space().phys().private_pages(), 0u);

  // Boot state is bit-identical to a self-booted machine.
  EXPECT_EQ(*worker.boot_snapshot().memory, *self.boot_snapshot().memory);
  EXPECT_EQ(worker.boot_snapshot().cpu.words, self.boot_snapshot().cpu.words);
  EXPECT_EQ(worker.boot_snapshot().cpu.cycles,
            self.boot_snapshot().cpu.cycles);
  EXPECT_EQ(worker.boot_snapshot().rng_state, self.boot_snapshot().rng_state);

  // And so is behavior: the same syscall sequence lands in the same state.
  for (Machine* m : {&worker, &self}) {
    m->syscall(Syscall::kGetpid);
    m->syscall(Syscall::kWrite, 1, kUserBufBase, 64);
  }
  // The run dirtied only a handful of pages — that is the whole resident
  // cost of this worker beyond the shared image.  (Sampled before the
  // snapshots below: taking a snapshot re-baselines memory onto the new
  // shared buffer, releasing the private copies.)
  EXPECT_GT(worker.space().phys().private_pages(), 0u);
  EXPECT_LT(worker.space().phys().private_pages(),
            worker.space().phys().num_pages() / 4);
  const MachineSnapshot ws = worker.snapshot();
  const MachineSnapshot ss = self.snapshot();
  EXPECT_EQ(*ws.memory, *ss.memory);
  EXPECT_EQ(ws.cpu.words, ss.cpu.words);
  EXPECT_EQ(ws.cpu.cycles, ss.cpu.cycles);
}

TEST_P(CowSuperblockMachineTest, WorkerRebootDropsBackToSharedPages) {
  const isa::Arch arch = GetParam();
  const kir::ImagePtr image = build_shared_kernel_image(arch);
  MachineOptions opts;
  Machine donor(arch, opts, image);
  Machine worker(arch, opts, image, donor.boot_snapshot());

  worker.syscall(Syscall::kWrite, 1, kUserBufBase, 64);
  worker.restore(worker.boot_snapshot());
  // The reboot re-points dirty pages at the shared snapshot; the private
  // buffers stay allocated (hot pages re-materialize without malloc), so
  // the footprint equals the dirty high-water mark, not the image size.
  EXPECT_LT(worker.space().phys().private_pages(),
            worker.space().phys().num_pages() / 4);
  // Post-reboot behavior matches the donor running the same syscall.
  const Event wev = worker.syscall(Syscall::kGetpid);
  const Event dev = donor.syscall(Syscall::kGetpid);
  EXPECT_EQ(wev.ret, dev.ret);
  EXPECT_EQ(worker.cpu().snapshot().words, donor.cpu().snapshot().words);
}

TEST_P(CowSuperblockMachineTest, DepositIntoCachedKernelCodeReDecodes) {
  const isa::Arch arch = GetParam();
  MachineOptions fast_opts;  // superblocks and COW on
  MachineOptions slow_opts;
  slow_opts.reference = true;
  Machine fast(arch, fast_opts);
  Machine slow(arch, slow_opts);

  // Warm the block cache over the syscall dispatch path.
  fast.syscall(Syscall::kGetpid);
  slow.syscall(Syscall::kGetpid);
  ASSERT_GT(fast.cpu().superblock_stats().dispatches, 0u);

  // Deposit a flip into the first instruction of the dispatch function —
  // code that is cached in a superblock and will be re-executed by the
  // next syscall.
  const Addr target = fast.image().function(KernelEntryPoints::kDispatch).addr;
  fast.space().vflip_bit(target, 1);
  slow.space().vflip_bit(target, 1);

  // Whatever the corrupted instruction now does (runs differently, traps,
  // crashes), the cached machine must do exactly the same thing as the
  // cache-free one.
  fast.syscall(Syscall::kGetpid);
  slow.syscall(Syscall::kGetpid);
  EXPECT_EQ(fast.cpu().snapshot().words, slow.cpu().snapshot().words);
  EXPECT_EQ(fast.cpu().snapshot().cycles, slow.cpu().snapshot().cycles);
  // The stale entries were detected, not silently replayed.
  EXPECT_GE(fast.cpu().superblock_stats().invalidations, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothArches, CowSuperblockMachineTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return std::string(info.param == isa::Arch::kCisca
                                                  ? "cisca"
                                                  : "riscf");
                         });

}  // namespace
}  // namespace kfi::kernel
