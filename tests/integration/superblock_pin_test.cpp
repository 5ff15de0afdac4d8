// Pinned superblock counters of one fault-free run per arch.  The campaign
// fingerprints cannot see how execution is split into dispatches: an
// engine that silently single-steps, or cuts blocks differently, stays
// bit-exact.  These counters can, so a change to the block engine that
// moves any of them must be deliberate.
#include <gtest/gtest.h>

#include "inject/plan.hpp"
#include "kernel/machine.hpp"
#include "workload/workload.hpp"

namespace kfi {
namespace {

isa::SuperblockStats calibrated_stats(isa::Arch arch) {
  kernel::Machine machine(arch, kernel::MachineOptions{});
  auto wl = workload::make_suite();
  inject::calibrate_workload(machine, *wl, 1);
  return machine.cpu().superblock_stats();
}

void expect_stats(const isa::SuperblockStats& s, u64 hits, u64 misses,
                  u64 invalidations, u64 dispatches, u64 block_insns) {
  EXPECT_EQ(s.hits, hits);
  EXPECT_EQ(s.misses, misses);
  EXPECT_EQ(s.invalidations, invalidations);
  EXPECT_EQ(s.dispatches, dispatches);
  EXPECT_EQ(s.block_insns, block_insns);
}

TEST(SuperblockStatsPinTest, CiscaSeed1Calibration) {
  expect_stats(calibrated_stats(isa::Arch::kCisca), 103263, 3269, 0, 106532,
               779012);
}

TEST(SuperblockStatsPinTest, RiscfSeed1Calibration) {
  expect_stats(calibrated_stats(isa::Arch::kRiscf), 104169, 674, 0, 104843,
               848550);
}

}  // namespace
}  // namespace kfi
