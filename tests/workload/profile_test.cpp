// Pinned kernel profile (the paper's kernprof step, Sections 1 and 3.5):
// the functions profile_hot_functions selects as code-injection targets,
// with their entry counts, for both arches at two seeds.  Code campaigns
// draw their targets from this list, so how the profile is taken may
// change but the list may not; the reference machine configuration must
// produce it too.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "kernel/machine.hpp"
#include "workload/profiler.hpp"
#include "workload/workload.hpp"

namespace kfi::workload {
namespace {

constexpr size_t kHot = 17;

// Rank order is the same for every pinned case.
constexpr std::array<const char*, kHot> kNames = {
    "sys_dispatch", "schedule",      "memcpy_user", "sys_yield",
    "sys_recv",     "sys_alloc",     "alloc_pages", "flush_buffer",
    "sys_free",     "free_pages_ok", "getblk",      "sys_getpid",
    "__switch_to",  "alloc_skb",     "kfree_skb",   "sys_send",
    "sys_write"};

struct ProfilePin {
  isa::Arch arch;
  u64 seed;
  std::array<u64, kHot> entries;
};

constexpr ProfilePin kPins[] = {
    {isa::Arch::kCisca, 1,
     {1700, 566, 514, 500, 315, 253, 253, 252, 252, 252, 170, 110, 101, 100,
      100, 100, 90}},
    {isa::Arch::kCisca, 77,
     {1698, 565, 514, 499, 314, 253, 253, 252, 252, 252, 170, 110, 101, 100,
      100, 100, 90}},
    {isa::Arch::kRiscf, 1,
     {1720, 578, 514, 510, 325, 253, 253, 252, 252, 252, 170, 110, 101, 100,
      100, 100, 90}},
    {isa::Arch::kRiscf, 77,
     {1720, 578, 514, 510, 325, 253, 253, 252, 252, 252, 170, 110, 101, 100,
      100, 100, 90}},
};

/// Profile every pinned seed of `arch` in both machine configurations.
void expect_pinned_profiles(isa::Arch arch) {
  for (const ProfilePin& pin : kPins) {
    if (pin.arch != arch) continue;
    for (const bool reference : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(pin.seed) +
                   (reference ? " reference" : " production"));
      kernel::MachineOptions opts;
      opts.reference = reference;
      kernel::Machine machine(arch, opts);
      auto wl = make_suite();
      const auto hot = profile_hot_functions(machine, *wl, 0.95, pin.seed);
      ASSERT_EQ(hot.size(), kHot);
      for (size_t i = 0; i < kHot; ++i) {
        EXPECT_EQ(hot[i].name, kNames[i]) << "rank " << i;
        EXPECT_EQ(hot[i].entries, pin.entries[i]) << hot[i].name;
      }
    }
  }
}

TEST(ProfilePinTest, CiscaHotFunctionsMatchThePin) {
  expect_pinned_profiles(isa::Arch::kCisca);
}

TEST(ProfilePinTest, RiscfHotFunctionsMatchThePin) {
  expect_pinned_profiles(isa::Arch::kRiscf);
}

}  // namespace
}  // namespace kfi::workload
