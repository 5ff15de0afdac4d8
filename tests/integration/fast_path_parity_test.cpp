// The perf fast paths' bit-exactness contract: superblock execution (with
// its spin-loop fast-forward), the dirty-page reboot, and copy-on-write
// page sharing are pure speedups.  For every arch and campaign kind, a
// campaign run in the plain reference configuration (all of them off)
// must produce a bit-identical result — same records, field by field,
// same merged counters — as the production configuration, at any worker
// count, with tracing on or off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "inject/campaign.hpp"
#include "inject/engine.hpp"

namespace kfi::inject {
namespace {

CampaignSpec fastpath_spec(isa::Arch arch, CampaignKind kind) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = 12;
  spec.seed = 77;
  return spec;
}

/// A plan copy in the given machine configuration.  Workers build their
/// Machines from plan.spec.machine, so this flips the config without
/// replanning — the injection targets stay literally identical.
CampaignPlan with_reference(const CampaignPlan& plan, bool reference) {
  CampaignPlan variant = plan;
  variant.spec.machine.reference = reference;
  return variant;
}

class FastPathParityTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, CampaignKind>> {};

TEST_P(FastPathParityTest, FastPathsAreBitExact) {
  const auto& [arch, kind] = GetParam();
  const CampaignPlan plan = build_campaign_plan(fastpath_spec(arch, kind));

  const CampaignResult baseline = CampaignEngine(2).run(plan);
  const u64 want = result_fingerprint(baseline);

  const CampaignResult got =
      CampaignEngine(2).run(with_reference(plan, true));
  ASSERT_EQ(got.records.size(), baseline.records.size());
  EXPECT_EQ(result_fingerprint(got), want);
  // The fingerprint covers these, but compare a few directly so a
  // divergence points at the field, not just at a hash mismatch.
  EXPECT_EQ(got.reboots, baseline.reboots);
  EXPECT_EQ(got.nominal_cycles, baseline.nominal_cycles);
  EXPECT_EQ(got.throughput.simulated_cycles,
            baseline.throughput.simulated_cycles);
  for (size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i].outcome, baseline.records[i].outcome)
        << "record " << i;
    EXPECT_EQ(got.records[i].cycles_to_crash,
              baseline.records[i].cycles_to_crash)
        << "record " << i;
    // The fields the fingerprint leaves out must agree as well.
    EXPECT_EQ(unfingerprinted_difference(got.records[i], baseline.records[i]),
              "")
        << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCampaigns, FastPathParityTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values(CampaignKind::kStack,
                                         CampaignKind::kRegister,
                                         CampaignKind::kData,
                                         CampaignKind::kCode)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_"
                             : "riscf_") +
             campaign_kind_name(std::get<1>(info.param));
    });

// The configuration matrix: reference {on,off} x jobs {1,4} x trace
// {on,off} must all merge to one fingerprint, per arch.  (The code
// campaign is the stressful one for the fast paths: the injector corrupts
// exactly the bytes the block cache holds.)
class SuperblockCowMatrixTest : public ::testing::TestWithParam<isa::Arch> {};

TEST_P(SuperblockCowMatrixTest, AllKnobCombinationsMergeIdentically) {
  const isa::Arch arch = GetParam();
  const CampaignPlan plan =
      build_campaign_plan(fastpath_spec(arch, CampaignKind::kCode));
  const u64 want = result_fingerprint(CampaignEngine(1).run(plan));

  for (const bool reference : {false, true}) {
    for (const u32 jobs : {1u, 4u}) {
      for (const bool trace : {false, true}) {
        SCOPED_TRACE("reference=" + std::to_string(reference) +
                     " jobs=" + std::to_string(jobs) +
                     " trace=" + std::to_string(trace));
        RunControl ctl;
        ctl.trace = trace;
        const CampaignResult got = CampaignEngine(jobs).run(
            with_reference(plan, reference), {}, ctl);
        EXPECT_EQ(result_fingerprint(got), want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothArches, SuperblockCowMatrixTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return std::string(info.param == isa::Arch::kCisca
                                                  ? "cisca"
                                                  : "riscf");
                         });

TEST(ResultFingerprintTest, DistinguishesDifferentCampaigns) {
  // Guard against a degenerate hash: different seeds must (for any
  // non-pathological case) fingerprint differently.
  auto spec = fastpath_spec(isa::Arch::kCisca, CampaignKind::kData);
  const CampaignResult a = CampaignEngine(1).run(build_campaign_plan(spec));
  spec.seed = 1234;
  const CampaignResult b = CampaignEngine(1).run(build_campaign_plan(spec));
  EXPECT_NE(result_fingerprint(a), result_fingerprint(b));
}

}  // namespace
}  // namespace kfi::inject
