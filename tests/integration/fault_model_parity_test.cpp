// Determinism contract of the non-legacy fault models (ISSUE 6): a
// multi-bit and a rate-based campaign must merge to the same
// result_fingerprint regardless of worker count, and a campaign killed
// mid-run and resumed from its v3 journal must be bit-identical to an
// uninterrupted run — on both arches, jobs in {1, 4}.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <tuple>

#include "inject/campaign.hpp"
#include "inject/fault_model.hpp"
#include "inject/journal.hpp"

namespace kfi::inject {
namespace {

enum class ModelCase { kMultiBit, kBurst, kRate };

const char* model_case_name(ModelCase c) {
  switch (c) {
    case ModelCase::kMultiBit: return "multibit";
    case ModelCase::kBurst: return "burst";
    case ModelCase::kRate: return "rate";
  }
  return "?";
}

FaultModel model_for(ModelCase c) {
  FaultModel m;
  switch (c) {
    case ModelCase::kMultiBit:
      m.shape = FaultShape::kMultiBit;
      m.bits = 4;
      break;
    case ModelCase::kBurst:
      m.shape = FaultShape::kBurst;
      m.burst_span = 4;
      break;
    case ModelCase::kRate:
      m.trigger = FaultTrigger::kRate;
      m.rate = 2.0;
      break;
  }
  return m;
}

CampaignSpec model_spec(isa::Arch arch, ModelCase c) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = CampaignKind::kData;
  spec.injections = 16;
  spec.seed = 77;
  spec.model = model_for(c);
  return spec;
}

class FaultModelParityTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, u32, ModelCase>> {
};

TEST_P(FaultModelParityTest, JobsAndKillResumeAreBitIdentical) {
  const auto& [arch, jobs, mcase] = GetParam();
  const CampaignPlan plan = build_campaign_plan(model_spec(arch, mcase));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("kfi_fm_parity_" + std::to_string(static_cast<int>(arch)) + "_" +
        std::to_string(jobs) + "_" + model_case_name(mcase) + ".kfij"))
          .string();
  std::filesystem::remove(path);

  // Reference: uninterrupted serial run.  The jobs-N uninterrupted run
  // must merge to the identical fingerprint.
  const CampaignResult reference = CampaignEngine(1).run(plan);
  const u64 want = result_fingerprint(reference);
  EXPECT_EQ(result_fingerprint(CampaignEngine(jobs).run(plan)), want);

  // Kill after 4 completions, then resume from the journal.
  u64 journaled = 0;
  {
    InjectionJournal journal = InjectionJournal::create(path, plan);
    std::atomic<bool> cancel{false};
    RunControl ctl;
    ctl.journal = &journal;
    ctl.cancel = &cancel;
    const CampaignResult partial = CampaignEngine(jobs).run(
        plan,
        [&cancel](u32 done, u32) {
          if (done >= 4) cancel.store(true);
        },
        ctl);
    EXPECT_TRUE(partial.interrupted);
    journaled = partial.executed();
    EXPECT_GE(journaled, 4u);
    EXPECT_LT(journaled, plan.targets.size());
  }
  InjectionJournal journal = InjectionJournal::resume(path, plan);
  EXPECT_EQ(journal.recovered().size(), journaled);
  RunControl ctl;
  ctl.journal = &journal;
  const CampaignResult resumed = CampaignEngine(jobs).run(plan, {}, ctl);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.executed(), plan.targets.size());
  EXPECT_EQ(result_fingerprint(resumed), want);
  ASSERT_EQ(resumed.records.size(), reference.records.size());
  for (size_t i = 0; i < reference.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].outcome, reference.records[i].outcome)
        << "record " << i;
  }
  std::filesystem::remove(path);
}

TEST(FaultModelPlanTest, NonLegacyPlansGetDistinctFingerprints) {
  // The model is part of the plan identity: same seed/kind/arch, different
  // model ⇒ different plan fingerprint (so foreign journals are refused),
  // while the default model reproduces the legacy fingerprint stream.
  CampaignSpec legacy;
  legacy.arch = isa::Arch::kCisca;
  legacy.kind = CampaignKind::kData;
  legacy.injections = 8;
  legacy.seed = 77;
  CampaignSpec multi = legacy;
  multi.model.shape = FaultShape::kMultiBit;
  multi.model.bits = 4;
  CampaignSpec rate = legacy;
  rate.model.trigger = FaultTrigger::kRate;
  rate.model.rate = 2.0;
  const u64 fp_legacy = plan_fingerprint(build_campaign_plan(legacy));
  const u64 fp_multi = plan_fingerprint(build_campaign_plan(multi));
  const u64 fp_rate = plan_fingerprint(build_campaign_plan(rate));
  EXPECT_NE(fp_legacy, fp_multi);
  EXPECT_NE(fp_legacy, fp_rate);
  EXPECT_NE(fp_multi, fp_rate);
}

INSTANTIATE_TEST_SUITE_P(
    ArchesJobsModels, FaultModelParityTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(ModelCase::kMultiBit,
                                         ModelCase::kBurst, ModelCase::kRate)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca"
                             : "riscf") +
             "_jobs" + std::to_string(std::get<1>(info.param)) + "_" +
             model_case_name(std::get<2>(info.param));
    });

}  // namespace
}  // namespace kfi::inject
