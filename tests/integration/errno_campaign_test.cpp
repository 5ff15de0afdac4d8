// End-to-end contract of the errno campaign family (ISSUE 7):
//   * determinism — serial and parallel runs of the same errno plan merge
//     bit-identically, for both arches, both triggers, jobs in {1, 4};
//   * cascade records — every run carries a valid CascadeSummary, forces
//     actually happen, and the per-syscall tallies are populated;
//   * kill/resume — an errno campaign cancelled mid-flight and resumed
//     from its v4 journal matches the uninterrupted fingerprint;
//   * seam parity — installing a disabled ErrnoInjector on a physical
//     campaign's rigs (RunControl::errno_hook_probe) leaves the result
//     fingerprint byte-identical, so the hook costs legacy campaigns
//     nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <tuple>

#include "analysis/cascade.hpp"
#include "errnoinj/errno_model.hpp"
#include "inject/campaign.hpp"
#include "inject/journal.hpp"

namespace kfi::inject {
namespace {

std::string tmp_journal(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("kfi_errno_" + tag))
      .string();
}

CampaignSpec errno_spec(isa::Arch arch,
                        errnoinj::ErrnoTrigger trigger =
                            errnoinj::ErrnoTrigger::kNth,
                        u32 injections = 24) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = CampaignKind::kErrno;
  spec.injections = injections;
  spec.seed = 77;
  std::string bad;
  spec.errno_model.syscalls = *errnoinj::parse_syscall_list("read,write", &bad);
  spec.errno_model.trigger = trigger;
  if (trigger == errnoinj::ErrnoTrigger::kRate) spec.errno_model.rate = 2.0;
  return spec;
}

class ErrnoCampaignTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch,
                                                 errnoinj::ErrnoTrigger>> {};

TEST_P(ErrnoCampaignTest, ParallelIsBitIdenticalAndCascadesAreRecorded) {
  const auto& [arch, trigger] = GetParam();
  const CampaignPlan plan = build_campaign_plan(errno_spec(arch, trigger));
  EXPECT_GT(plan.eligible_invocations, 0u);

  const CampaignResult serial = CampaignEngine(1).run(plan);
  const CampaignResult parallel = CampaignEngine(4).run(plan);
  EXPECT_EQ(result_fingerprint(serial), result_fingerprint(parallel));

  // Every completed record carries a cascade summary; the campaign as a
  // whole must deliver forces (the schedule is drawn to hit the run).
  ASSERT_EQ(serial.records.size(), plan.targets.size());
  u32 forced_runs = 0;
  for (const InjectionRecord& r : serial.records) {
    EXPECT_TRUE(r.cascade_valid);
    if (r.cascade.forced > 0) ++forced_runs;
  }
  EXPECT_GT(forced_runs, 0u);

  // Cascade analysis sees the same structure: a populated overall tally
  // and at least one per-syscall row (read and/or write).
  const analysis::CascadeTally tally = analysis::tally_cascades(serial.records);
  EXPECT_EQ(tally.forced_runs, forced_runs);
  EXPECT_EQ(tally.classified(),
            tally.contained + tally.propagated + tally.silent);
  const auto by_syscall = analysis::tally_cascades_by_syscall(serial.records);
  EXPECT_GE(by_syscall.size(), 1u);
  for (const auto& [name, t] : by_syscall) {
    EXPECT_TRUE(name == "read" || name == "write") << name;
    EXPECT_GT(t.forced_runs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndTriggers, ErrnoCampaignTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values(errnoinj::ErrnoTrigger::kNth,
                                         errnoinj::ErrnoTrigger::kRate)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_"
                             : "riscf_") +
             (std::get<1>(info.param) == errnoinj::ErrnoTrigger::kNth
                  ? "nth"
                  : "rate");
    });

class ErrnoKillResumeTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, u32>> {};

TEST_P(ErrnoKillResumeTest, ResumedErrnoCampaignIsBitIdentical) {
  const auto& [arch, jobs] = GetParam();
  const CampaignPlan plan = build_campaign_plan(errno_spec(arch));
  const std::string path =
      tmp_journal("resume_" + std::to_string(static_cast<int>(arch)) + "_" +
                  std::to_string(jobs) + ".kfij");
  std::filesystem::remove(path);

  const CampaignResult reference = CampaignEngine(1).run(plan);
  const u64 want = result_fingerprint(reference);

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
    EXPECT_GE(partial.executed(), 4u);
    EXPECT_LT(partial.executed(), plan.targets.size());
  }

  InjectionJournal journal = InjectionJournal::resume(path, plan);
  // Recovered entries round-tripped their cascade blocks through disk.
  for (const JournalEntry& e : journal.recovered()) {
    EXPECT_TRUE(e.record.cascade_valid) << "entry " << e.index;
  }
  RunControl ctl;
  ctl.journal = &journal;
  const CampaignResult resumed = CampaignEngine(jobs).run(plan, {}, ctl);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.executed(), plan.targets.size());
  EXPECT_EQ(result_fingerprint(resumed), want);
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndJobs, ErrnoKillResumeTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_jobs"
                             : "riscf_jobs") +
             std::to_string(std::get<1>(info.param));
    });

class ErrnoHookProbeParityTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, u32>> {};

TEST_P(ErrnoHookProbeParityTest, InactiveHookLeavesPhysicalCampaignsIntact) {
  // Satellite 2: the syscall_result_hook seam must be invisible when the
  // hook is installed but never forces — a physical data campaign run with
  // a disabled ErrnoInjector on every rig fingerprints identically to the
  // plain run.
  const auto& [arch, jobs] = GetParam();
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = CampaignKind::kData;
  spec.injections = 16;
  spec.seed = 77;
  const CampaignPlan plan = build_campaign_plan(spec);

  const CampaignResult plain = CampaignEngine(jobs).run(plan);
  RunControl ctl;
  ctl.errno_hook_probe = true;
  const CampaignResult probed = CampaignEngine(jobs).run(plan, {}, ctl);
  EXPECT_EQ(result_fingerprint(plain), result_fingerprint(probed));
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndJobs, ErrnoHookProbeParityTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_jobs"
                             : "riscf_jobs") +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace kfi::inject
