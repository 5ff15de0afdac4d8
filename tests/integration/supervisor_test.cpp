// The campaign supervisor's fault-tolerance contract (ISSUE 4):
//   * kill/resume parity — a campaign cancelled after N injections and
//     resumed from its journal merges to the same result_fingerprint as
//     an uninterrupted run, for both arches and jobs in {1, 4};
//   * worker quarantine — an exception escaping one injection retries on
//     a fresh rig, then quarantines that index as a harness-error record
//     while the campaign completes every other index;
//   * watchdog — a wall-clock-stalled injection is interrupted via the
//     machine's HarnessInterrupt and quarantined instead of wedging;
//   * progress exceptions abort cleanly and the journal survives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "analysis/tally.hpp"
#include "common/error.hpp"
#include "inject/campaign.hpp"
#include "inject/journal.hpp"

namespace kfi::inject {
namespace {

std::string tmp_journal(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("kfi_supervisor_" + tag))
      .string();
}

CampaignSpec small_spec(isa::Arch arch, u32 injections = 16) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = CampaignKind::kStack;  // crashes + reboots well represented
  spec.injections = injections;
  spec.seed = 77;
  return spec;
}

class KillResumeParityTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, u32>> {};

TEST_P(KillResumeParityTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const auto& [arch, jobs] = GetParam();
  const CampaignPlan plan = build_campaign_plan(small_spec(arch));
  const std::string path =
      tmp_journal("parity_" + std::to_string(static_cast<int>(arch)) + "_" +
                  std::to_string(jobs) + ".kfij");
  std::filesystem::remove(path);

  // Reference: the plain uninterrupted serial run.
  const CampaignResult reference = CampaignEngine(1).run(plan);
  const u64 want = result_fingerprint(reference);

  // Phase 1: run with a journal and cancel after 4 completions (workers
  // already in flight finish their current index, so a few more than 4
  // may land in the journal — that is part of the contract).
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
    EXPECT_EQ(partial.journal_flushes, journaled);
  }

  // Phase 2: a fresh process would reopen the journal and rerun; the
  // engine must skip journaled indices and merge bit-identically.
  InjectionJournal journal = InjectionJournal::resume(path, plan);
  EXPECT_EQ(journal.recovered().size(), journaled);
  RunControl ctl;
  ctl.journal = &journal;
  const CampaignResult resumed = CampaignEngine(jobs).run(plan, {}, ctl);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_records, journaled);
  EXPECT_EQ(resumed.executed(), plan.targets.size());
  EXPECT_EQ(result_fingerprint(resumed), want);
  // Spot-check the merge beyond the fingerprint.
  EXPECT_EQ(resumed.reboots, reference.reboots);
  EXPECT_EQ(resumed.datagrams_sent, reference.datagrams_sent);
  EXPECT_EQ(resumed.throughput.simulated_cycles,
            reference.throughput.simulated_cycles);
  ASSERT_EQ(resumed.records.size(), reference.records.size());
  for (size_t i = 0; i < reference.records.size(); ++i) {
    EXPECT_EQ(resumed.records[i].outcome, reference.records[i].outcome)
        << "record " << i;
    EXPECT_EQ(resumed.records[i].cycles_to_crash,
              reference.records[i].cycles_to_crash)
        << "record " << i;
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndJobs, KillResumeParityTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca, isa::Arch::kRiscf),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca_jobs"
                             : "riscf_jobs") +
             std::to_string(std::get<1>(info.param));
    });

TEST(SupervisorTest, ResumeSurvivesPerfKnobChanges) {
  // A journal written by a reference-configuration campaign resumed under
  // the production configuration — and vice versa — must still merge
  // bit-identically: journaled records are data, and the remaining
  // injections are configuration-independent by the parity contract.
  for (const bool first_run_reference : {true, false}) {
    SCOPED_TRACE(first_run_reference ? "reference_then_production"
                                     : "production_then_reference");
    CampaignSpec spec = small_spec(isa::Arch::kRiscf);
    spec.machine.reference = first_run_reference;
    const CampaignPlan plan = build_campaign_plan(spec);
    const u64 want = result_fingerprint(CampaignEngine(1).run(plan));

    const std::string path = tmp_journal(
        "knobchange_" + std::to_string(first_run_reference) + ".kfij");
    std::filesystem::remove(path);
    {
      InjectionJournal journal = InjectionJournal::create(path, plan);
      std::atomic<bool> cancel{false};
      RunControl ctl;
      ctl.journal = &journal;
      ctl.cancel = &cancel;
      CampaignEngine(2).run(
          plan,
          [&cancel](u32 done, u32) {
            if (done >= 4) cancel.store(true);
          },
          ctl);
    }
    CampaignPlan flipped = plan;
    flipped.spec.machine.reference = !first_run_reference;
    InjectionJournal journal = InjectionJournal::resume(path, flipped);
    RunControl ctl;
    ctl.journal = &journal;
    const CampaignResult resumed = CampaignEngine(2).run(flipped, {}, ctl);
    EXPECT_EQ(result_fingerprint(resumed), want);
    std::filesystem::remove(path);
  }
}

TEST(SupervisorTest, ThrowingWorkerQuarantinesIndexAndCampaignCompletes) {
  const CampaignPlan plan =
      build_campaign_plan(small_spec(isa::Arch::kRiscf, 12));
  const CampaignResult clean = CampaignEngine(1).run(plan);

  RunControl ctl;
  ctl.retries = 1;
  ctl.harness_fault_hook = [](u32 index, u32) {
    if (index == 5) throw std::runtime_error("chaos: worker fault at 5");
  };
  const CampaignResult result = CampaignEngine(2).run(plan, {}, ctl);

  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.executed(), plan.targets.size());
  EXPECT_EQ(result.quarantined, 1u);
  const InjectionRecord& q = result.records[5];
  EXPECT_EQ(q.outcome, OutcomeCategory::kHarnessError);
  EXPECT_EQ(q.harness_attempts, 2u);  // initial + 1 retry, both threw
  EXPECT_NE(q.harness_error.find("chaos: worker fault at 5"),
            std::string::npos)
      << q.harness_error;
  // Every other record is bit-identical to the clean run: the quarantine
  // must not disturb neighbouring injections.
  for (size_t i = 0; i < plan.targets.size(); ++i) {
    if (i == 5) continue;
    EXPECT_EQ(result.records[i].outcome, clean.records[i].outcome) << i;
    EXPECT_EQ(result.records[i].cycles_to_crash,
              clean.records[i].cycles_to_crash)
        << i;
  }
  // The tally reports the quarantine separately and keeps it out of the
  // paper-convention denominators.
  const analysis::OutcomeTally t = analysis::tally_records(result.records);
  EXPECT_EQ(t.quarantined, 1u);
  EXPECT_EQ(t.injected, plan.targets.size() - 1);
}

TEST(SupervisorTest, RetryOnFreshRigRecoversTransientFault) {
  const CampaignPlan plan =
      build_campaign_plan(small_spec(isa::Arch::kCisca, 10));
  const CampaignResult clean = CampaignEngine(1).run(plan);

  RunControl ctl;
  ctl.retries = 1;
  ctl.harness_fault_hook = [](u32 index, u32 attempt) {
    if (index == 3 && attempt == 0) {
      throw std::runtime_error("transient harness fault");
    }
  };
  const CampaignResult result = CampaignEngine(1).run(plan, {}, ctl);

  // The retry ran on a freshly built rig, so the record — and with it the
  // whole campaign — is bit-identical to the clean run.
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_EQ(result.harness_retries, 1u);
  EXPECT_EQ(result_fingerprint(result), result_fingerprint(clean));
}

TEST(SupervisorTest, StallInterruptQuarantinesWithoutRetry) {
  const CampaignPlan plan =
      build_campaign_plan(small_spec(isa::Arch::kRiscf, 8));
  RunControl ctl;
  ctl.retries = 3;  // must NOT be consumed: a stalled index stalls again
  ctl.harness_fault_hook = [](u32 index, u32) {
    if (index == 2) throw StallInterrupt("synthetic stall");
  };
  const CampaignResult result = CampaignEngine(1).run(plan, {}, ctl);
  EXPECT_EQ(result.stalls, 1u);
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.harness_retries, 0u);
  EXPECT_EQ(result.records[2].outcome, OutcomeCategory::kHarnessError);
  EXPECT_EQ(result.records[2].harness_attempts, 1u);
  EXPECT_EQ(result.executed(), plan.targets.size());
}

TEST(SupervisorTest, WallClockWatchdogInterruptsWedgedInjection) {
  const CampaignPlan plan =
      build_campaign_plan(small_spec(isa::Arch::kRiscf, 6));
  RunControl ctl;
  ctl.stall_seconds = 2.0;
  // Wedge index 1 past its wall budget *before* the machine runs: the
  // watchdog raises the HarnessInterrupt, and the first Machine::run of
  // the attempt observes it and throws.  Generous margins keep this
  // stable under sanitizer builds.
  ctl.harness_fault_hook = [](u32 index, u32) {
    if (index == 1) std::this_thread::sleep_for(std::chrono::seconds(5));
  };
  const CampaignResult result = CampaignEngine(1).run(plan, {}, ctl);
  EXPECT_EQ(result.stalls, 1u);
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.records[1].outcome, OutcomeCategory::kHarnessError);
  EXPECT_EQ(result.executed(), plan.targets.size());
}

TEST(SupervisorTest, ThrowingProgressAbortsCleanlyAndJournalSurvives) {
  const CampaignPlan plan =
      build_campaign_plan(small_spec(isa::Arch::kRiscf, 12));
  const CampaignResult reference = CampaignEngine(1).run(plan);
  const std::string path = tmp_journal("progress_throw.kfij");
  std::filesystem::remove(path);

  {
    InjectionJournal journal = InjectionJournal::create(path, plan);
    RunControl ctl;
    ctl.journal = &journal;
    EXPECT_THROW(CampaignEngine(2).run(
                     plan,
                     [](u32 done, u32) {
                       if (done == 3) throw std::runtime_error("ui died");
                     },
                     ctl),
                 std::runtime_error);
  }

  // Everything that completed before the abort is durable; resuming
  // finishes the campaign bit-identically.
  InjectionJournal journal = InjectionJournal::resume(path, plan);
  EXPECT_GE(journal.recovered().size(), 3u);
  RunControl ctl;
  ctl.journal = &journal;
  const CampaignResult resumed = CampaignEngine(2).run(plan, {}, ctl);
  EXPECT_EQ(result_fingerprint(resumed), result_fingerprint(reference));
  std::filesystem::remove(path);
}

TEST(SupervisorTest, QuarantinedIndexIsRetriedOnResume) {
  // A quarantined record is journaled (so partial tallies are complete)
  // but NOT treated as done on resume: the next run gets a second chance
  // at the index and heals the campaign if the fault was environmental.
  const CampaignPlan plan =
      build_campaign_plan(small_spec(isa::Arch::kCisca, 8));
  const CampaignResult clean = CampaignEngine(1).run(plan);
  const std::string path = tmp_journal("requarantine.kfij");
  std::filesystem::remove(path);

  {
    InjectionJournal journal = InjectionJournal::create(path, plan);
    RunControl ctl;
    ctl.journal = &journal;
    ctl.retries = 0;
    ctl.harness_fault_hook = [](u32 index, u32) {
      if (index == 4) throw std::runtime_error("environmental fault");
    };
    const CampaignResult broken = CampaignEngine(1).run(plan, {}, ctl);
    EXPECT_EQ(broken.quarantined, 1u);
  }

  InjectionJournal journal = InjectionJournal::resume(path, plan);
  EXPECT_EQ(journal.recovered().size(), plan.targets.size());
  RunControl ctl;
  ctl.journal = &journal;  // fault gone: hook not installed this time
  const CampaignResult healed = CampaignEngine(1).run(plan, {}, ctl);
  EXPECT_EQ(healed.resumed_records, plan.targets.size() - 1);
  EXPECT_EQ(healed.quarantined, 0u);
  EXPECT_EQ(healed.records[4].outcome, clean.records[4].outcome);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace kfi::inject
