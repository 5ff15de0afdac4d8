// Journal splicing property tests: random shard boundaries, run through
// the engine's slice mode into per-shard journals, must splice back into
// the single-process campaign bit-identically (the fabric's determinism
// contract, checked here without any subprocess machinery).
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.hpp"
#include "fabric/splice.hpp"
#include "inject/campaign.hpp"
#include "inject/engine.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {
namespace {

using inject::CampaignEngine;
using inject::CampaignKind;
using inject::CampaignPlan;
using inject::CampaignResult;
using inject::CampaignSpec;
using inject::InjectionJournal;
using inject::JournalError;
using inject::RunControl;

std::string tmp_prefix(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("kfi_splice_" + tag))
      .string();
}

CampaignSpec small_spec(isa::Arch arch, u32 injections = 12) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = CampaignKind::kData;
  spec.injections = injections;
  spec.seed = 77;
  return spec;
}

/// Run `slice` of the plan into a fresh journal at `path`.
void run_slice_into_journal(const CampaignPlan& plan,
                            const std::vector<u32>& slice,
                            const std::string& path, u32 jobs) {
  std::filesystem::remove(path);
  InjectionJournal journal = InjectionJournal::create(path, plan);
  RunControl ctl;
  ctl.journal = &journal;
  ctl.indices = &slice;
  CampaignEngine(jobs).run(plan, {}, ctl);
}

class SpliceParityTest
    : public ::testing::TestWithParam<std::tuple<isa::Arch, u32>> {};

TEST_P(SpliceParityTest, RandomShardBoundariesReproduceTheSerialRun) {
  const auto& [arch, jobs] = GetParam();
  const CampaignPlan plan = build_campaign_plan(small_spec(arch));
  const u32 total = static_cast<u32>(plan.targets.size());
  const CampaignResult serial = CampaignEngine(1).run(plan);
  const u64 want = inject::result_fingerprint(serial);

  Rng rng(0xB0A7 + static_cast<u64>(arch) * 131 + jobs);
  for (u32 trial = 0; trial < 3; ++trial) {
    // Cut [0, total) at 0-3 random interior boundaries: shard layouts
    // the shard_indices() helper would never produce, on purpose — the
    // splice must not depend on the near-equal layout.
    std::vector<u32> cuts = {0, total};
    const u32 n_cuts = static_cast<u32>(rng.next_u64() % 4);
    for (u32 c = 0; c < n_cuts; ++c) {
      cuts.push_back(1 + static_cast<u32>(rng.next_u64() % (total - 1)));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<std::string> paths;
    for (size_t s = 0; s + 1 < cuts.size(); ++s) {
      std::vector<u32> slice;
      for (u32 i = cuts[s]; i < cuts[s + 1]; ++i) slice.push_back(i);
      const std::string path = tmp_prefix(
          std::to_string(static_cast<int>(arch)) + "_" +
          std::to_string(jobs) + "_t" + std::to_string(trial) + "_s" +
          std::to_string(s) + ".kfij");
      run_slice_into_journal(plan, slice, path, jobs);
      paths.push_back(path);
    }

    SpliceStats stats;
    const CampaignResult spliced = splice_journals(plan, paths, &stats);
    EXPECT_EQ(inject::result_fingerprint(spliced), want)
        << "trial " << trial << " with " << paths.size() << " shards";
    EXPECT_EQ(stats.chosen, total);
    EXPECT_EQ(stats.missing, 0u);
    EXPECT_FALSE(spliced.interrupted);
    for (const std::string& path : paths) std::filesystem::remove(path);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndJobs, SpliceParityTest,
    ::testing::Combine(::testing::Values(isa::Arch::kCisca,
                                         isa::Arch::kRiscf),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == isa::Arch::kCisca
                             ? "cisca"
                             : "riscf") +
             "_jobs" + std::to_string(std::get<1>(info.param));
    });

class SpliceRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = build_campaign_plan(small_spec(isa::Arch::kRiscf, 8));
    total_ = static_cast<u32>(plan_.targets.size());
  }
  std::string path(const std::string& tag) {
    const std::string p = tmp_prefix("rules_" + tag + ".kfij");
    cleanup_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const std::string& p : cleanup_) std::filesystem::remove(p);
  }

  CampaignPlan plan_;
  u32 total_ = 0;
  std::vector<std::string> cleanup_;
};

TEST_F(SpliceRulesTest, OverlappingShardsDedupIdenticalEntries) {
  // Two journals that both ran the middle indices: the duplicates are
  // bit-identical (determinism), so the splice drops them silently.
  std::vector<u32> left, right;
  for (u32 i = 0; i < total_; ++i) {
    if (i <= total_ / 2) left.push_back(i);
    if (i >= total_ / 2 - 1) right.push_back(i);
  }
  const std::string a = path("overlap_a"), b = path("overlap_b");
  run_slice_into_journal(plan_, left, a, 1);
  run_slice_into_journal(plan_, right, b, 1);
  SpliceStats stats;
  const CampaignResult spliced = splice_journals(plan_, {a, b}, &stats);
  EXPECT_EQ(inject::result_fingerprint(spliced),
            inject::result_fingerprint(CampaignEngine(1).run(plan_)));
  EXPECT_EQ(stats.duplicates, 2u);
  EXPECT_EQ(spliced.fabric_spliced_duplicates, 2u);
}

TEST_F(SpliceRulesTest, SuccessfulRecordSupersedesQuarantined) {
  std::vector<u32> slice;
  for (u32 i = 0; i < total_; ++i) slice.push_back(i);
  const std::string good = path("good"), bad = path("bad");
  run_slice_into_journal(plan_, slice, good, 1);
  {
    // A journal where every index died as a harness error (retries
    // exhausted): what a repeatedly-crashing worker leaves behind.
    std::filesystem::remove(bad);
    InjectionJournal journal = InjectionJournal::create(bad, plan_);
    RunControl ctl;
    ctl.journal = &journal;
    ctl.indices = &slice;
    ctl.retries = 0;
    ctl.retry_backoff_base = 0.0;
    ctl.harness_fault_hook = [](u32, u32) {
      throw std::runtime_error("hook: induced harness fault");
    };
    CampaignEngine(1).run(plan_, {}, ctl);
  }
  // Quarantined-only journal: every chosen record is a harness error.
  SpliceStats bad_stats;
  const CampaignResult bad_only =
      splice_journals(plan_, {bad}, &bad_stats);
  EXPECT_EQ(bad_stats.quarantined, total_);
  EXPECT_EQ(bad_only.quarantined, total_);
  // Either splice order: the successful record wins every index.
  for (const auto& order :
       {std::vector<std::string>{bad, good}, {good, bad}}) {
    SpliceStats stats;
    const CampaignResult spliced = splice_journals(plan_, order, &stats);
    EXPECT_EQ(inject::result_fingerprint(spliced),
              inject::result_fingerprint(CampaignEngine(1).run(plan_)));
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.duplicates, total_);
  }
}

TEST_F(SpliceRulesTest, MissingShardLeavesAnInterruptedResult) {
  std::vector<u32> half;
  for (u32 i = 0; i < total_ / 2; ++i) half.push_back(i);
  const std::string a = path("partial");
  run_slice_into_journal(plan_, half, a, 1);
  SpliceStats stats;
  const CampaignResult spliced = splice_journals(plan_, {a}, &stats);
  EXPECT_TRUE(spliced.interrupted);
  EXPECT_EQ(stats.missing, total_ - total_ / 2);
  EXPECT_EQ(spliced.executed(), total_ / 2);
}

TEST_F(SpliceRulesTest, ConflictingSuccessfulEntriesAreRefused) {
  // Determinism says two successful records for one index are identical;
  // a disagreement means the shard set mixes campaigns.  Fabricate one.
  const std::string a = path("conflict_a"), b = path("conflict_b");
  for (const auto& [p, cycles] :
       {std::pair<std::string, u64>{a, 100}, {b, 200}}) {
    std::filesystem::remove(p);
    InjectionJournal journal = InjectionJournal::create(p, plan_);
    inject::JournalEntry e;
    e.index = 0;
    e.record.outcome = inject::OutcomeCategory::kNotManifested;
    e.record.cycles_to_crash = cycles;
    journal.append(e);
  }
  EXPECT_THROW(splice_journals(plan_, {a, b}), JournalError);
}

TEST_F(SpliceRulesTest, EntriesDifferingInOneCascadeFieldAreRefused) {
  // Every cascade field enters the result fingerprint, so two errno
  // records for one index that differ in any single one of them are two
  // campaigns, not a duplicate.
  using Cascade = errnoinj::CascadeSummary;
  const std::vector<std::pair<std::string, void (*)(Cascade&)>> fields = {
      {"first_forced_op", [](Cascade& c) { c.first_forced_op = 3; }},
      {"natural_ret", [](Cascade& c) { c.natural_ret = 5; }},
      {"forced_ret", [](Cascade& c) { c.forced_ret = 0xFFFFFFF2u; }},
      {"checked_at_site", [](Cascade& c) { c.checked_at_site = true; }},
      {"state_deviation", [](Cascade& c) { c.state_deviation = true; }},
  };
  for (const auto& [name, change] : fields) {
    SCOPED_TRACE(name);
    const std::string a = path("cascade_a_" + name);
    const std::string b = path("cascade_b_" + name);
    for (const std::string& p : {a, b}) {
      std::filesystem::remove(p);
      InjectionJournal journal = InjectionJournal::create(p, plan_);
      inject::JournalEntry e;
      e.index = 0;
      e.record.outcome = inject::OutcomeCategory::kNotManifested;
      e.record.cascade_valid = true;
      e.record.cascade.forced = 1;
      if (p == b) change(e.record.cascade);
      journal.append(e);
    }
    EXPECT_THROW(splice_journals(plan_, {a, b}), JournalError);
  }
}

TEST_F(SpliceRulesTest, ForeignPlanJournalIsRefused) {
  const std::string a = path("foreign");
  CampaignSpec other = small_spec(isa::Arch::kRiscf, 8);
  other.seed = 78;
  const CampaignPlan other_plan = build_campaign_plan(other);
  std::vector<u32> slice = {0, 1};
  run_slice_into_journal(other_plan, slice, a, 1);
  EXPECT_THROW(splice_journals(plan_, {a}), JournalError);
}

TEST_F(SpliceRulesTest, PlanFreeSpliceWritesAResumableJournal) {
  std::vector<u32> left, right;
  for (u32 i = 0; i < total_; ++i) (i < 3 ? left : right).push_back(i);
  const std::string a = path("merge_a"), b = path("merge_b"),
                    merged = path("merged");
  run_slice_into_journal(plan_, left, a, 1);
  run_slice_into_journal(plan_, right, b, 1);
  const SpliceStats stats = splice_journal_files({a, b}, merged);
  EXPECT_EQ(stats.chosen, total_);
  EXPECT_EQ(stats.missing, 0u);
  // The merged file is a normal journal for the same plan: resuming it
  // recovers every record, so the campaign replays bit-identically.
  InjectionJournal journal = InjectionJournal::resume(merged, plan_);
  ASSERT_EQ(journal.recovered().size(), total_);
  RunControl ctl;
  ctl.journal = &journal;
  const CampaignResult resumed = CampaignEngine(1).run(plan_, {}, ctl);
  EXPECT_EQ(resumed.resumed_records, total_);
  EXPECT_EQ(inject::result_fingerprint(resumed),
            inject::result_fingerprint(CampaignEngine(1).run(plan_)));
}

TEST_F(SpliceRulesTest, PlanFreeSpliceRefusesMixedHeaders) {
  CampaignSpec other = small_spec(isa::Arch::kRiscf, 8);
  other.seed = 78;
  const CampaignPlan other_plan = build_campaign_plan(other);
  const std::string a = path("mixed_a"), b = path("mixed_b"),
                    merged = path("mixed_out");
  std::vector<u32> slice = {0, 1};
  run_slice_into_journal(plan_, slice, a, 1);
  run_slice_into_journal(other_plan, slice, b, 1);
  EXPECT_THROW(splice_journal_files({a, b}, merged), JournalError);
  EXPECT_THROW(splice_journal_files({}, merged), JournalError);
}

}  // namespace
}  // namespace kfi::fabric
