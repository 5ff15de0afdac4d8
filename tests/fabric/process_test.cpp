// Multi-process chaos tests: real kfi_worker subprocesses, real SIGKILL.
//
// The fabric's whole claim is that worker loss is invisible in the
// result: every shard journal is fsync'd record-by-record, deaths are
// re-dispatched with dedup-by-index, and the spliced result's
// fingerprint is byte-identical to the single-process run.  These tests
// kill -9 workers mid-campaign (via the deterministic chaos knob — the
// worker raises SIGKILL on itself, indistinguishable from an external
// kill) and assert the pinned legacy fingerprints the CI jobs also pin:
//
//   cisca(P4) data n=16 seed=77  -> ab480e702f164e0e
//   riscf(G4) data n=16 seed=77  -> 1dbe290a02436345
//
// KFI_WORKER_BIN is injected by the build so the coordinator spawns the
// freshly built worker, not whatever is on PATH.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>

#include "fabric/coordinator.hpp"
#include "fabric/wire.hpp"
#include "inject/campaign.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {
namespace {

using inject::CampaignKind;
using inject::CampaignPlan;
using inject::CampaignResult;
using inject::CampaignSpec;

constexpr u64 kPinnedCisca = 0xAB480E702F164E0Eull;
constexpr u64 kPinnedRiscf = 0x1DBE290A02436345ull;

CampaignSpec pinned_spec(isa::Arch arch) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = CampaignKind::kData;
  spec.injections = 16;
  spec.seed = 77;
  return spec;
}

FabricOptions base_options(const std::string& tag) {
  FabricOptions opt;
  opt.workers = 3;
  opt.journal_prefix =
      (std::filesystem::temp_directory_path() / ("kfi_fabric_" + tag))
          .string();
  opt.worker_binary = KFI_WORKER_BIN;
  opt.lease_seconds = 60.0;  // generous: loaded CI must not false-trip
  opt.backoff_base = 0.01;   // fast restarts keep the test quick
  opt.backoff_cap = 0.05;
  return opt;
}

void remove_shards(const FabricCoordinator& coordinator, u32 total) {
  for (const std::string& p : coordinator.journal_paths(total)) {
    std::filesystem::remove(p);
  }
}

class FabricChaosTest : public ::testing::TestWithParam<isa::Arch> {};

TEST_P(FabricChaosTest, WorkerKillsLeaveThePinnedFingerprint) {
  const isa::Arch arch = GetParam();
  const CampaignPlan plan = build_campaign_plan(pinned_spec(arch));
  const u32 total = static_cast<u32>(plan.targets.size());

  FabricOptions opt = base_options(
      std::string("chaos_") + (arch == isa::Arch::kCisca ? "p4" : "g4"));
  opt.chaos_kill_after = 2;  // every first-launch worker dies mid-shard
  FabricCoordinator coordinator(opt);
  remove_shards(coordinator, total);

  SpliceStats stats;
  const CampaignResult result = coordinator.run(plan, &stats);

  EXPECT_EQ(inject::result_fingerprint(result),
            arch == isa::Arch::kCisca ? kPinnedCisca : kPinnedRiscf);
  EXPECT_EQ(result.executed(), total);
  EXPECT_FALSE(result.interrupted);
  // The chaos actually happened and the fabric recovered from it.
  EXPECT_GE(result.fabric_worker_deaths, 3u);
  EXPECT_GE(result.fabric_redispatches, 3u);
  EXPECT_GT(result.fabric_backoff_waits, 0u);
  EXPECT_EQ(result.fabric_workers, 3u);
  EXPECT_EQ(stats.missing, 0u);
  // A fresh run resumes nothing, even though every restarted worker
  // picked up the records its killed predecessor journaled.
  EXPECT_EQ(result.resumed_records, 0u);
  remove_shards(coordinator, total);
}

INSTANTIATE_TEST_SUITE_P(BothArches, FabricChaosTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return info.param == isa::Arch::kCisca
                                      ? std::string("cisca")
                                      : std::string("riscf");
                         });

// Spin-loop fast-forwards happen inside the workers, and their DONE
// frames carry the counts back: a fresh fabric run reports the totals the
// in-process run does.  The seed-1 code sample holds a spin hang (riscf
// index 30).
TEST(FabricSpinCounters, FreshRunReportsTheInProcessTotals) {
  CampaignSpec spec;
  spec.arch = isa::Arch::kRiscf;
  spec.kind = CampaignKind::kCode;
  spec.injections = 48;
  spec.seed = 1;
  const CampaignPlan plan = build_campaign_plan(spec);
  const u32 total = static_cast<u32>(plan.targets.size());
  const CampaignResult local = inject::CampaignEngine(1).run(plan);
  ASSERT_GT(local.throughput.spin_skips, 0u);

  FabricOptions opt = base_options("spin");
  opt.workers = 2;
  FabricCoordinator coordinator(opt);
  remove_shards(coordinator, total);
  const CampaignResult result = coordinator.run(plan);

  EXPECT_EQ(inject::result_fingerprint(result),
            inject::result_fingerprint(local));
  EXPECT_EQ(result.throughput.spin_skips, local.throughput.spin_skips);
  EXPECT_EQ(result.throughput.spin_skipped_cycles,
            local.throughput.spin_skipped_cycles);
  remove_shards(coordinator, total);
}

TEST(FabricDegradation, AbortsBelowMinWorkersThenResumesBitIdentically) {
  const CampaignPlan plan =
      build_campaign_plan(pinned_spec(isa::Arch::kCisca));
  const u32 total = static_cast<u32>(plan.targets.size());

  // Phase 1: every slot dies once, no restart budget, floor at 2 live
  // slots — the fabric must degrade past the floor and abort instead of
  // limping on, leaving the shard journals behind.
  FabricOptions opt = base_options("degrade");
  opt.workers = 2;
  opt.min_workers = 2;
  opt.max_restarts = 0;
  opt.chaos_kill_after = 1;
  {
    FabricCoordinator coordinator(opt);
    remove_shards(coordinator, total);
    EXPECT_THROW(coordinator.run(plan), FabricError);
    // The abort is not an erase: at least one shard journal survived
    // with its fsync'd records.
    size_t survivors = 0;
    for (const std::string& p : coordinator.journal_paths(total)) {
      if (std::filesystem::exists(p)) ++survivors;
    }
    EXPECT_GT(survivors, 0u);
  }

  // Phase 2: the same fabric topology, chaos off — exactly what a rerun
  // after a dead (or SIGKILLed) coordinator does.  Shard boundaries are
  // pure functions of (total, shards), so the journals still line up,
  // and the spliced result is the pinned single-process fingerprint.
  opt.max_restarts = 3;
  opt.chaos_kill_after = 0;
  FabricCoordinator coordinator(opt);
  u64 recovered = 0;
  for (const std::string& p : coordinator.journal_paths(total)) {
    if (!std::filesystem::exists(p)) continue;
    for (const inject::JournalEntry& e : inject::read_journal_file(p).entries) {
      recovered += e.record.outcome != inject::OutcomeCategory::kHarnessError;
    }
  }
  ASSERT_GT(recovered, 0u);
  const CampaignResult result = coordinator.run(plan);
  EXPECT_EQ(inject::result_fingerprint(result), kPinnedCisca);
  EXPECT_EQ(result.executed(), total);
  // Exactly the phase-1 records count as resumed, not the whole result.
  EXPECT_EQ(result.resumed_records, recovered);
  remove_shards(coordinator, total);
}

TEST(FabricWorker, ExitsAsSoonAsItsShardIsDoneDespiteALongHeartbeat) {
  // The heartbeat thread waits on a condition variable, so the end of the
  // run wakes it at once: the status pipe reaches EOF right after the
  // kDone frame instead of one heartbeat period (here 30 s) later.
  const CampaignPlan plan =
      build_campaign_plan(pinned_spec(isa::Arch::kRiscf));
  const std::string journal =
      (std::filesystem::temp_directory_path() / "kfi_worker_heartbeat.kfij")
          .string();
  std::filesystem::remove(journal);
  const std::string spec_hex = to_hex(serialize_campaign_spec(plan.spec));
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_CLOEXEC), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::fcntl(fds[1], F_SETFD, 0);
    const std::string status_fd = std::to_string(fds[1]);
    ::execl(KFI_WORKER_BIN, KFI_WORKER_BIN, "--spec", spec_hex.c_str(),
            "--indices", "0-2", "--journal", journal.c_str(), "--status-fd",
            status_fd.c_str(), "--heartbeat", "30",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);

  using Clock = std::chrono::steady_clock;
  FrameReader reader;
  std::optional<Clock::time_point> done_at;
  Clock::time_point eof_at;
  while (true) {
    pollfd pfd{fds[0], POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 60000), 0) << "worker went silent";
    u8 buf[4096];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      eof_at = Clock::now();
      break;
    }
    reader.feed(buf, static_cast<size_t>(n));
    while (auto frame = reader.next()) {
      if (frame->type == FrameType::kDone) done_at = Clock::now();
    }
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  std::filesystem::remove(journal);

  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(done_at.has_value());
  EXPECT_LT(std::chrono::duration<double>(eof_at - *done_at).count(), 5.0);
}

}  // namespace
}  // namespace kfi::fabric
