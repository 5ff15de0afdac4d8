// Multi-host chaos tests: real kfi_campaignd daemon processes on
// loopback TCP, real SIGKILL.
//
// The remote fabric's claim mirrors the single-host fabric's: daemon
// loss is invisible in the result.  Every injection is journaled on the
// daemon before the next begins, deaths revoke the session and
// re-dispatch the shard (to the same daemon with fresh=false, or to a
// survivor from scratch — splice dedups either way), and the spliced
// result's fingerprint is bit-identical to the serial run.  These tests
// spawn the freshly built daemon (KFI_CAMPAIGND_BIN), pin the same
// legacy fingerprints the CI jobs pin:
//
//   cisca(P4) data n=16 seed=77  -> ab480e702f164e0e
//   riscf(G4) data n=16 seed=77  -> 1dbe290a02436345
//
// and kill -9 a daemon mid-shard, asserting the recovered fingerprint
// still equals the in-process serial run's.
//
// The raw-socket tests drive the KFNM session protocol by hand to pin
// the refusal semantics (skew refused with a typed code before any
// injection, an oversized submit refused from its header), and the
// daemon-side resume path (second submit with fresh=false reports every
// journaled index as resumed).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "fabric/net.hpp"
#include "fabric/remote.hpp"
#include "fabric/shard.hpp"
#include "fabric/wire.hpp"
#include "inject/campaign.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {
namespace {

using inject::CampaignKind;
using inject::CampaignPlan;
using inject::CampaignResult;
using inject::CampaignSpec;

constexpr u64 kPinnedCisca = 0xAB480E702F164E0Eull;
constexpr u64 kPinnedRiscf = 0x1DBE290A02436345ull;

CampaignSpec pinned_spec(isa::Arch arch, u32 n = 16) {
  CampaignSpec spec;
  spec.arch = arch;
  spec.kind = CampaignKind::kData;
  spec.injections = n;
  spec.seed = 77;
  return spec;
}

/// One kfi_campaignd process bound to an ephemeral loopback port, with
/// its own journal directory.  The port is read back via --port-file.
class Daemon {
 public:
  explicit Daemon(const std::string& tag) {
    dir_ = (std::filesystem::temp_directory_path() /
            ("kfi_campaignd_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const std::string port_file = dir_ + "/port";
    pid_ = ::fork();
    if (pid_ == 0) {
      ::execl(KFI_CAMPAIGND_BIN, KFI_CAMPAIGND_BIN, "--port", "0",
              "--port-file", port_file.c_str(), "--dir", dir_.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    // The daemon writes the port file after bind; poll for it.
    for (int i = 0; i < 500 && port_ == 0; ++i) {
      std::ifstream in(port_file);
      int p = 0;
      if (in >> p && p > 0) {
        port_ = static_cast<u16>(p);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  ~Daemon() {
    kill_now();
    std::filesystem::remove_all(dir_);
  }

  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  bool alive() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  u16 port() const { return port_; }
  HostSpec host() const { return HostSpec{"127.0.0.1", port_}; }
  const std::string& dir() const { return dir_; }

 private:
  pid_t pid_ = -1;
  u16 port_ = 0;
  std::string dir_;
};

RemoteOptions base_options(const std::string& tag,
                           const std::vector<const Daemon*>& daemons) {
  RemoteOptions opt;
  for (const Daemon* d : daemons) opt.hosts.push_back(d->host());
  opt.journal_prefix =
      (std::filesystem::temp_directory_path() / ("kfi_remote_" + tag))
          .string();
  opt.lease_seconds = 60.0;  // generous: loaded CI must not false-trip
  opt.heartbeat_seconds = 0.1;
  opt.backoff_base = 0.01;  // fast restarts keep the test quick
  opt.backoff_cap = 0.05;
  return opt;
}

void remove_shards(const RemoteCoordinator& coordinator, u32 total) {
  for (const std::string& p : coordinator.journal_paths(total)) {
    std::filesystem::remove(p);
  }
}

class RemoteLoopbackTest : public ::testing::TestWithParam<isa::Arch> {};

TEST_P(RemoteLoopbackTest, TwoDaemonsReproduceThePinnedFingerprint) {
  const isa::Arch arch = GetParam();
  const CampaignPlan plan = build_campaign_plan(pinned_spec(arch));
  const u32 total = static_cast<u32>(plan.targets.size());

  Daemon d1(std::string("lp1_") + (arch == isa::Arch::kCisca ? "p4" : "g4"));
  Daemon d2(std::string("lp2_") + (arch == isa::Arch::kCisca ? "p4" : "g4"));
  ASSERT_GT(d1.port(), 0);
  ASSERT_GT(d2.port(), 0);

  RemoteOptions opt = base_options(
      std::string("loopback_") + (arch == isa::Arch::kCisca ? "p4" : "g4"),
      {&d1, &d2});
  u32 progress_calls = 0;
  std::vector<RemoteHostProgress> last;
  opt.progress = [&](const std::vector<RemoteHostProgress>& hosts) {
    ++progress_calls;
    EXPECT_EQ(hosts.size(), 2u);
    last = hosts;
  };
  RemoteCoordinator coordinator(opt);
  remove_shards(coordinator, total);

  SpliceStats stats;
  const CampaignResult result = coordinator.run(plan, &stats);

  EXPECT_EQ(inject::result_fingerprint(result),
            arch == isa::Arch::kCisca ? kPinnedCisca : kPinnedRiscf);
  EXPECT_EQ(result.executed(), total);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.fabric_workers, 2u);
  EXPECT_EQ(result.fabric_worker_deaths, 0u);
  EXPECT_EQ(stats.missing, 0u);
  EXPECT_EQ(result.resumed_records, 0u);  // fresh: nothing recovered
  // The supervisor ledger names both endpoints and the live tally flowed.
  ASSERT_EQ(result.fabric_hosts.size(), 2u);
  EXPECT_EQ(result.fabric_hosts[0].host, d1.host().label());
  EXPECT_GE(result.fabric_hosts[0].dispatches, 1u);
  EXPECT_GT(progress_calls, 0u);
  // The final snapshot keeps every finished shard on its host: done,
  // complete, and carrying the shard's final outcome tally.
  ASSERT_EQ(last.size(), 2u);
  for (const RemoteHostProgress& h : last) {
    EXPECT_TRUE(h.done) << h.host;
    EXPECT_FALSE(h.connected) << h.host;
    EXPECT_GT(h.total, 0u) << h.host;
    EXPECT_EQ(h.completed, h.total) << h.host;
    u32 tallied = 0;
    for (const u32 n : h.outcomes) tallied += n;
    EXPECT_EQ(tallied, h.total) << h.host;
  }
  EXPECT_EQ(last[0].shard, 0u);
  EXPECT_EQ(last[1].shard, 1u);
  remove_shards(coordinator, total);
}

// The daemons' DONE frames carry the spin-loop fast-forwards their shard
// runs took: a fresh loopback run of a code sample holding a spin hang
// (riscf index 30 of the seed-1 sample) reports the in-process totals.
TEST(RemoteSpinCounters, FreshRunReportsTheInProcessTotals) {
  CampaignSpec spec = pinned_spec(isa::Arch::kRiscf, 48);
  spec.kind = CampaignKind::kCode;
  spec.seed = 1;
  const CampaignPlan plan = build_campaign_plan(spec);
  const u32 total = static_cast<u32>(plan.targets.size());
  const CampaignResult local = inject::CampaignEngine(1).run(plan);
  ASSERT_GT(local.throughput.spin_skips, 0u);

  Daemon d1("spin1");
  Daemon d2("spin2");
  ASSERT_GT(d1.port(), 0);
  ASSERT_GT(d2.port(), 0);
  RemoteCoordinator coordinator(base_options("spin", {&d1, &d2}));
  remove_shards(coordinator, total);
  const CampaignResult result = coordinator.run(plan);

  EXPECT_EQ(inject::result_fingerprint(result),
            inject::result_fingerprint(local));
  EXPECT_EQ(result.throughput.spin_skips, local.throughput.spin_skips);
  EXPECT_EQ(result.throughput.spin_skipped_cycles,
            local.throughput.spin_skipped_cycles);
  remove_shards(coordinator, total);
}

TEST(RemoteReuse, BackToBackRunsOnTheSameDaemonsSeeNoDeaths) {
  // A finished session releases its (plan, shard) before the journal goes
  // out and its heartbeat stops at once, so rerunning the same plan on the
  // same daemons is accepted first time — no kBusy refusal, no death —
  // even with a heartbeat period far longer than the campaign.
  const CampaignPlan plan =
      build_campaign_plan(pinned_spec(isa::Arch::kCisca));
  const u32 total = static_cast<u32>(plan.targets.size());
  Daemon d1("reuse1");
  Daemon d2("reuse2");
  ASSERT_GT(d1.port(), 0);
  ASSERT_GT(d2.port(), 0);

  RemoteOptions opt = base_options("reuse", {&d1, &d2});
  opt.heartbeat_seconds = 30.0;
  for (int run = 0; run < 2; ++run) {
    RemoteCoordinator coordinator(opt);
    remove_shards(coordinator, total);
    const CampaignResult result = coordinator.run(plan);
    EXPECT_EQ(inject::result_fingerprint(result), kPinnedCisca)
        << "run " << run;
    EXPECT_EQ(result.fabric_worker_deaths, 0u) << "run " << run;
    EXPECT_EQ(result.fabric_redispatches, 0u) << "run " << run;
    EXPECT_EQ(result.resumed_records, 0u) << "run " << run;
    remove_shards(coordinator, total);
  }
  // A resuming rerun (fresh=false) finds every index in the daemons'
  // shard journals: the daemons report all of them as resumed.
  opt.fresh = false;
  RemoteCoordinator coordinator(opt);
  const CampaignResult resumed = coordinator.run(plan);
  EXPECT_EQ(inject::result_fingerprint(resumed), kPinnedCisca);
  EXPECT_EQ(resumed.resumed_records, total);
  remove_shards(coordinator, total);
}

INSTANTIATE_TEST_SUITE_P(BothArches, RemoteLoopbackTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return info.param == isa::Arch::kCisca
                                      ? std::string("cisca")
                                      : std::string("riscf");
                         });

TEST(RemoteChaos, Kill9MidShardRecoversBitIdentically) {
  // Serial ground truth first: the chaos run must splice to exactly this.
  const CampaignSpec spec = pinned_spec(isa::Arch::kCisca, 120);
  const u64 serial_fp =
      inject::result_fingerprint(inject::run_campaign(spec));

  const CampaignPlan plan = build_campaign_plan(spec);
  const u32 total = static_cast<u32>(plan.targets.size());

  Daemon d1("chaos1");
  Daemon d2("chaos2");
  ASSERT_GT(d1.port(), 0);
  ASSERT_GT(d2.port(), 0);

  RemoteOptions opt = base_options("chaos", {&d1, &d2});
  opt.max_restarts = 3;
  opt.min_workers = 1;  // degrade gracefully onto the survivor
  // kill -9 daemon 2 the moment its shard is genuinely mid-flight: some
  // records journaled, more to go.  The coordinator sees the TCP EOF,
  // revokes the session, and re-dispatches shard 1 — reconnects to the
  // corpse fail until the host retires, then the survivor picks it up.
  std::atomic<bool> killed{false};
  opt.progress = [&](const std::vector<RemoteHostProgress>& hosts) {
    if (killed.load()) return;
    for (const RemoteHostProgress& h : hosts) {
      if (h.shard == 1 && h.completed >= 3 && h.completed < h.total) {
        if (!killed.exchange(true)) d2.kill_now();
      }
    }
  };
  RemoteCoordinator coordinator(opt);
  remove_shards(coordinator, total);

  const CampaignResult result = coordinator.run(plan);

  EXPECT_TRUE(killed.load());  // the chaos actually happened
  EXPECT_EQ(inject::result_fingerprint(result), serial_fp);
  EXPECT_EQ(result.executed(), total);
  EXPECT_FALSE(result.interrupted);
  EXPECT_GE(result.fabric_worker_deaths, 1u);
  EXPECT_GE(result.fabric_redispatches, 1u);
  ASSERT_EQ(result.fabric_hosts.size(), 2u);
  EXPECT_GE(result.fabric_hosts[1].deaths, 1u);
  remove_shards(coordinator, total);
}

/// Drive one raw KFNM session by hand: send the submit, then pump
/// messages until `done` says stop.
class RawSession {
 public:
  explicit RawSession(const Daemon& daemon) {
    std::string err;
    fd_ = tcp_connect("127.0.0.1", daemon.port(), 5.0, &err);
    EXPECT_GE(fd_, 0) << err;
  }
  ~RawSession() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool submit(const SubmitRequest& req) {
    return send_message(fd_,
                        NetMessage{MsgType::kSubmit, encode_submit(req)});
  }

  bool send_raw(const std::vector<u8>& bytes) {
    return send_all(fd_, bytes.data(), bytes.size());
  }

  /// Read messages until the predicate consumes a final one or the
  /// daemon closes the connection.
  void pump(const std::function<bool(const NetMessage&)>& done) {
    u8 buf[65536];
    while (true) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return;  // EOF: daemon ended the session
      reader_.feed(buf, static_cast<size_t>(n));
      while (auto msg = reader_.next()) {
        if (done(*msg)) return;
      }
      ASSERT_FALSE(reader_.corrupted());
    }
  }

 private:
  int fd_ = -1;
  MsgReader reader_;
};

SubmitRequest full_submit(const CampaignPlan& plan) {
  SubmitRequest req;
  req.expect_plan_fp = inject::plan_fingerprint(plan);
  req.shard = 0;
  req.shards = 1;
  req.fresh = true;
  req.heartbeat_seconds = 0.1;
  std::vector<u32> all(plan.targets.size());
  for (u32 i = 0; i < all.size(); ++i) all[i] = i;
  req.indices = format_index_ranges(all);
  req.spec = serialize_campaign_spec(plan.spec);
  return req;
}

TEST(RemoteSkew, WrongPlanFingerprintRefusedTyped) {
  Daemon daemon("skew_fp");
  ASSERT_GT(daemon.port(), 0);
  const CampaignPlan plan = build_campaign_plan(pinned_spec(isa::Arch::kCisca));

  RawSession session(daemon);
  SubmitRequest req = full_submit(plan);
  req.expect_plan_fp = 0xDEAD0000DEAD0000ull;  // not what the daemon builds
  ASSERT_TRUE(session.submit(req));

  std::optional<Refusal> refusal;
  session.pump([&](const NetMessage& msg) {
    EXPECT_EQ(msg.type, MsgType::kRefuse);  // never kAccept, never kStatus
    refusal = decode_refusal(msg.body);
    return true;
  });
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->code, RefuseCode::kSkew);
  // The reason names both fingerprints so the skew is diagnosable.
  EXPECT_NE(refusal->reason.find("dead0000dead0000"), std::string::npos)
      << refusal->reason;
  // Refused before any injection: the daemon created no journal.
  size_t journals = 0;
  for (const auto& e : std::filesystem::directory_iterator(daemon.dir())) {
    if (e.path().extension() == ".kfij") ++journals;
  }
  EXPECT_EQ(journals, 0u);
}

TEST(RemoteSkew, ProtocolVersionMismatchRefusedTyped) {
  Daemon daemon("skew_proto");
  ASSERT_GT(daemon.port(), 0);
  const CampaignPlan plan = build_campaign_plan(pinned_spec(isa::Arch::kCisca));

  RawSession session(daemon);
  SubmitRequest req = full_submit(plan);
  req.protocol = kNetProtocolVersion + 1;
  ASSERT_TRUE(session.submit(req));

  std::optional<Refusal> refusal;
  session.pump([&](const NetMessage& msg) {
    EXPECT_EQ(msg.type, MsgType::kRefuse);
    refusal = decode_refusal(msg.body);
    return true;
  });
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->code, RefuseCode::kSkew);
}

TEST(RemoteSkew, MalformedSpecRefusedAsBadRequest) {
  Daemon daemon("skew_spec");
  ASSERT_GT(daemon.port(), 0);
  const CampaignPlan plan = build_campaign_plan(pinned_spec(isa::Arch::kCisca));

  RawSession session(daemon);
  SubmitRequest req = full_submit(plan);
  req.spec = {0xFF, 0xFF};  // not a spec blob
  ASSERT_TRUE(session.submit(req));

  std::optional<Refusal> refusal;
  session.pump([&](const NetMessage& msg) {
    refusal = decode_refusal(msg.body);
    return true;
  });
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->code, RefuseCode::kBadRequest);
}

TEST(RemoteResume, SecondSubmitResumesEveryJournaledIndex) {
  Daemon daemon("resume");
  ASSERT_GT(daemon.port(), 0);
  const CampaignPlan plan = build_campaign_plan(pinned_spec(isa::Arch::kCisca));
  const u32 total = static_cast<u32>(plan.targets.size());

  // Session 1: fresh run of the whole plan as one shard; keep the
  // retrieved journal bytes for the bit-identity check below.
  std::vector<u8> first_journal;
  {
    RawSession session(daemon);
    ASSERT_TRUE(session.submit(full_submit(plan)));
    bool accepted = false;
    session.pump([&](const NetMessage& msg) {
      if (msg.type == MsgType::kAccept) {
        const auto info = decode_accept(msg.body);
        EXPECT_TRUE(info.has_value());
        EXPECT_EQ(info->resumed, 0u);  // fresh: nothing recovered
        accepted = true;
        return false;
      }
      if (msg.type == MsgType::kJournal) {
        first_journal = msg.body;
        return true;
      }
      EXPECT_EQ(msg.type, MsgType::kStatus);
      return false;
    });
    EXPECT_TRUE(accepted);
    ASSERT_FALSE(first_journal.empty());
  }

  // Session 2: same shard, fresh=false — exactly what a coordinator
  // re-dispatch after a lease revocation sends.  The daemon must resume
  // its local journal (all indices recovered), execute nothing new, and
  // stream back byte-identical journal contents.
  {
    RawSession session(daemon);
    SubmitRequest req = full_submit(plan);
    req.fresh = false;
    ASSERT_TRUE(session.submit(req));
    u32 resumed = 0;
    std::vector<u8> second_journal;
    session.pump([&](const NetMessage& msg) {
      if (msg.type == MsgType::kAccept) {
        const auto info = decode_accept(msg.body);
        EXPECT_TRUE(info.has_value());
        resumed = info->resumed;
        return false;
      }
      if (msg.type == MsgType::kJournal) {
        second_journal = msg.body;
        return true;
      }
      return false;
    });
    EXPECT_EQ(resumed, total);
    EXPECT_EQ(second_journal, first_journal);
  }
}

TEST(RemoteBounds, OversizedSubmitRefusedFromItsHeader) {
  Daemon daemon("oversize");
  ASSERT_GT(daemon.port(), 0);

  // A KFNM header announcing a 200 MiB message, and a few bytes of it:
  // the daemon must refuse from the header alone, not buffer toward it.
  {
    RawSession session(daemon);
    const u32 claimed = 200u << 20;
    ASSERT_TRUE(session.send_raw(
        {'K', 'F', 'N', 'M', static_cast<u8>(claimed >> 24),
         static_cast<u8>(claimed >> 16), static_cast<u8>(claimed >> 8),
         static_cast<u8>(claimed), 1, 2, 3}));
    std::optional<Refusal> refusal;
    session.pump([&](const NetMessage& msg) {
      EXPECT_EQ(msg.type, MsgType::kRefuse);
      refusal = decode_refusal(msg.body);
      return true;
    });
    ASSERT_TRUE(refusal.has_value());
    EXPECT_EQ(refusal->code, RefuseCode::kBadRequest);
  }
  size_t journals = 0;
  for (const auto& e : std::filesystem::directory_iterator(daemon.dir())) {
    if (e.path().extension() == ".kfij") ++journals;
  }
  EXPECT_EQ(journals, 0u);

  // The daemon still serves an ordinary campaign afterwards.
  const CampaignPlan plan =
      build_campaign_plan(pinned_spec(isa::Arch::kCisca));
  RemoteCoordinator coordinator(base_options("oversize", {&daemon}));
  remove_shards(coordinator, static_cast<u32>(plan.targets.size()));
  const CampaignResult result = coordinator.run(plan);
  EXPECT_EQ(inject::result_fingerprint(result), kPinnedCisca);
  EXPECT_EQ(result.fabric_worker_deaths, 0u);
  remove_shards(coordinator, static_cast<u32>(plan.targets.size()));
}

}  // namespace
}  // namespace kfi::fabric
