// InjectionJournal durability contract: entry (de)serialization is a
// bit-exact round trip, resume recovers exactly what was appended,
// torn-tail entries are truncated away, and a journal written for one
// plan refuses to resume under a different one.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "errnoinj/errno_model.hpp"
#include "inject/fault_model.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"

namespace kfi::inject {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A journal entry with every field set to a distinctive non-default
/// value, including doubles and strings, so the round trip has to carry
/// all of them.
JournalEntry full_entry() {
  JournalEntry e;
  e.index = 17;
  e.record.target = InjectionTarget::stack(3, 0.4375, 7, 0.62109375);
  e.record.target.function = "schedule";
  e.record.target.reg_name = "srr0";
  e.record.outcome = OutcomeCategory::kKnownCrash;
  e.record.activated = true;
  e.record.activation_known = false;
  e.record.activation_cycle = 123456789ull;
  e.record.latency_base_cycle = 123456000ull;
  e.record.crashed = true;
  e.record.crash_report_received = true;
  e.record.crash.cause = kernel::CrashCause::kStackOverflow;
  e.record.crash.pc = 0xC0DE;
  e.record.crash.addr = 0xDEAD;
  e.record.crash.has_addr = true;
  e.record.crash.cycles_to_crash = 4242;
  e.record.crash.detail = "sp out of range";
  e.record.cycles_to_crash = 98765;
  e.record.syscalls_completed = 11;
  e.record.harness_error = "worker threw: simulated";
  e.record.harness_attempts = 2;
  e.reboots = 3;
  e.datagrams_sent = 9;
  e.datagrams_dropped = 1;
  e.simulated_cycles = 555555555ull;
  e.record.propagation_valid = true;
  e.record.propagation.traced = true;
  e.record.propagation.seeded = true;
  e.record.propagation.seed_insn = 1000;
  e.record.propagation.used = true;
  e.record.propagation.first_use_insn = 1250;
  e.record.propagation.first_use_latency = 250;
  e.record.propagation.max_depth = 37;
  e.record.propagation.tainted_regs_peak = 4;
  e.record.propagation.tainted_bytes_peak = 96;
  e.record.propagation.tainted_reads = 61;
  e.record.propagation.tainted_writes = 58;
  e.record.propagation.tainted_branches = 12;
  e.record.propagation.pc_tainted_insns = 2;
  e.record.propagation.objects_crossed = 3;
  e.record.propagation.silent_overwrites = 21;
  e.record.propagation.syscall_result_tainted = true;
  e.record.propagation.priv_transitions = 6;
  e.record.propagation.live_at_end = true;
  e.record.propagation.live_regs_at_end = 2;
  e.record.propagation.live_bytes_at_end = 40;
  return e;
}

void expect_entries_equal(const JournalEntry& a, const JournalEntry& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.reboots, b.reboots);
  EXPECT_EQ(a.datagrams_sent, b.datagrams_sent);
  EXPECT_EQ(a.datagrams_dropped, b.datagrams_dropped);
  EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
  const InjectionRecord& ra = a.record;
  const InjectionRecord& rb = b.record;
  EXPECT_EQ(ra.target.kind, rb.target.kind);
  EXPECT_EQ(ra.target.code_entry, rb.target.code_entry);
  EXPECT_EQ(ra.target.function, rb.target.function);
  EXPECT_EQ(ra.target.opclass, rb.target.opclass);
  EXPECT_EQ(ra.target.reg_name, rb.target.reg_name);
  EXPECT_EQ(ra.target.inject_at_frac, rb.target.inject_at_frac);
  ASSERT_EQ(ra.target.sites.size(), rb.target.sites.size());
  for (size_t j = 0; j < ra.target.sites.size(); ++j) {
    EXPECT_EQ(ra.target.sites[j].addr, rb.target.sites[j].addr);
    EXPECT_EQ(ra.target.sites[j].bit, rb.target.sites[j].bit);
    EXPECT_EQ(ra.target.sites[j].insn_len, rb.target.sites[j].insn_len);
    EXPECT_EQ(ra.target.sites[j].task, rb.target.sites[j].task);
    EXPECT_EQ(ra.target.sites[j].depth_frac, rb.target.sites[j].depth_frac);
    EXPECT_EQ(ra.target.sites[j].reg_index, rb.target.sites[j].reg_index);
    EXPECT_EQ(ra.target.sites[j].at_frac, rb.target.sites[j].at_frac);
  }
  EXPECT_EQ(ra.outcome, rb.outcome);
  EXPECT_EQ(ra.activated, rb.activated);
  EXPECT_EQ(ra.activation_known, rb.activation_known);
  EXPECT_EQ(ra.activation_cycle, rb.activation_cycle);
  EXPECT_EQ(ra.latency_base_cycle, rb.latency_base_cycle);
  EXPECT_EQ(ra.crashed, rb.crashed);
  EXPECT_EQ(ra.crash_report_received, rb.crash_report_received);
  EXPECT_EQ(ra.crash.cause, rb.crash.cause);
  EXPECT_EQ(ra.crash.pc, rb.crash.pc);
  EXPECT_EQ(ra.crash.addr, rb.crash.addr);
  EXPECT_EQ(ra.crash.has_addr, rb.crash.has_addr);
  EXPECT_EQ(ra.crash.cycles_to_crash, rb.crash.cycles_to_crash);
  EXPECT_EQ(ra.crash.detail, rb.crash.detail);
  EXPECT_EQ(ra.cycles_to_crash, rb.cycles_to_crash);
  EXPECT_EQ(ra.syscalls_completed, rb.syscalls_completed);
  EXPECT_EQ(ra.harness_error, rb.harness_error);
  EXPECT_EQ(ra.harness_attempts, rb.harness_attempts);
  EXPECT_EQ(ra.propagation_valid, rb.propagation_valid);
  const trace::PropagationSummary& pa = ra.propagation;
  const trace::PropagationSummary& pb = rb.propagation;
  EXPECT_EQ(pa.traced, pb.traced);
  EXPECT_EQ(pa.seeded, pb.seeded);
  EXPECT_EQ(pa.seed_insn, pb.seed_insn);
  EXPECT_EQ(pa.used, pb.used);
  EXPECT_EQ(pa.first_use_insn, pb.first_use_insn);
  EXPECT_EQ(pa.first_use_latency, pb.first_use_latency);
  EXPECT_EQ(pa.max_depth, pb.max_depth);
  EXPECT_EQ(pa.tainted_regs_peak, pb.tainted_regs_peak);
  EXPECT_EQ(pa.tainted_bytes_peak, pb.tainted_bytes_peak);
  EXPECT_EQ(pa.tainted_reads, pb.tainted_reads);
  EXPECT_EQ(pa.tainted_writes, pb.tainted_writes);
  EXPECT_EQ(pa.tainted_branches, pb.tainted_branches);
  EXPECT_EQ(pa.pc_tainted_insns, pb.pc_tainted_insns);
  EXPECT_EQ(pa.objects_crossed, pb.objects_crossed);
  EXPECT_EQ(pa.silent_overwrites, pb.silent_overwrites);
  EXPECT_EQ(pa.syscall_result_tainted, pb.syscall_result_tainted);
  EXPECT_EQ(pa.priv_transitions, pb.priv_transitions);
  EXPECT_EQ(pa.live_at_end, pb.live_at_end);
  EXPECT_EQ(pa.live_regs_at_end, pb.live_regs_at_end);
  EXPECT_EQ(pa.live_bytes_at_end, pb.live_bytes_at_end);
}

TEST(JournalEntrySerialization, RoundTripPreservesEveryField) {
  const JournalEntry e = full_entry();
  std::vector<u8> buf;
  serialize_journal_entry(buf, e);
  size_t pos = 0;
  const auto back = deserialize_journal_entry(buf, pos);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(pos, buf.size());
  expect_entries_equal(e, *back);
}

TEST(JournalEntrySerialization, DefaultEntryRoundTrips) {
  std::vector<u8> buf;
  serialize_journal_entry(buf, JournalEntry{});
  size_t pos = 0;
  const auto back = deserialize_journal_entry(buf, pos);
  ASSERT_TRUE(back.has_value());
  expect_entries_equal(JournalEntry{}, *back);
}

TEST(JournalEntrySerialization, EveryTruncationReturnsNullopt) {
  std::vector<u8> buf;
  serialize_journal_entry(buf, full_entry());
  // Any proper prefix must fail cleanly — no out-of-bounds reads, no
  // partially-filled entries.  (The ASan CI job makes "no OOB" a hard
  // check rather than a hope.)
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<u8> cut(buf.begin(), buf.begin() + static_cast<long>(len));
    size_t pos = 0;
    EXPECT_FALSE(deserialize_journal_entry(cut, pos).has_value())
        << "prefix length " << len;
  }
}

TEST(JournalEntrySerialization, CorruptEnumRejected) {
  std::vector<u8> buf;
  serialize_journal_entry(buf, JournalEntry{});
  // Byte 4 (after the u32 index) is the target kind; stomp it with a
  // value outside the enum range.
  buf[4] = 0xFF;
  size_t pos = 0;
  EXPECT_FALSE(deserialize_journal_entry(buf, pos).has_value());
}

class JournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CampaignSpec spec;
    spec.arch = isa::Arch::kRiscf;
    spec.kind = CampaignKind::kData;
    spec.injections = 8;
    spec.seed = 42;
    plan_ = build_campaign_plan(spec);
    path_ = tmp_path(
        "kfi_journal_test_" +
        std::to_string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->line()) +
        ".kfij");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  CampaignPlan plan_;
  std::string path_;
};

TEST_F(JournalFileTest, CreateAppendResumeRecoversEntries) {
  {
    InjectionJournal j = InjectionJournal::create(path_, plan_);
    EXPECT_TRUE(j.recovered().empty());
    JournalEntry e = full_entry();
    e.index = 2;
    j.append(e);
    e.index = 5;
    e.record.outcome = OutcomeCategory::kNotManifested;
    j.append(e);
    EXPECT_EQ(j.flushes(), 2u);
  }
  InjectionJournal j = InjectionJournal::resume(path_, plan_);
  ASSERT_EQ(j.recovered().size(), 2u);
  EXPECT_EQ(j.recovered()[0].index, 2u);
  EXPECT_EQ(j.recovered()[1].index, 5u);
  EXPECT_EQ(j.recovered()[1].record.outcome, OutcomeCategory::kNotManifested);
  JournalEntry expect_first = full_entry();
  expect_first.index = 2;
  expect_entries_equal(expect_first, j.recovered()[0]);
}

TEST_F(JournalFileTest, ResumeTruncatesTornTail) {
  {
    InjectionJournal j = InjectionJournal::create(path_, plan_);
    JournalEntry e = full_entry();
    e.index = 0;
    j.append(e);
    e.index = 1;
    j.append(e);
  }
  const auto intact_size = std::filesystem::file_size(path_);
  {
    // Simulate a process killed mid-append: half an entry frame.
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f.write("KFIE\x00\x00\x00\x07garbage", 15);
  }
  ASSERT_GT(std::filesystem::file_size(path_), intact_size);
  InjectionJournal j = InjectionJournal::resume(path_, plan_);
  EXPECT_EQ(j.recovered().size(), 2u);
  // The torn tail is physically gone, so the next append starts clean.
  EXPECT_EQ(std::filesystem::file_size(path_), intact_size);
  JournalEntry e = full_entry();
  e.index = 3;
  j.append(e);
  InjectionJournal j2 = InjectionJournal::resume(path_, plan_);
  EXPECT_EQ(j2.recovered().size(), 3u);
}

TEST_F(JournalFileTest, ResumeRejectsForeignPlan) {
  { InjectionJournal::create(path_, plan_); }
  CampaignSpec other;
  other.arch = isa::Arch::kRiscf;
  other.kind = CampaignKind::kData;
  other.injections = 8;
  other.seed = 43;  // different seed -> different targets & fingerprint
  const CampaignPlan other_plan = build_campaign_plan(other);
  EXPECT_THROW(InjectionJournal::resume(path_, other_plan), JournalError);
}

TEST_F(JournalFileTest, ResumeRejectsMissingFile) {
  EXPECT_THROW(InjectionJournal::resume(path_, plan_), JournalError);
}

TEST_F(JournalFileTest, ResumeRejectsGarbageHeader) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "this is not a journal";
  }
  EXPECT_THROW(InjectionJournal::resume(path_, plan_), JournalError);
}

// Big-endian header writer for version tests: lets a test fabricate a
// journal header the current build would never write itself (an old
// pre-v4 file in its own header layout, a hypothetical future version, or
// a v4 header with a foreign fingerprint).
void write_bare_header(const std::string& path, u32 version, u64 fingerprint,
                       u32 total, u64 model_fingerprint = 0,
                       u64 errno_fingerprint = 0) {
  std::vector<u8> h;
  const auto put32 = [&h](u32 v) {
    h.push_back(static_cast<u8>(v >> 24));
    h.push_back(static_cast<u8>(v >> 16));
    h.push_back(static_cast<u8>(v >> 8));
    h.push_back(static_cast<u8>(v));
  };
  put32(0x4B46494A);  // "KFIJ"
  put32(version);
  put32(static_cast<u32>(fingerprint >> 32));
  put32(static_cast<u32>(fingerprint));
  if (version >= 3) {  // v3 added the fault-model fingerprint
    put32(static_cast<u32>(model_fingerprint >> 32));
    put32(static_cast<u32>(model_fingerprint));
  }
  if (version >= 4) {  // v4 added the errno-model fingerprint
    put32(static_cast<u32>(errno_fingerprint >> 32));
    put32(static_cast<u32>(errno_fingerprint));
  }
  put32(total);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(h.data()), static_cast<long>(h.size()));
}

TEST_F(JournalFileTest, CreatedJournalIsCurrentVersion) {
  { InjectionJournal::create(path_, plan_); }
  // Header: magic, then the big-endian version word.
  std::ifstream f(path_, std::ios::binary);
  u8 head[8] = {};
  f.read(reinterpret_cast<char*>(head), sizeof(head));
  ASSERT_TRUE(f);
  const u32 version = (u32{head[4]} << 24) | (u32{head[5]} << 16) |
                      (u32{head[6]} << 8) | u32{head[7]};
  EXPECT_EQ(version, kJournalVersion);
}

TEST_F(JournalFileTest, CurrentJournalPersistsPropagationSummaries) {
  {
    InjectionJournal j = InjectionJournal::create(path_, plan_);
    JournalEntry e = full_entry();
    e.index = 1;
    j.append(e);
  }
  InjectionJournal j = InjectionJournal::resume(path_, plan_);
  ASSERT_EQ(j.recovered().size(), 1u);
  EXPECT_TRUE(j.recovered()[0].record.propagation_valid);
  EXPECT_EQ(j.recovered()[0].record.propagation.max_depth, 37u);
  EXPECT_EQ(j.recovered()[0].record.propagation.first_use_latency, 250u);
}

TEST_F(JournalFileTest, PreV4JournalsAreRefused) {
  // Journals from builds before the current format (v1: no propagation
  // block, v2: no fault-model fingerprint, v3: no errno fingerprint or
  // cascade block), each in its own header layout, are refused with a
  // typed error by the reader and by resume.
  for (const u32 old : {1u, 2u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(old));
    write_bare_header(path_, old, plan_fingerprint(plan_),
                      static_cast<u32>(plan_.targets.size()),
                      fault_model_fingerprint(plan_.spec.model));
    EXPECT_THROW(read_journal_file(path_), JournalError);
    try {
      InjectionJournal::resume(path_, plan_);
      FAIL() << "resumed a version " << old << " journal";
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(JournalFileTest, ResumeRejectsUnknownVersions) {
  for (const u32 bad : {0u, 99u}) {
    write_bare_header(path_, bad, plan_fingerprint(plan_),
                      static_cast<u32>(plan_.targets.size()));
    try {
      InjectionJournal::resume(path_, plan_);
      FAIL() << "accepted journal version " << bad;
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(JournalFileTest, PlanFingerprintSensitiveToTargetsAndSeeds) {
  const u64 base = plan_fingerprint(plan_);
  CampaignPlan tweaked = plan_;
  tweaked.run_seeds[0] ^= 1;
  EXPECT_NE(base, plan_fingerprint(tweaked));
  CampaignPlan retargeted = plan_;
  retargeted.targets[0].site().bit ^= 1;
  EXPECT_NE(base, plan_fingerprint(retargeted));
  EXPECT_EQ(base, plan_fingerprint(plan_));
}


TEST_F(JournalFileTest, MultiSiteTargetRoundTripsInV3) {
  JournalEntry e = full_entry();
  e.record.target = InjectionTarget::data(0xBEEF0, 31);
  e.record.target.sites.push_back(FaultSite{0xBEEF0, 30, 1, 0, 0.0, 0, 0.0});
  e.record.target.sites.push_back(FaultSite{0xBEEF4, 3, 1, 0, 0.0, 0, 0.25});
  std::vector<u8> buf;
  serialize_journal_entry(buf, e);
  size_t pos = 0;
  const auto back = deserialize_journal_entry(buf, pos);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(pos, buf.size());
  expect_entries_equal(e, *back);
}

TEST_F(JournalFileTest, V3ResumeRejectsForeignFaultModel) {
  // Same plan fingerprint, different fault-model fingerprint (the header
  // field v3 introduced): the resume must refuse with a
  // fault-model-specific error.
  FaultModel other;
  other.shape = FaultShape::kMultiBit;
  other.bits = 4;
  write_bare_header(path_, kJournalVersion, plan_fingerprint(plan_),
                    static_cast<u32>(plan_.targets.size()),
                    fault_model_fingerprint(other),
                    errnoinj::errno_model_fingerprint(plan_.spec.errno_model));
  try {
    InjectionJournal::resume(path_, plan_);
    FAIL() << "accepted a journal with a foreign fault-model fingerprint";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("fault model"), std::string::npos)
        << e.what();
  }
}

TEST_F(JournalFileTest, V3ResumeAcceptsMatchingFaultModel) {
  { InjectionJournal::create(path_, plan_); }
  const InjectionJournal j = InjectionJournal::resume(path_, plan_);
  EXPECT_TRUE(j.recovered().empty());
}

TEST(FlushPolicyParse, KnownAndUnknownValues) {
  EXPECT_EQ(parse_flush_policy("fsync"), FlushPolicy::kFsync);
  EXPECT_EQ(parse_flush_policy("flush"), FlushPolicy::kFlush);
  EXPECT_FALSE(parse_flush_policy("buffered").has_value());
  EXPECT_FALSE(parse_flush_policy("").has_value());
}

TEST_F(JournalFileTest, FlushPolicyKnobKeepsTheJournalReadable) {
  {
    InjectionJournal j =
        InjectionJournal::create(path_, plan_, FlushPolicy::kFlush);
    EXPECT_EQ(j.flush_policy(), FlushPolicy::kFlush);
    JournalEntry e = full_entry();
    e.index = 1;
    j.append(e);
  }
  InjectionJournal j =
      InjectionJournal::resume(path_, plan_, FlushPolicy::kFlush);
  EXPECT_EQ(j.flush_policy(), FlushPolicy::kFlush);
  ASSERT_EQ(j.recovered().size(), 1u);
  expect_entries_equal([] {
    JournalEntry e = full_entry();
    e.index = 1;
    return e;
  }(), j.recovered()[0]);
}

TEST_F(JournalFileTest, ResumeRecoversFromTruncationAtEveryByte) {
  // The crash-durability contract: a journal cut anywhere — mid-header,
  // mid-frame, between frames — resumes with exactly the frames that
  // were fully on disk, and the torn tail is physically truncated so the
  // next append starts clean.  This simulates SIGKILL / power loss at
  // every possible write boundary.
  std::vector<size_t> boundaries;  // file size after header, after each frame
  {
    InjectionJournal j = InjectionJournal::create(path_, plan_);
    boundaries.push_back(std::filesystem::file_size(path_));
    for (u32 i = 0; i < 3; ++i) {
      JournalEntry e = full_entry();
      e.index = i;
      j.append(e);
      boundaries.push_back(std::filesystem::file_size(path_));
    }
  }
  std::vector<char> bytes(boundaries.back());
  {
    std::ifstream f(path_, std::ios::binary);
    f.read(bytes.data(), static_cast<long>(bytes.size()));
    ASSERT_TRUE(f.good());
  }
  const std::string cut_path = path_ + ".cut";
  for (size_t len = 0; len <= bytes.size(); ++len) {
    {
      std::ofstream f(cut_path, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<long>(len));
    }
    if (len < boundaries.front()) {
      // Not even a whole header survived: the journal is unusable and
      // must say so, not misread garbage.
      EXPECT_THROW(InjectionJournal::resume(cut_path, plan_), JournalError)
          << "cut at byte " << len;
      continue;
    }
    size_t intact = 0;
    while (intact + 1 < boundaries.size() && boundaries[intact + 1] <= len) {
      ++intact;
    }
    InjectionJournal j = InjectionJournal::resume(cut_path, plan_);
    ASSERT_EQ(j.recovered().size(), intact) << "cut at byte " << len;
    for (size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(j.recovered()[i].index, i);
    }
    EXPECT_EQ(std::filesystem::file_size(cut_path), boundaries[intact])
        << "torn tail not truncated at byte " << len;
    // The truncated journal accepts new appends and stays readable.
    JournalEntry e = full_entry();
    e.index = 7;
    j.append(e);
    InjectionJournal j2 = InjectionJournal::resume(cut_path, plan_);
    EXPECT_EQ(j2.recovered().size(), intact + 1) << "cut at byte " << len;
  }
  std::filesystem::remove(cut_path);
}

TEST_F(JournalFileTest, ReadJournalFileReportsIntactPrefixWithoutTruncating) {
  {
    InjectionJournal j = InjectionJournal::create(path_, plan_);
    JournalEntry e = full_entry();
    e.index = 0;
    j.append(e);
  }
  const auto intact_size = std::filesystem::file_size(path_);
  {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f.write("KFIE\x00\x00\x00\x01garbage", 15);
  }
  const JournalFileData data = read_journal_file(path_);
  EXPECT_EQ(data.plan_fingerprint, plan_fingerprint(plan_));
  EXPECT_EQ(data.total, plan_.targets.size());
  ASSERT_EQ(data.entries.size(), 1u);
  EXPECT_EQ(data.intact_end, intact_size);
  EXPECT_GT(data.file_size, data.intact_end);
  // Unlike resume, the read-only path must leave the file untouched.
  EXPECT_GT(std::filesystem::file_size(path_), intact_size);
}

}  // namespace
}  // namespace kfi::inject
