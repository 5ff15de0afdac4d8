// Journal v4 contract for the errno campaign family: cascade blocks
// round-trip bit-exactly, errno targets are a v4-only construct (the v3
// reader rejects the kind byte), and a v4 journal written for a different
// errno model is refused on resume exactly like a foreign fault model.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "errnoinj/errno_model.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"
#include "kernel/abi.hpp"

namespace kfi::inject {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// An errno-campaign entry with a fully populated cascade block.
JournalEntry errno_entry() {
  JournalEntry e;
  e.index = 3;
  e.record.target = InjectionTarget::errno_return(12, kernel::kErrReturn);
  e.record.outcome = OutcomeCategory::kFailSilenceViolation;
  e.record.activated = true;
  e.record.syscalls_completed = 44;
  e.record.cascade_valid = true;
  e.record.cascade.forced = 2;
  e.record.cascade.first_forced_op = 12;
  e.record.cascade.first_forced_syscall =
      static_cast<u32>(kernel::Syscall::kRead);
  e.record.cascade.natural_ret = 2048;
  e.record.cascade.forced_ret = kernel::kErrReturn;
  e.record.cascade.deviating_ops = 5;
  e.record.cascade.cascade_length = 9;
  e.record.cascade.containment = errnoinj::CascadeClass::kPropagated;
  e.record.cascade.checked_at_site = true;
  e.record.cascade.state_deviation = true;
  e.reboots = 1;
  e.simulated_cycles = 1234567;
  return e;
}

TEST(JournalErrnoSerialization, CascadeBlockRoundTripsInV4) {
  const JournalEntry e = errno_entry();
  std::vector<u8> buf;
  serialize_journal_entry(buf, e);
  size_t pos = 0;
  const auto back = deserialize_journal_entry(buf, pos);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(back->record.target.kind, CampaignKind::kErrno);
  ASSERT_EQ(back->record.target.sites.size(), 1u);
  EXPECT_EQ(back->record.target.site().task, 12u);
  EXPECT_EQ(back->record.target.site().bit, kernel::kErrReturn);
  ASSERT_TRUE(back->record.cascade_valid);
  const errnoinj::CascadeSummary& cs = back->record.cascade;
  EXPECT_EQ(cs.forced, 2u);
  EXPECT_EQ(cs.first_forced_op, 12u);
  EXPECT_EQ(cs.first_forced_syscall, static_cast<u32>(kernel::Syscall::kRead));
  EXPECT_EQ(cs.natural_ret, 2048u);
  EXPECT_EQ(cs.forced_ret, kernel::kErrReturn);
  EXPECT_EQ(cs.deviating_ops, 5u);
  EXPECT_EQ(cs.cascade_length, 9u);
  EXPECT_EQ(cs.containment, errnoinj::CascadeClass::kPropagated);
  EXPECT_TRUE(cs.checked_at_site);
  EXPECT_TRUE(cs.state_deviation);
}

TEST(JournalErrnoSerialization, V4AcceptsErrnoKindByte) {
  std::vector<u8> buf;
  serialize_journal_entry(buf, errno_entry());
  size_t pos = 0;
  EXPECT_TRUE(deserialize_journal_entry(buf, pos));
}

TEST(JournalErrnoSerialization, CorruptContainmentRejected) {
  std::vector<u8> buf;
  serialize_journal_entry(buf, errno_entry());
  // The containment byte sits third from the end (before two flag bytes).
  buf[buf.size() - 3] = 0x7F;
  size_t pos = 0;
  EXPECT_FALSE(deserialize_journal_entry(buf, pos));
}

TEST(JournalErrnoSerialization, EveryTruncationReturnsNullopt) {
  std::vector<u8> buf;
  serialize_journal_entry(buf, errno_entry());
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<u8> cut(buf.begin(), buf.begin() + static_cast<long>(len));
    size_t pos = 0;
    EXPECT_FALSE(deserialize_journal_entry(cut, pos).has_value())
        << "prefix length " << len;
  }
}

class ErrnoJournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.arch = isa::Arch::kCisca;
    spec_.kind = CampaignKind::kErrno;
    spec_.injections = 6;
    spec_.seed = 7;
    std::string bad;
    spec_.errno_model.syscalls = *errnoinj::parse_syscall_list("read,write",
                                                               &bad);
    plan_ = build_campaign_plan(spec_);
    path_ = tmp_path(
        "kfi_journal_errno_test_" +
        std::to_string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->line()) +
        ".kfij");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  CampaignSpec spec_;
  CampaignPlan plan_;
  std::string path_;
};

TEST_F(ErrnoJournalFileTest, CreateAppendResumeCarriesCascade) {
  {
    InjectionJournal j = InjectionJournal::create(path_, plan_);
    JournalEntry e = errno_entry();
    e.index = 1;
    j.append(e);
  }
  InjectionJournal j = InjectionJournal::resume(path_, plan_);
  ASSERT_EQ(j.recovered().size(), 1u);
  const InjectionRecord& r = j.recovered()[0].record;
  ASSERT_TRUE(r.cascade_valid);
  EXPECT_EQ(r.cascade.cascade_length, 9u);
  EXPECT_EQ(r.cascade.containment, errnoinj::CascadeClass::kPropagated);
}

TEST_F(ErrnoJournalFileTest, ResumeRejectsForeignErrnoModel) {
  { InjectionJournal::create(path_, plan_); }
  CampaignSpec other = spec_;
  other.errno_model.trigger = errnoinj::ErrnoTrigger::kRate;
  other.errno_model.rate = 2.0;
  other.errno_model.nth = errnoinj::ErrnoModel::kNthDraw;
  const CampaignPlan other_plan = build_campaign_plan(other);
  // The plan fingerprint already differs (it mixes the errno model), so
  // the refusal comes from the first header check either way; assert the
  // typed error, not its exact wording.
  EXPECT_THROW(InjectionJournal::resume(path_, other_plan), JournalError);
}

TEST_F(ErrnoJournalFileTest, ForeignErrnoFingerprintAloneIsRefused) {
  // Fabricate a header whose plan and fault-model fingerprints match but
  // whose errno-model fingerprint does not: the errno check must fire.
  errnoinj::ErrnoModel other = spec_.errno_model;
  other.value = errnoinj::ErrnoValue::kDrawnNegative;
  std::vector<u8> h;
  const auto put32 = [&h](u32 v) {
    h.push_back(static_cast<u8>(v >> 24));
    h.push_back(static_cast<u8>(v >> 16));
    h.push_back(static_cast<u8>(v >> 8));
    h.push_back(static_cast<u8>(v));
  };
  const auto put64 = [&put32](u64 v) {
    put32(static_cast<u32>(v >> 32));
    put32(static_cast<u32>(v));
  };
  put32(0x4B46494A);  // "KFIJ"
  put32(kJournalVersion);
  put64(plan_fingerprint(plan_));
  put64(fault_model_fingerprint(plan_.spec.model));
  put64(errnoinj::errno_model_fingerprint(other));
  put32(static_cast<u32>(plan_.targets.size()));
  {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(h.data()),
            static_cast<long>(h.size()));
  }
  try {
    InjectionJournal::resume(path_, plan_);
    FAIL() << "accepted a journal with a foreign errno-model fingerprint";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("errno model"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace kfi::inject
