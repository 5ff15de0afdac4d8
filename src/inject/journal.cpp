#include "inject/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/codec.hpp"
#include "errnoinj/errno_model.hpp"
#include "inject/plan.hpp"

namespace kfi::inject {

namespace {

constexpr u32 kJournalMagic = 0x4B46494A;  // "KFIJ"
constexpr u32 kEntryMagic = 0x4B464945;    // "KFIE"

using codec::Cursor;
using codec::fnv1a;
using codec::put8;
using codec::put32;
using codec::put64;
using codec::put_double;
using codec::put_string;
using codec::write_all;

}  // namespace

void serialize_journal_entry(std::vector<u8>& out, const JournalEntry& e) {
  put32(out, e.index);

  const InjectionTarget& t = e.record.target;
  put8(out, static_cast<u8>(t.kind));
  put32(out, t.code_entry);
  put_string(out, t.function);
  put8(out, static_cast<u8>(t.opclass));
  put_string(out, t.reg_name);
  put_double(out, t.inject_at_frac);
  put32(out, static_cast<u32>(t.sites.size()));
  for (const FaultSite& s : t.sites) {
    put32(out, s.addr);
    put32(out, s.bit);
    put32(out, s.insn_len);
    put32(out, s.task);
    put_double(out, s.depth_frac);
    put32(out, s.reg_index);
    put_double(out, s.at_frac);
  }

  const InjectionRecord& r = e.record;
  put8(out, static_cast<u8>(r.outcome));
  put8(out, r.activated ? 1 : 0);
  put8(out, r.activation_known ? 1 : 0);
  put64(out, r.activation_cycle);
  put64(out, r.latency_base_cycle);
  put8(out, r.crashed ? 1 : 0);
  put8(out, r.crash_report_received ? 1 : 0);
  put8(out, static_cast<u8>(r.crash.cause));
  put32(out, r.crash.pc);
  put32(out, r.crash.addr);
  put8(out, r.crash.has_addr ? 1 : 0);
  put64(out, r.crash.cycles_to_crash);
  put_string(out, r.crash.detail);
  put64(out, r.cycles_to_crash);
  put32(out, r.syscalls_completed);
  put_string(out, r.harness_error);
  put32(out, r.harness_attempts);

  put64(out, e.reboots);
  put64(out, e.datagrams_sent);
  put64(out, e.datagrams_dropped);
  put64(out, e.simulated_cycles);

  const trace::PropagationSummary& p = r.propagation;
  put8(out, r.propagation_valid ? 1 : 0);
  put8(out, p.traced ? 1 : 0);
  put8(out, p.seeded ? 1 : 0);
  put64(out, p.seed_insn);
  put8(out, p.used ? 1 : 0);
  put64(out, p.first_use_insn);
  put64(out, p.first_use_latency);
  put32(out, p.max_depth);
  put32(out, p.tainted_regs_peak);
  put32(out, p.tainted_bytes_peak);
  put64(out, p.tainted_reads);
  put64(out, p.tainted_writes);
  put64(out, p.tainted_branches);
  put64(out, p.pc_tainted_insns);
  put32(out, p.objects_crossed);
  put64(out, p.silent_overwrites);
  put8(out, p.syscall_result_tainted ? 1 : 0);
  put32(out, p.priv_transitions);
  put8(out, p.live_at_end ? 1 : 0);
  put32(out, p.live_regs_at_end);
  put32(out, p.live_bytes_at_end);

  const errnoinj::CascadeSummary& cs = r.cascade;
  put8(out, r.cascade_valid ? 1 : 0);
  put32(out, cs.forced);
  put32(out, cs.first_forced_op);
  put32(out, cs.first_forced_syscall);
  put32(out, cs.natural_ret);
  put32(out, cs.forced_ret);
  put32(out, cs.deviating_ops);
  put32(out, cs.cascade_length);
  put8(out, static_cast<u8>(cs.containment));
  put8(out, cs.checked_at_site ? 1 : 0);
  put8(out, cs.state_deviation ? 1 : 0);
}

std::optional<JournalEntry> deserialize_journal_entry(
    const std::vector<u8>& in, size_t& pos) {
  Cursor c{in, pos};
  JournalEntry e;
  e.index = c.get32();

  InjectionTarget& t = e.record.target;
  const u8 kind = c.get8();
  if (kind > static_cast<u8>(CampaignKind::kErrno)) return std::nullopt;
  t.kind = static_cast<CampaignKind>(kind);
  t.code_entry = c.get32();
  t.function = c.get_string();
  const u8 opclass = c.get8();
  if (opclass >= static_cast<u8>(isa::OpClass::kNumClasses)) {
    return std::nullopt;
  }
  t.opclass = static_cast<isa::OpClass>(opclass);
  t.reg_name = c.get_string();
  t.inject_at_frac = c.get_double();
  const u32 site_count = c.get32();
  // 7 fields, each at least 4 bytes: any count the remaining payload
  // cannot hold is malformed, not a huge allocation.
  if (!c.ok || site_count > (in.size() - c.pos) / 28) return std::nullopt;
  t.sites.reserve(site_count);
  for (u32 i = 0; i < site_count; ++i) {
    FaultSite s;
    s.addr = c.get32();
    s.bit = c.get32();
    s.insn_len = c.get32();
    s.task = c.get32();
    s.depth_frac = c.get_double();
    s.reg_index = c.get32();
    s.at_frac = c.get_double();
    t.sites.push_back(s);
  }

  InjectionRecord& r = e.record;
  const u8 outcome = c.get8();
  if (outcome >= static_cast<u8>(OutcomeCategory::kNumOutcomes)) {
    return std::nullopt;
  }
  r.outcome = static_cast<OutcomeCategory>(outcome);
  r.activated = c.get8() != 0;
  r.activation_known = c.get8() != 0;
  r.activation_cycle = c.get64();
  r.latency_base_cycle = c.get64();
  r.crashed = c.get8() != 0;
  r.crash_report_received = c.get8() != 0;
  const u8 cause = c.get8();
  if (cause >= static_cast<u8>(kernel::CrashCause::kNumCauses)) {
    return std::nullopt;
  }
  r.crash.cause = static_cast<kernel::CrashCause>(cause);
  r.crash.pc = c.get32();
  r.crash.addr = c.get32();
  r.crash.has_addr = c.get8() != 0;
  r.crash.cycles_to_crash = c.get64();
  r.crash.detail = c.get_string();
  r.cycles_to_crash = c.get64();
  r.syscalls_completed = c.get32();
  r.harness_error = c.get_string();
  r.harness_attempts = c.get32();

  e.reboots = c.get64();
  e.datagrams_sent = c.get64();
  e.datagrams_dropped = c.get64();
  e.simulated_cycles = c.get64();

  trace::PropagationSummary& p = r.propagation;
  r.propagation_valid = c.get8() != 0;
  p.traced = c.get8() != 0;
  p.seeded = c.get8() != 0;
  p.seed_insn = c.get64();
  p.used = c.get8() != 0;
  p.first_use_insn = c.get64();
  p.first_use_latency = c.get64();
  p.max_depth = c.get32();
  p.tainted_regs_peak = c.get32();
  p.tainted_bytes_peak = c.get32();
  p.tainted_reads = c.get64();
  p.tainted_writes = c.get64();
  p.tainted_branches = c.get64();
  p.pc_tainted_insns = c.get64();
  p.objects_crossed = c.get32();
  p.silent_overwrites = c.get64();
  p.syscall_result_tainted = c.get8() != 0;
  p.priv_transitions = c.get32();
  p.live_at_end = c.get8() != 0;
  p.live_regs_at_end = c.get32();
  p.live_bytes_at_end = c.get32();

  errnoinj::CascadeSummary& cs = r.cascade;
  r.cascade_valid = c.get8() != 0;
  cs.forced = c.get32();
  cs.first_forced_op = c.get32();
  cs.first_forced_syscall = c.get32();
  cs.natural_ret = c.get32();
  cs.forced_ret = c.get32();
  cs.deviating_ops = c.get32();
  cs.cascade_length = c.get32();
  const u8 containment = c.get8();
  if (containment > static_cast<u8>(errnoinj::CascadeClass::kSilent)) {
    return std::nullopt;
  }
  cs.containment = static_cast<errnoinj::CascadeClass>(containment);
  cs.checked_at_site = c.get8() != 0;
  cs.state_deviation = c.get8() != 0;

  if (!c.ok) return std::nullopt;
  pos = c.pos;
  return e;
}

namespace {

/// fsync the directory holding `path` so a freshly created journal file
/// survives a machine crash, not just a process crash.  Best-effort: some
/// filesystems reject directory fsync, which is not worth failing a
/// campaign over.
void sync_parent_dir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

JournalFileData read_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JournalError("cannot open journal at " + path);
  std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  in.close();

  Cursor c{bytes, 0};
  if (c.get32() != kJournalMagic || !c.ok) {
    throw JournalError("not an injection journal: " + path);
  }
  JournalFileData data;
  data.file_size = bytes.size();
  const u32 version = c.get32();
  if (version != kJournalVersion) {
    throw JournalError("journal version mismatch in " + path + ": " +
                       std::to_string(version) + " (this build reads only " +
                       std::to_string(kJournalVersion) + ")");
  }
  data.plan_fingerprint = c.get64();
  data.fault_model_fingerprint = c.get64();
  data.errno_model_fingerprint = c.get64();
  data.total = c.get32();
  if (!c.ok) throw JournalError("truncated journal header in " + path);

  // Load intact entries; stop at the first torn or malformed frame.
  size_t good_end = c.pos;
  for (;;) {
    Cursor frame{bytes, good_end};
    if (frame.pos == bytes.size()) break;  // clean end
    if (frame.get32() != kEntryMagic || !frame.ok) break;
    const u32 index = frame.get32();
    const u32 len = frame.get32();
    if (!frame.have(len)) break;
    const size_t payload_at = frame.pos;
    frame.pos += len;
    const u64 checksum = frame.get64();
    if (!frame.ok || checksum != fnv1a(bytes.data() + payload_at, len)) break;
    size_t pos = payload_at;
    auto entry = deserialize_journal_entry(bytes, pos);
    if (!entry || pos != payload_at + len || entry->index != index ||
        entry->index >= data.total) {
      break;
    }
    data.entries.push_back(std::move(*entry));
    good_end = frame.pos;
  }
  data.intact_end = good_end;
  return data;
}

void check_journal_plan(const JournalFileData& data, const CampaignPlan& plan,
                        const std::string& path) {
  if (data.plan_fingerprint != plan_fingerprint(plan)) {
    throw JournalError("journal " + path +
                       " was written for a different campaign plan "
                       "(fingerprint mismatch)");
  }
  if (data.fault_model_fingerprint !=
      fault_model_fingerprint(plan.spec.model)) {
    throw JournalError("journal " + path +
                       " was written for a different fault model "
                       "(fingerprint mismatch)");
  }
  if (data.errno_model_fingerprint !=
      errnoinj::errno_model_fingerprint(plan.spec.errno_model)) {
    throw JournalError("journal " + path +
                       " was written for a different errno model "
                       "(fingerprint mismatch)");
  }
  if (data.total != plan.targets.size()) {
    throw JournalError("journal " + path + " expects " +
                       std::to_string(data.total) + " targets, plan has " +
                       std::to_string(plan.targets.size()));
  }
}

std::vector<u8> encode_journal_header(const JournalFileData& header) {
  std::vector<u8> out;
  put32(out, kJournalMagic);
  put32(out, kJournalVersion);
  put64(out, header.plan_fingerprint);
  put64(out, header.fault_model_fingerprint);
  put64(out, header.errno_model_fingerprint);
  put32(out, header.total);
  return out;
}

std::vector<u8> encode_journal_frame(const JournalEntry& entry) {
  std::vector<u8> payload;
  serialize_journal_entry(payload, entry);
  std::vector<u8> frame;
  frame.reserve(payload.size() + 20);
  put32(frame, kEntryMagic);
  put32(frame, entry.index);
  put32(frame, static_cast<u32>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  put64(frame, fnv1a(payload.data(), payload.size()));
  return frame;
}

InjectionJournal::InjectionJournal(std::string path, int fd,
                                   FlushPolicy policy,
                                   std::vector<JournalEntry> recovered)
    : path_(std::move(path)),
      fd_(fd),
      policy_(policy),
      recovered_(std::move(recovered)),
      mutex_(new std::mutex) {}

InjectionJournal::InjectionJournal(InjectionJournal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      policy_(other.policy_),
      recovered_(std::move(other.recovered_)),
      mutex_(std::move(other.mutex_)),
      flushes_(other.flushes_) {
  other.fd_ = -1;
}

InjectionJournal& InjectionJournal::operator=(
    InjectionJournal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    policy_ = other.policy_;
    recovered_ = std::move(other.recovered_);
    mutex_ = std::move(other.mutex_);
    flushes_ = other.flushes_;
    other.fd_ = -1;
  }
  return *this;
}

InjectionJournal::~InjectionJournal() {
  if (fd_ >= 0) ::close(fd_);
}

InjectionJournal InjectionJournal::create(const std::string& path,
                                          const CampaignPlan& plan,
                                          FlushPolicy policy) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) throw JournalError("cannot create journal at " + path);
  JournalFileData fields;
  fields.plan_fingerprint = plan_fingerprint(plan);
  fields.fault_model_fingerprint = fault_model_fingerprint(plan.spec.model);
  fields.errno_model_fingerprint =
      errnoinj::errno_model_fingerprint(plan.spec.errno_model);
  fields.total = static_cast<u32>(plan.targets.size());
  const std::vector<u8> header = encode_journal_header(fields);
  if (!write_all(fd, header.data(), header.size())) {
    ::close(fd);
    throw JournalError("cannot write journal header to " + path);
  }
  if (policy == FlushPolicy::kFsync) {
    ::fsync(fd);
    sync_parent_dir(path);
  }
  return InjectionJournal(path, fd, policy, {});
}

InjectionJournal InjectionJournal::resume(const std::string& path,
                                          const CampaignPlan& plan,
                                          FlushPolicy policy) {
  JournalFileData data = read_journal_file(path);
  check_journal_plan(data, plan, path);
  if (data.intact_end < data.file_size) {
    std::filesystem::resize_file(path, data.intact_end);
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) throw JournalError("cannot reopen journal at " + path);
  return InjectionJournal(path, fd, policy, std::move(data.entries));
}

void InjectionJournal::append(const JournalEntry& entry) {
  const std::vector<u8> frame = encode_journal_frame(entry);

  const std::lock_guard<std::mutex> lock(*mutex_);
  if (fd_ < 0) throw JournalError("cannot append to journal " + path_);
  // One O_APPEND write per frame: concurrent appends never interleave,
  // and a crash mid-write leaves at most one torn frame at the tail,
  // which resume() truncates.
  if (!write_all(fd_, frame.data(), frame.size())) {
    throw JournalError("journal write failed for " + path_);
  }
  if (policy_ == FlushPolicy::kFsync && ::fdatasync(fd_) != 0) {
    throw JournalError("journal fdatasync failed for " + path_);
  }
  ++flushes_;
}

u64 InjectionJournal::flushes() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return flushes_;
}

std::optional<FlushPolicy> parse_flush_policy(const std::string& name) {
  if (name == "fsync") return FlushPolicy::kFsync;
  if (name == "flush") return FlushPolicy::kFlush;
  return std::nullopt;
}

}  // namespace kfi::inject
