// InjectionJournal: append-only on-disk log of completed injections.
//
// The paper's NFTAPE control host survived its own 18,000-injection
// campaigns because collection was restart-safe: every finished experiment
// was durable before the next one started.  This is our equivalent.  Each
// completed InjectionRecord is serialized and made durable as it finishes
// (fdatasync per append under the default FlushPolicy::kFsync),
// together with the per-injection counter deltas (reboots, datagrams,
// simulated cycles) that the campaign merge sums.  A killed campaign can
// then be resumed: the engine skips journaled indices and seeds its merge
// totals from the journaled deltas, so the resumed CampaignResult is
// bit-identical to an uninterrupted run (inject::result_fingerprint is the
// arbiter; the kill/resume parity tests enforce it).
//
// File format (all integers big-endian, matching the datagram idiom):
//   header:  magic "KFIJ" | version u32 | plan_fingerprint u64
//            | fault_model_fingerprint u64 | errno_model_fingerprint u64
//            | total u32
//   entry:   magic "KFIE" | index u32 | payload_len u32 | payload bytes
//            | fnv1a64(payload) u64
// The payload is the serialized JournalEntry body.  A torn tail entry
// (process killed mid-write) fails the length or checksum test; resume
// truncates the file back to the last intact entry and the lost index is
// simply re-executed.
//
// Versioning: this build reads and writes version 4 only, and refuses
// any other version with a JournalError.  An entry carries the target as
// its FaultSite list, the record, the counter deltas, the
// error-propagation block (PropagationSummary) and the cascade block
// (CascadeSummary).  A journal written for a different fault model or
// errno model is refused on resume via the header fingerprints, exactly
// like a foreign plan.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "inject/record.hpp"

namespace kfi::inject {

struct CampaignPlan;

/// The on-disk journal format version, the only one this build reads.
constexpr u32 kJournalVersion = 4;

/// Durability of each append.  kFsync (the default) pushes every frame
/// through fdatasync so a machine crash — not just a process crash —
/// cannot lose an acknowledged injection; kFlush only flushes the
/// userspace buffer to the kernel (the pre-fsync behavior), trading
/// durability for append latency on slow disks.  Either way a torn tail
/// frame is detected and truncated on resume.
enum class FlushPolicy : u8 { kFsync = 0, kFlush = 1 };

/// Typed failure for journal open/resume problems (missing file, foreign
/// campaign fingerprint, malformed header, another format version).
class JournalError : public Error {
 public:
  explicit JournalError(const std::string& what) : Error(what) {}
};

/// One durable unit: a completed record plus the counter deltas its
/// execution contributed to the campaign merge.
struct JournalEntry {
  u32 index = 0;
  InjectionRecord record;
  u64 reboots = 0;
  u64 datagrams_sent = 0;
  u64 datagrams_dropped = 0;
  u64 simulated_cycles = 0;
};

/// Everything read_journal_file() can recover from a journal on disk
/// without a plan in hand: the header fields and every intact entry.
/// The fabric's splice tool consumes this directly (shards are matched
/// by comparing header fingerprints against each other, not against a
/// rebuilt plan); InjectionJournal::resume() layers the plan validation
/// on top.
struct JournalFileData {
  u64 plan_fingerprint = 0;
  u64 fault_model_fingerprint = 0;
  u64 errno_model_fingerprint = 0;
  u32 total = 0;  // plan target count
  std::vector<JournalEntry> entries;
  /// Byte offset one past the last intact frame; anything after it is a
  /// torn tail (process killed mid-write) the caller may truncate away.
  size_t intact_end = 0;
  size_t file_size = 0;
};

/// Parse a journal file: validated header plus every intact entry, torn
/// tail detected but NOT truncated (read-only).  Throws JournalError if
/// the file is missing, the header is malformed, or the file is not a
/// version-4 journal.
JournalFileData read_journal_file(const std::string& path);

/// Throws JournalError unless the journal `data`, read from `path`, was
/// written for `plan`: plan, fault-model and errno-model fingerprints and
/// target count all match.
void check_journal_plan(const JournalFileData& data, const CampaignPlan& plan,
                        const std::string& path);

/// On-disk bytes of a journal header with `header`'s fingerprints and
/// total, and of one framed entry.
std::vector<u8> encode_journal_header(const JournalFileData& header);
std::vector<u8> encode_journal_frame(const JournalEntry& entry);

class InjectionJournal {
 public:
  /// Start a fresh journal at `path` (truncates any existing file) for
  /// the given plan.
  static InjectionJournal create(const std::string& path,
                                 const CampaignPlan& plan,
                                 FlushPolicy policy = FlushPolicy::kFsync);

  /// Open an existing journal for resume: validates the header against
  /// the plan's fingerprint, loads every intact entry, and truncates away
  /// a torn tail so subsequent appends start at a clean boundary.
  /// Throws JournalError if the file is missing, malformed, or was
  /// written for a different plan.
  static InjectionJournal resume(const std::string& path,
                                 const CampaignPlan& plan,
                                 FlushPolicy policy = FlushPolicy::kFsync);

  InjectionJournal(InjectionJournal&& other) noexcept;
  InjectionJournal& operator=(InjectionJournal&& other) noexcept;
  ~InjectionJournal();

  /// Serialize, append, and make one entry durable per the flush policy.
  /// Thread-safe.  Throws JournalError if the filesystem rejects the
  /// write (disk full, etc.).
  void append(const JournalEntry& entry);

  /// Entries recovered by resume() (empty for a created journal).
  const std::vector<JournalEntry>& recovered() const { return recovered_; }

  FlushPolicy flush_policy() const { return policy_; }

  /// Appends flushed to disk by this process.  Thread-safe.
  u64 flushes() const;

  const std::string& path() const { return path_; }

 private:
  InjectionJournal(std::string path, int fd, FlushPolicy policy,
                   std::vector<JournalEntry> recovered);

  std::string path_;
  int fd_ = -1;  // held open for the journal's lifetime (O_APPEND)
  FlushPolicy policy_ = FlushPolicy::kFsync;
  std::vector<JournalEntry> recovered_;
  std::unique_ptr<std::mutex> mutex_;  // heap so the journal stays movable
  u64 flushes_ = 0;
};

/// Parse a flush-policy knob ("fsync" or "flush"); nullopt otherwise.
std::optional<FlushPolicy> parse_flush_policy(const std::string& name);

/// Record (de)serialization, exposed for round-trip tests.  deserialize
/// advances `pos` and returns nullopt (without reading out of bounds) on
/// truncated or malformed input.
void serialize_journal_entry(std::vector<u8>& out, const JournalEntry& entry);
std::optional<JournalEntry> deserialize_journal_entry(
    const std::vector<u8>& in, size_t& pos);

}  // namespace kfi::inject
