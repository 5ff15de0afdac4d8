#include "fabric/splice.hpp"

#include <fstream>
#include <optional>

#include "inject/campaign.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {

namespace {

/// FNV over every field of an entry that enters the result fingerprint
/// or the campaign merge.  Two entries for the same index must agree on
/// this digest (determinism guarantees records depend only on
/// (plan, index)); observational blocks (propagation) are deliberately
/// excluded so a traced and an untraced worker's records still splice.
u64 entry_core_digest(const inject::JournalEntry& e) {
  inject::Fnv64 fnv;
  fnv.mix(e.index);
  inject::mix_record(fnv, e.record);
  fnv.mix(e.reboots);
  fnv.mix(e.datagrams_sent);
  fnv.mix(e.datagrams_dropped);
  fnv.mix(e.simulated_cycles);
  return fnv.h;
}

bool is_quarantined(const inject::JournalEntry& e) {
  return e.record.outcome == inject::OutcomeCategory::kHarnessError;
}

/// Shared dedup core: fold `entries` into the per-index choice table.
void choose_entries(std::vector<std::optional<inject::JournalEntry>>& chosen,
                    std::vector<inject::JournalEntry>&& entries,
                    const std::string& path, SpliceStats& stats) {
  for (inject::JournalEntry& e : entries) {
    ++stats.entries;
    std::optional<inject::JournalEntry>& slot = chosen[e.index];
    if (!slot.has_value()) {
      slot = std::move(e);
      continue;
    }
    ++stats.duplicates;
    if (is_quarantined(*slot) && !is_quarantined(e)) {
      slot = std::move(e);  // a real record supersedes a harness error
      continue;
    }
    if (!is_quarantined(*slot) && !is_quarantined(e) &&
        entry_core_digest(*slot) != entry_core_digest(e)) {
      throw inject::JournalError(
          "shard journals disagree at index " + std::to_string(e.index) +
          " (" + path + "): the shard set mixes campaigns");
    }
  }
}

}  // namespace

inject::CampaignResult splice_journals(const inject::CampaignPlan& plan,
                                       const std::vector<std::string>& paths,
                                       SpliceStats* stats_out) {
  SpliceStats stats;
  const u32 total = static_cast<u32>(plan.targets.size());
  std::vector<std::optional<inject::JournalEntry>> chosen(total);

  for (const std::string& path : paths) {
    inject::JournalFileData data = inject::read_journal_file(path);
    inject::check_journal_plan(data, plan, path);
    ++stats.files;
    choose_entries(chosen, std::move(data.entries), path, stats);
  }

  inject::CampaignResult result;
  result.spec = plan.spec;
  result.nominal_cycles = plan.nominal_cycles;
  result.kernel_fraction = plan.kernel_fraction;
  result.hot_functions = plan.hot_functions;
  result.records.resize(total);
  result.done_mask.assign(total, 0);
  for (u32 i = 0; i < total; ++i) {
    if (!chosen[i].has_value()) {
      ++stats.missing;
      result.interrupted = true;
      continue;
    }
    const inject::JournalEntry& e = *chosen[i];
    result.records[i] = e.record;
    result.done_mask[i] = 1;
    result.reboots += e.reboots;
    result.datagrams_sent += e.datagrams_sent;
    result.datagrams_dropped += e.datagrams_dropped;
    result.throughput.simulated_cycles += e.simulated_cycles;
    ++stats.chosen;
    if (is_quarantined(e)) {
      ++stats.quarantined;
      ++result.quarantined;
    }
  }
  result.fabric_spliced_duplicates = stats.duplicates;
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

SpliceStats splice_journal_files(const std::vector<std::string>& paths,
                                 const std::string& out_path) {
  if (paths.empty()) {
    throw inject::JournalError("splice needs at least one shard journal");
  }
  SpliceStats stats;
  std::optional<inject::JournalFileData> first;
  std::vector<std::optional<inject::JournalEntry>> chosen;
  for (const std::string& path : paths) {
    inject::JournalFileData data = inject::read_journal_file(path);
    if (!first.has_value()) {
      first = data;
      chosen.resize(data.total);
    } else {
      if (data.plan_fingerprint != first->plan_fingerprint ||
          data.fault_model_fingerprint != first->fault_model_fingerprint ||
          data.errno_model_fingerprint != first->errno_model_fingerprint ||
          data.total != first->total) {
        throw inject::JournalError(
            "shard journal " + path +
            " does not match the first shard's header (fingerprint "
            "mismatch): the shard set mixes campaigns");
      }
    }
    ++stats.files;
    choose_entries(chosen, std::move(data.entries), path, stats);
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw inject::JournalError("cannot create spliced journal at " +
                               out_path);
  }
  const std::vector<u8> header = inject::encode_journal_header(*first);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<long>(header.size()));
  for (u32 i = 0; i < first->total; ++i) {
    if (!chosen[i].has_value()) {
      ++stats.missing;
      continue;
    }
    ++stats.chosen;
    if (is_quarantined(*chosen[i])) ++stats.quarantined;
    const std::vector<u8> frame = inject::encode_journal_frame(*chosen[i]);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<long>(frame.size()));
  }
  out.flush();
  if (!out) {
    throw inject::JournalError("write failed for spliced journal " +
                               out_path);
  }
  return stats;
}

}  // namespace kfi::fabric
