#include "fabric/runner.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "fabric/shard.hpp"
#include "inject/engine.hpp"

namespace kfi::fabric {

namespace {

/// Calls `beat` every `period` seconds on a helper thread until stopped.
/// The thread waits on a condition variable, so stop() wakes it at once
/// instead of letting the run's end wait out a whole period.
class Heartbeat {
 public:
  Heartbeat(double period, std::function<void()> beat) {
    if (period <= 0.0) return;
    thread_ = std::thread([this, period, beat = std::move(beat)]() {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!wake_.wait_for(lock, std::chrono::duration<double>(period),
                             [this]() { return stop_; })) {
        lock.unlock();
        beat();
        lock.lock();
      }
    });
  }
  ~Heartbeat() { stop(); }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::optional<Refusal> load_shard(const SubmitRequest& req, bool pin_plan_fp,
                                  Shard* out) {
  auto refuse = [](RefuseCode code, std::string reason) {
    return std::optional<Refusal>(Refusal{code, std::move(reason)});
  };
  if (req.protocol != kNetProtocolVersion) {
    return refuse(RefuseCode::kSkew,
                  "protocol version " + std::to_string(req.protocol) +
                      " != " + std::to_string(kNetProtocolVersion));
  }
  const auto spec = deserialize_campaign_spec(req.spec);
  if (!spec) return refuse(RefuseCode::kBadRequest, "spec blob does not decode");
  auto indices = parse_index_ranges(req.indices);
  if (!indices || indices->empty()) {
    return refuse(RefuseCode::kBadRequest,
                  "bad index ranges '" + req.indices + "'");
  }
  // Plan building is deterministic, so the fingerprint check catches any
  // skew between the coordinator's binary and this one before the first
  // injection.
  out->plan = inject::build_campaign_plan(*spec);
  out->plan_fp = inject::plan_fingerprint(out->plan);
  if (pin_plan_fp && out->plan_fp != req.expect_plan_fp) {
    return refuse(RefuseCode::kSkew,
                  "plan fingerprint skew: coordinator expects " +
                      fingerprint_hex(req.expect_plan_fp) + ", rebuilt " +
                      fingerprint_hex(out->plan_fp) + " (binaries disagree)");
  }
  const auto outside = std::lower_bound(indices->begin(), indices->end(),
                                        out->plan.targets.size());
  if (outside != indices->end()) {
    return refuse(RefuseCode::kBadRequest,
                  "index " + std::to_string(*outside) +
                      " out of range (plan has " +
                      std::to_string(out->plan.targets.size()) +
                      " targets)");
  }
  out->indices = std::move(*indices);
  return std::nullopt;
}

inject::InjectionJournal open_shard_journal(const SubmitRequest& req,
                                            const Shard& shard,
                                            const std::string& path) {
  const inject::FlushPolicy flush =
      req.flush == static_cast<u8>(inject::FlushPolicy::kFlush)
          ? inject::FlushPolicy::kFlush
          : inject::FlushPolicy::kFsync;
  if (req.fresh) std::remove(path.c_str());
  try {
    return inject::InjectionJournal::resume(path, shard.plan, flush);
  } catch (const inject::JournalError&) {
    return inject::InjectionJournal::create(path, shard.plan, flush);
  }
}

bool run_shard(const SubmitRequest& req, const Shard& shard,
               inject::InjectionJournal& journal, const FrameSink& sink,
               u32 chaos_kill_after) {
  StatusFrame base;
  base.plan_fingerprint = shard.plan_fp;
  base.shard = req.shard;
  base.pid = static_cast<u32>(::getpid());
  base.total = static_cast<u32>(shard.indices.size());

  // Live outcome tally over the slice (resumed + executed), carried on
  // every frame.  Atomics because the heartbeat thread reads while the
  // engine's record observer writes.
  std::array<std::atomic<u32>, kFrameOutcomeSlots> outcomes{};
  auto count = [&outcomes](inject::OutcomeCategory outcome) {
    const auto slot = static_cast<size_t>(outcome);
    if (slot < outcomes.size()) {
      outcomes[slot].fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::atomic<u32> done_count{0};
  for (const inject::JournalEntry& e : journal.recovered()) {
    count(e.record.outcome);
    if (std::binary_search(shard.indices.begin(), shard.indices.end(),
                           e.index)) {
      done_count.fetch_add(1, std::memory_order_relaxed);
    }
  }

  auto frame = [&](FrameType type, u32 done) {
    StatusFrame f = base;
    f.type = type;
    f.done = done;
    for (size_t i = 0; i < f.outcomes.size(); ++i) {
      f.outcomes[i] = outcomes[i].load(std::memory_order_relaxed);
    }
    return f;
  };
  std::mutex sink_mutex;
  std::atomic<bool> cancel{false};
  auto send = [&](const StatusFrame& f) {
    const std::lock_guard<std::mutex> lock(sink_mutex);
    if (!cancel.load() && !sink(f)) cancel.store(true);
  };

  send(frame(FrameType::kHello, 0));
  // Heartbeats keep the coordinator's lease alive through long injections
  // (progress frames only flow at completion boundaries).
  Heartbeat heartbeat(req.heartbeat_seconds, [&]() {
    send(frame(FrameType::kHeartbeat, done_count.load()));
  });

  inject::RunControl control;
  control.journal = &journal;
  control.indices = &shard.indices;
  control.retries = req.retries;
  control.stall_seconds = req.stall_seconds;
  control.cancel = &cancel;
  control.record_observer = [&](u32, const inject::InjectionRecord& record) {
    count(record.outcome);
  };
  u32 completions = 0;
  const inject::CampaignResult result = inject::CampaignEngine(req.jobs).run(
      shard.plan,
      [&](u32 done, u32 total) {
        done_count.store(done);
        // Chaos: die loudly after N completions in THIS process, with
        // everything so far already durable in the shard journal.
        if (chaos_kill_after > 0 && ++completions >= chaos_kill_after &&
            done < total) {
          ::raise(SIGKILL);
        }
        send(frame(FrameType::kProgress, done));
      },
      control);
  heartbeat.stop();
  if (result.interrupted || cancel.load()) return false;

  StatusFrame f = frame(FrameType::kDone, base.total);
  f.executed = result.journal_flushes;
  f.quarantined = result.quarantined;
  f.stalls = result.stalls;
  f.harness_retries = result.harness_retries;
  f.backoff_waits = result.retry_backoff_waits;
  f.backoff_seconds = result.retry_backoff_seconds;
  f.spin_skips = result.throughput.spin_skips;
  f.spin_skipped_cycles = result.throughput.spin_skipped_cycles;
  send(f);
  return !cancel.load();
}

}  // namespace kfi::fabric
