#include "inject/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "inject/experiment.hpp"
#include "inject/journal.hpp"

namespace kfi::inject {

namespace {

/// Everything one worker accumulates; merged after the pool drains.
/// Counters are summed per completed injection (not read off the rig at
/// worker exit) so that rig rebuilds after harness faults, and journal
/// resume, merge bit-identically with an uninterrupted run.
struct WorkerTotals {
  u64 reboots = 0;
  u64 datagrams_sent = 0;
  u64 datagrams_dropped = 0;
  u64 simulated_cycles = 0;
  u64 quarantined = 0;
  u64 stalls = 0;
  u64 harness_retries = 0;
  u64 backoff_waits = 0;
  double backoff_seconds = 0.0;
  kernel::SpinStats spin;  // fast-forwards, summed per completed injection
  u32 private_pages = 0;  // worker machine's resident pages at exit
  std::exception_ptr error;
};

/// One worker's private experiment apparatus.  Rebuilt from scratch (off
/// the shared immutable image) when a harness fault leaves it suspect.
struct WorkerRig {
  kernel::Machine machine;
  std::unique_ptr<workload::Workload> wl;
  UdpChannel channel;
  CrashCollector collector;
  ExperimentRunner runner;
  /// Per-rig shadow-state tracker (RunControl::trace); wiring it through
  /// Machine::set_trace_sink keeps the campaign deterministic — the sink
  /// only observes.
  std::unique_ptr<trace::TaintEngine> taint;
  /// Per-rig errno injector (kErrno campaigns — or, disarmed, the
  /// RunControl::errno_hook_probe parity probe on physical campaigns).
  std::unique_ptr<errnoinj::ErrnoInjector> errno_inj;

  WorkerRig(const CampaignPlan& plan, const kernel::MachineOptions& mopts,
            const kernel::MachineSnapshot& boot_snap, bool trace,
            bool errno_probe)
      : machine(plan.spec.arch, mopts, plan.image, boot_snap),
        wl(workload::make_suite(plan.spec.workload_scale)),
        channel(plan.spec.channel_loss, plan.spec.seed ^ 0xC0FFEE),
        collector(),
        runner(machine, *wl, channel, collector, plan.nominal_cycles,
               plan.budget_cycles, plan.kernel_fraction) {
    runner.set_fault_model(plan.spec.model);
    if (trace) {
      taint = std::make_unique<trace::TaintEngine>();
      // Tainted writes are classified against the kernel image's named
      // data objects to detect subsystem crossings.
      const kir::Image* image = plan.image.get();
      taint->set_object_classifier([image](Addr va) -> i32 {
        const kir::DataObject* obj = image->object_at(va);
        if (obj == nullptr) return -1;
        return static_cast<i32>(obj - image->objects.data());
      });
      machine.set_trace_sink(taint.get());
      runner.set_taint_engine(taint.get());
    }
    if (plan.spec.kind == CampaignKind::kErrno) {
      errno_inj = std::make_unique<errnoinj::ErrnoInjector>(
          plan.spec.errno_model, kernel::syscall_result_slot(plan.spec.arch));
      errno_inj->set_taint_engine(taint.get());
      machine.set_syscall_result_hook(errno_inj.get());
      runner.set_errno_injector(errno_inj.get());
    } else if (errno_probe) {
      // Parity probe: a hook that is installed but never armed must leave
      // every result bit-identical to a hook-free rig (satellite check for
      // the Machine::syscall_result_hook seam).
      errno_inj = std::make_unique<errnoinj::ErrnoInjector>(
          errnoinj::ErrnoModel{}, kernel::syscall_result_slot(plan.spec.arch));
      machine.set_syscall_result_hook(errno_inj.get());
    }
  }
};

/// Shared between one worker and the supervisor's watchdog loop.
struct WorkerState {
  WorkerTotals totals;
  kernel::HarnessInterrupt interrupt;
  /// Wall-clock ns timestamp of the in-flight attempt's start; -1 = idle.
  /// Doubles as the attempt epoch for the watchdog's double-check.
  std::atomic<i64> busy_since_ns{-1};
  std::atomic<u32> busy_index{0};
};

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

u32 CampaignEngine::resolve_jobs(u32 requested) {
  if (requested != 0) return requested;
  const u32 hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

CampaignResult CampaignEngine::run(const CampaignPlan& plan,
                                   const ProgressFn& progress,
                                   const RunControl& ctl) const {
  const auto t0 = std::chrono::steady_clock::now();

  CampaignResult result;
  result.spec = plan.spec;
  result.nominal_cycles = plan.nominal_cycles;
  result.kernel_fraction = plan.kernel_fraction;
  result.hot_functions = plan.hot_functions;

  const u32 total = static_cast<u32>(plan.targets.size());
  result.records.resize(total);
  result.done_mask.assign(total, 0);

  // Optional index slice (the fabric's shard): claims draw from the
  // slice, completion is judged against it, records still land at their
  // plan index so a splice of shard results reassembles the full run.
  const std::vector<u32>* slice = ctl.indices;
  if (slice != nullptr) {
    for (size_t k = 0; k < slice->size(); ++k) {
      KFI_CHECK((*slice)[k] < total, "RunControl::indices out of range");
      KFI_CHECK(k == 0 || (*slice)[k] > (*slice)[k - 1],
                "RunControl::indices must be sorted and unique");
    }
  }
  const u32 count = slice != nullptr ? static_cast<u32>(slice->size()) : total;
  auto slice_at = [slice](u32 k) {
    return slice != nullptr ? (*slice)[k] : k;
  };

  // Pre-merge journaled records: their indices are skipped and their
  // counter deltas seed the merge, making the resumed result
  // bit-identical to an uninterrupted run.  Quarantined entries are
  // deliberately NOT marked done — a resume is the harness's second
  // chance at them.
  u32 resumed = 0;
  if (ctl.journal != nullptr) {
    for (const JournalEntry& e : ctl.journal->recovered()) {
      if (e.index >= total || result.done_mask[e.index]) continue;
      if (e.record.outcome == OutcomeCategory::kHarnessError) continue;
      result.records[e.index] = e.record;
      result.done_mask[e.index] = 1;
      result.reboots += e.reboots;
      result.datagrams_sent += e.datagrams_sent;
      result.datagrams_dropped += e.datagrams_dropped;
      result.throughput.simulated_cycles += e.simulated_cycles;
      ++resumed;
    }
  }
  result.resumed_records = resumed;

  // The work left is judged against the slice (for a full run the slice
  // IS the plan, so this matches the old total - resumed).
  u32 resumed_in_slice = 0;
  for (u32 k = 0; k < count; ++k) {
    if (result.done_mask[slice_at(k)]) ++resumed_in_slice;
  }
  const u32 remaining = count - resumed_in_slice;
  const u32 jobs = remaining == 0
                       ? 1
                       : std::min(resolve_jobs(jobs_), std::max(remaining, 1u));
  std::vector<std::unique_ptr<WorkerState>> states;
  for (u32 w = 0; w < jobs; ++w) {
    states.push_back(std::make_unique<WorkerState>());
    states.back()->interrupt.step_budget = ctl.step_budget;
  }

  std::atomic<u32> next_index{0};
  std::atomic<bool> abort{false};
  std::mutex progress_mutex;
  u32 done_count = resumed_in_slice;

  auto cancelled = [&abort, &ctl] {
    return abort.load(std::memory_order_relaxed) ||
           (ctl.cancel != nullptr &&
            ctl.cancel->load(std::memory_order_relaxed));
  };

  const kernel::MachineOptions mopts = campaign_machine_options(plan.spec);

  // One donor machine runs the boot writes; every worker rig (including
  // rebuilds after harness faults) adopts its boot snapshot instead of
  // re-booting.  With COW on, a fresh worker holds ZERO private pages —
  // all of memory aliases this one shared buffer — so engine residency is
  // ~1 image + per-worker dirty pages, sublinear in the job count.
  // Bit-identity is free: a worker booting itself would produce exactly
  // the donor's state (same arch, options, and image).
  std::unique_ptr<const kernel::MachineSnapshot> boot_snap;
  if (remaining > 0) {
    kernel::Machine donor(plan.spec.arch, mopts, plan.image);
    boot_snap = std::make_unique<const kernel::MachineSnapshot>(
        donor.boot_snapshot());
  }

  // One worker: claims indices dynamically (determinism is per-index, so
  // the assignment is free to load-balance), executes each with retry /
  // quarantine isolation, and journals every completed record before
  // reporting progress.
  auto worker = [&](WorkerState& st, u32 worker_id) {
    try {
      auto make_rig = [&plan, &mopts, &boot_snap, &st, &ctl] {
        auto rig = std::make_unique<WorkerRig>(plan, mopts, *boot_snap,
                                               ctl.trace,
                                               ctl.errno_hook_probe);
        rig->machine.set_harness_interrupt(&st.interrupt);
        return rig;
      };
      auto rig = make_rig();

      // Deterministic retry backoff: the wait sequence depends only on
      // (plan seed, worker id, failure count), never on wall-clock state.
      Rng backoff_rng(plan.spec.seed ^ 0xBACC0FFull ^
                      (0x9E3779B97F4A7C15ull * (worker_id + 1)));
      auto backoff_before_retry = [&st, &ctl, &backoff_rng](u32 attempt) {
        if (ctl.retry_backoff_base <= 0.0) return;
        const double exp =
            ctl.retry_backoff_base *
            static_cast<double>(1ull << std::min<u32>(attempt, 30));
        const double wait = std::min(ctl.retry_backoff_cap, exp) *
                            (0.5 + backoff_rng.next_double());
        ++st.totals.backoff_waits;
        st.totals.backoff_seconds += wait;
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      };

      for (u32 k = next_index.fetch_add(1); k < count;
           k = next_index.fetch_add(1)) {
        const u32 i = slice_at(k);
        if (cancelled()) break;
        if (result.done_mask[i]) continue;  // journaled before this run

        JournalEntry entry;
        entry.index = i;
        const u32 max_attempts = ctl.retries + 1;
        std::string err;
        bool ok = false;
        bool stalled = false;
        u32 attempts = 0;
        kernel::SpinStats spin;

        for (u32 attempt = 0; attempt < max_attempts && !ok && !stalled;
             ++attempt) {
          ++attempts;
          // Publish the heartbeat for this attempt.  Clearing `requested`
          // first means a watchdog decision against a *previous* attempt
          // cannot interrupt this one (the watchdog double-checks
          // busy_since_ns before setting the flag; the residual race is
          // benign — at worst one healthy index is quarantined and the
          // campaign continues).
          st.interrupt.requested.store(false, std::memory_order_relaxed);
          st.busy_index.store(i, std::memory_order_relaxed);
          st.busy_since_ns.store(now_ns(), std::memory_order_release);
          try {
            if (ctl.harness_fault_hook) ctl.harness_fault_hook(i, attempt);
            const u64 reboots0 = rig->runner.reboots();
            const u64 sent0 = rig->channel.sent();
            const u64 dropped0 = rig->channel.dropped();
            const u64 cycles0 = rig->runner.simulated_cycles();
            const kernel::SpinStats spin0 = rig->machine.spin_stats();
            result.records[i] =
                rig->runner.run_one(plan.targets[i], plan.run_seeds[i], i);
            spin.skips = rig->machine.spin_stats().skips - spin0.skips;
            spin.skipped_cycles = rig->machine.spin_stats().skipped_cycles -
                                  spin0.skipped_cycles;
            entry.reboots = rig->runner.reboots() - reboots0;
            entry.datagrams_sent = rig->channel.sent() - sent0;
            entry.datagrams_dropped = rig->channel.dropped() - dropped0;
            entry.simulated_cycles =
                rig->runner.simulated_cycles() - cycles0;
            ok = true;
          } catch (const StallInterrupt& e) {
            // The watchdog (or step budget) pulled the machine out of a
            // livelock.  No retry: the same index would stall again.
            err = e.what();
            stalled = true;
            st.interrupt.requested.store(false, std::memory_order_relaxed);
            rig = make_rig();  // mid-run machine state is unusable
          } catch (const std::exception& e) {
            err = e.what();
            rig = make_rig();  // retry on a freshly built replica
            if (attempt + 1 < max_attempts) {
              ++st.totals.harness_retries;
              backoff_before_retry(attempt);
            }
          } catch (...) {
            err = "unknown harness error";
            rig = make_rig();
            if (attempt + 1 < max_attempts) {
              ++st.totals.harness_retries;
              backoff_before_retry(attempt);
            }
          }
        }
        st.busy_since_ns.store(-1, std::memory_order_release);

        if (ok) {
          st.totals.reboots += entry.reboots;
          st.totals.datagrams_sent += entry.datagrams_sent;
          st.totals.datagrams_dropped += entry.datagrams_dropped;
          st.totals.simulated_cycles += entry.simulated_cycles;
          st.totals.spin.skips += spin.skips;
          st.totals.spin.skipped_cycles += spin.skipped_cycles;
          entry.record = result.records[i];
        } else {
          // Quarantine: a distinct harness-error record (message
          // preserved) that keeps the index visible in the tally without
          // polluting the paper's outcome statistics.
          InjectionRecord rec;
          rec.target = plan.targets[i];
          rec.outcome = OutcomeCategory::kHarnessError;
          rec.harness_error = err.empty() ? "harness error" : err;
          rec.harness_attempts = attempts;
          result.records[i] = rec;
          entry.record = rec;
          ++st.totals.quarantined;
          if (stalled) ++st.totals.stalls;
        }
        result.done_mask[i] = 1;

        if (ctl.journal != nullptr) ctl.journal->append(entry);
        if (progress || ctl.record_observer) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          if (ctl.record_observer) ctl.record_observer(i, entry.record);
          if (progress) progress(++done_count, count);
        }
      }
      st.totals.private_pages = rig->machine.space().phys().private_pages();
    } catch (...) {
      // Fatal for the whole campaign (rig construction, journal I/O, or a
      // throwing progress callback): stop claiming everywhere, drain, and
      // rethrow after the pool joins.  Already-journaled records survive.
      st.totals.error = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
  };

  // Wall-clock watchdog: interrupts any attempt that outlives its budget
  // via the worker machine's HarnessInterrupt.
  std::mutex sup_mutex;
  std::condition_variable sup_cv;
  bool sup_stop = false;
  std::thread supervisor;
  if (ctl.stall_seconds > 0.0) {
    const i64 budget_ns = static_cast<i64>(ctl.stall_seconds * 1e9);
    const auto poll =
        std::chrono::nanoseconds(std::max<i64>(budget_ns / 8, 1'000'000));
    supervisor = std::thread([&states, &sup_mutex, &sup_cv, &sup_stop,
                              budget_ns, poll] {
      std::unique_lock<std::mutex> lock(sup_mutex);
      while (!sup_stop) {
        sup_cv.wait_for(lock, poll);
        if (sup_stop) break;
        const i64 now = now_ns();
        for (const auto& st : states) {
          const i64 since =
              st->busy_since_ns.load(std::memory_order_acquire);
          if (since < 0 || now - since <= budget_ns) continue;
          // Double-check the attempt epoch before interrupting.
          if (st->busy_since_ns.load(std::memory_order_acquire) == since) {
            st->interrupt.requested.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  if (remaining == 0) {
    // Fully resumed: nothing to execute, no rig to boot.
  } else if (jobs <= 1) {
    worker(*states[0], 0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (u32 w = 0; w < jobs; ++w) {
      pool.emplace_back([&worker, &states, w] { worker(*states[w], w); });
    }
    for (auto& t : pool) t.join();
  }

  if (supervisor.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(sup_mutex);
      sup_stop = true;
    }
    sup_cv.notify_all();
    supervisor.join();
  }

  if (ctl.journal != nullptr) result.journal_flushes = ctl.journal->flushes();

  for (const auto& st : states) {
    if (st->totals.error) std::rethrow_exception(st->totals.error);
  }
  for (const auto& st : states) {
    result.reboots += st->totals.reboots;
    result.datagrams_sent += st->totals.datagrams_sent;
    result.datagrams_dropped += st->totals.datagrams_dropped;
    result.throughput.simulated_cycles += st->totals.simulated_cycles;
    result.throughput.spin_skips += st->totals.spin.skips;
    result.throughput.spin_skipped_cycles += st->totals.spin.skipped_cycles;
    result.quarantined += st->totals.quarantined;
    result.stalls += st->totals.stalls;
    result.harness_retries += st->totals.harness_retries;
    result.retry_backoff_waits += st->totals.backoff_waits;
    result.retry_backoff_seconds += st->totals.backoff_seconds;
    result.worker_backoff_waits.push_back(st->totals.backoff_waits);
    result.throughput.worker_private_pages += st->totals.private_pages;
    result.throughput.max_worker_private_pages =
        std::max(result.throughput.max_worker_private_pages,
                 st->totals.private_pages);
  }
  for (u32 k = 0; k < count; ++k) {
    if (!result.done_mask[slice_at(k)]) {
      result.interrupted = true;
      break;
    }
  }

  result.throughput.jobs = jobs;
  result.throughput.plan_seconds = plan.plan_seconds;
  result.throughput.run_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.throughput.wall_seconds =
      result.throughput.plan_seconds + result.throughput.run_seconds;
  return result;
}

}  // namespace kfi::inject
