// End-to-end run: set up the workload's plans, execute each of them,
// check every output outside the timed regions, print the four end-to-end
// metrics.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "common/rng.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/remote.hpp"
#include "inject/campaign.hpp"
#include "inject/engine.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Plans are built this many times (twice per CPU on a 4-core host);
/// setup_s is the median of the sums.
constexpr int kSetupReps = 8;
/// In-process engine runs move to the next allowed CPU after this many
/// injections (a few tenths of a second).
constexpr u32 kRotateEvery = 12;
/// Indices per plan re-executed on a fresh rig (in-process workloads).
constexpr u32 kReexecSample = 3;

double peak_rss_mib(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Single-threaded measurements run on each allowed CPU in turn: on a
/// shared host one core can stay slow for tens of seconds, and a run left
/// on it would report that core rather than the host.  Restores the
/// original affinity when released or destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    ::sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread to the k-th allowed CPU (mod their count).
  void pin(u32 k) {
    if (cpus_.size() < 2) return;
    const int cpu = cpus_[k % cpus_.size()];
    if (cpu == pinned_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
    pinned_ = cpu;
  }
  void release() {
    if (pinned_ >= 0) ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
    pinned_ = -1;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  int pinned_ = -1;  // CPU the thread is pinned to, or -1
};

/// One run of one plan, in-process or through a coordinator.
struct PlanRun {
  inject::CampaignResult result;
  u64 fingerprint = 0;
};

class Checker {
 public:
  void fail(const std::string& what) {
    if (failures_ < 10) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                                     what.c_str());
    ++failures_;
  }
  u64 failures() const { return failures_; }

  /// Coverage, supervisor cleanliness and the Table 2 rules over one
  /// campaign result whose first `n` indices ran.
  void check_result(const inject::CampaignPlan& plan,
                    const inject::CampaignResult& res, u32 n,
                    const std::string& label) {
    if (res.records.size() != plan.targets.size() || res.executed() != n ||
        res.interrupted) {
      fail(label + ": not every index is done");
      return;
    }
    for (u32 i = 0; i < n; ++i) {
      if (res.done_mask[i] == 0) {
        fail(label + ": index " + std::to_string(i) + " is missing");
        return;
      }
    }
    if (res.quarantined != 0 || res.stalls != 0) {
      fail(label + ": quarantined or stalled records");
    }
    u64 crashed = 0, known = 0;
    for (u32 i = 0; i < n; ++i) {
      const inject::InjectionRecord& r = res.records[i];
      const std::string why = table2_violation(plan, r);
      if (!why.empty()) fail(label + " index " + std::to_string(i) + ": " + why);
      crashed += r.crashed ? 1 : 0;
      known += r.outcome == inject::OutcomeCategory::kKnownCrash ? 1 : 0;
    }
    // One reboot per injection, one datagram per crash, and exactly the
    // delivered datagrams became known crashes.
    if (res.reboots != n) fail(label + ": reboots != injections");
    if (res.datagrams_sent != crashed) fail(label + ": datagrams != crashes");
    if (res.datagrams_sent - res.datagrams_dropped != known) {
      fail(label + ": delivered datagrams != known crashes");
    }
  }

 private:
  u64 failures_ = 0;
};

/// Fabric runs resume journals they find, so every run starts from an
/// empty directory.
void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

PlanRun run_fabric(const Options& opt, const inject::CampaignPlan& plan,
                   const fs::path& dir, double* seconds) {
  PlanRun out;
  fresh_dir(dir);
  if (opt.workload == "fabric_local") {
    fabric::FabricOptions fo;
    fo.workers = 2;
    fo.journal_prefix = (dir / "local").string();
    fo.worker_binary = opt.tools_dir + "/kfi_worker";
    const auto t0 = Clock::now();
    out.result = fabric::FabricCoordinator(fo).run(plan);
    *seconds = seconds_since(t0);
  } else {
    // Fresh daemons per run: a daemon keeps a finished (plan, shard)
    // busy for up to one heartbeat, so reusing them would be refused.
    std::vector<Daemon> daemons;
    fabric::RemoteOptions ro;
    for (int d = 0; d < 2; ++d) {
      const fs::path ddir = dir / ("daemon" + std::to_string(d));
      fs::create_directories(ddir);
      daemons.push_back(Daemon::start(opt.tools_dir, ddir.string()));
      ro.hosts.push_back(
          fabric::HostSpec{"127.0.0.1", static_cast<u16>(daemons.back().port)});
    }
    ro.journal_prefix = (dir / "remote").string();
    const auto t0 = Clock::now();
    out.result = fabric::RemoteCoordinator(ro).run(plan);
    *seconds = seconds_since(t0);
    // The sessions are over; SIGTERM would wait out each session's
    // heartbeat (up to 1 s) before the daemon exits.
    for (Daemon& d : daemons) d.child.stop(SIGKILL);
  }
  out.fingerprint = inject::result_fingerprint(out.result);
  fs::remove_all(dir);
  return out;
}

}  // namespace

int run_end_to_end(const Options& opt) {
  const std::vector<inject::CampaignSpec> specs = workload_specs(opt);
  const bool fabric_run = is_fabric(opt.workload);
  Checker check;
  CpuRotation cpus;

  // Set-up: build every plan several times; plans are deterministic, so
  // every rebuild must fingerprint identically.  Half the repeats run
  // before execution and half after it, so that the median samples both
  // ends of the run rather than one stretch of host speed.
  std::vector<inject::CampaignPlan> plans;
  std::vector<u64> plan_fps;
  std::vector<double> setup_sums;
  const int setup_reps = opt.smoke ? 2 : kSetupReps;
  auto set_up = [&](int rep) {
    cpus.pin(static_cast<u32>(rep));
    double sum = 0.0;
    for (size_t p = 0; p < specs.size(); ++p) {
      const auto t0 = Clock::now();
      inject::CampaignPlan plan = inject::build_campaign_plan(specs[p]);
      sum += seconds_since(t0);
      const u64 fp = inject::plan_fingerprint(plan);
      if (plans.size() < specs.size()) {
        plans.push_back(std::move(plan));
        plan_fps.push_back(fp);
      } else if (fp != plan_fps[p]) {
        check.fail("plan " + std::to_string(p) + " rebuilt differently");
      }
    }
    setup_sums.push_back(sum);
    cpus.release();
  };
  for (int rep = 0; rep < setup_reps / 2; ++rep) set_up(rep);

  // Execution: injections over the seconds spent inside
  // CampaignEngine::run (every plan once) or the coordinator (whole plans,
  // repeated while another pass fits in the requested time).
  std::vector<PlanRun> runs(plans.size());
  u64 attempted = 0, failed = 0, cycles = 0, injections = 0;
  double measured = 0.0;
  u32 finished = 0;
  const inject::ProgressFn rotate = [&cpus, &finished](u32, u32) {
    cpus.pin(++finished / kRotateEvery);
  };
  const fs::path work(opt.work_dir);
  u32 passes = 0;
  for (;;) {
    double pass_seconds = 0.0;
    for (size_t p = 0; p < plans.size(); ++p) {
      const inject::CampaignPlan& plan = plans[p];
      const std::string label = opt.workload + " plan " + std::to_string(p) +
                                " pass " + std::to_string(passes);
      const u64 count = plan.targets.size();
      attempted += count;
      double seconds = 0.0;
      PlanRun run;
      try {
        if (fabric_run) {
          run = run_fabric(opt, plan, work / ("plan" + std::to_string(p)),
                           &seconds);
        } else {
          cpus.pin(finished / kRotateEvery);
          const auto t0 = Clock::now();
          run.result = inject::CampaignEngine(1).run(plan, rotate);
          seconds = seconds_since(t0);
          cpus.release();
          run.fingerprint = inject::result_fingerprint(run.result);
        }
      } catch (const std::exception& e) {
        cpus.release();
        check.fail(label + ": " + e.what());
        failed += count;
        continue;
      }
      pass_seconds += seconds;
      injections += count;
      cycles += run.result.throughput.simulated_cycles;
      failed += count - std::min<u64>(run.result.executed(), count) +
                run.result.quarantined + run.result.fabric_worker_deaths;
      if (passes == 0) {
        runs[p] = std::move(run);
      } else if (run.fingerprint != runs[p].fingerprint) {
        check.fail(label + ": result differs from pass 0");
      }
    }
    measured += pass_seconds;
    ++passes;
    if (!fabric_run || opt.smoke || measured + pass_seconds > opt.seconds) {
      break;
    }
  }
  const double rss = peak_rss_mib(fabric_run ? RUSAGE_CHILDREN : RUSAGE_SELF);
  std::fprintf(stderr, "perfbench: %s: %llu injections in %u passes, "
               "%.2f s measured\n", opt.workload.c_str(),
               static_cast<unsigned long long>(injections), passes, measured);

  for (int rep = setup_reps / 2; rep < setup_reps; ++rep) set_up(rep);

  // Checks, outside every timed region.
  for (size_t p = 0; p < plans.size(); ++p) {
    const inject::CampaignPlan& plan = plans[p];
    const std::string label = opt.workload + " plan " + std::to_string(p);
    const u32 n = static_cast<u32>(plan.targets.size());
    check.check_result(plan, runs[p].result, n, label);
    if (fabric_run) {
      // Topology independence: the spliced result equals a serial
      // in-process run of the same plan.
      const inject::CampaignResult serial = inject::CampaignEngine(1).run(plan);
      if (inject::result_fingerprint(serial) != runs[p].fingerprint) {
        check.fail(label + ": spliced fingerprint != serial fingerprint");
      }
    } else {
      // A record depends only on (plan, index): re-execute a sample, in
      // reverse order, on a freshly built rig.
      Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + p);
      std::set<u32> sample;
      while (sample.size() < std::min(kReexecSample, n)) {
        sample.insert(static_cast<u32>(rng.below(n)));
      }
      Rig rig(plan);
      for (auto it = sample.rbegin(); it != sample.rend(); ++it) {
        const inject::InjectionRecord again =
            rig.runner.run_one(plan.targets[*it], plan.run_seeds[*it], *it);
        if (record_bytes(again) != record_bytes(runs[p].result.records[*it])) {
          check.fail(label + " index " + std::to_string(*it) +
                     ": re-executed record differs");
        }
      }
    }
  }

  const bool correct = check.failures() == 0;
  if (!correct) failed += check.failures();
  print_result(
      correct, attempted, failed,
      {{"injections_per_s",
        measured > 0.0 ? static_cast<double>(injections) / measured : 0.0,
        "1/s"},
       {"setup_s", median(setup_sums), "s"},
       {"sim_cycles_per_injection",
        injections > 0 ? static_cast<double>(cycles) /
                             static_cast<double>(injections)
                       : 0.0,
        "cycles"},
       {"peak_rss_mib", rss, "MiB"}});
  return correct ? 0 : 1;
}

}  // namespace perfbench
