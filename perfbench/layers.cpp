// Per-layer run: drives each layer through its public functions, records
// a span around every call, keeps the spans in memory, writes them out
// when it ends, and prints the per-layer metrics.
//
// Layers and the calls that drive them:
//   kir / kernel / workload / inject plan — build_shared_kernel_image,
//       Machine (boot), calibrate_workload, profile_hot_functions,
//       TargetGenerator
//   cisca / riscf — warm fault-free calibrate_workload runs
//   inject experiment, kernel restore, mem — ExperimentRunner::run_one and
//       Machine::restore on a rig built the way the engine builds it
//   inject journal — InjectionJournal::append, read_journal_file
//   fabric — kfi_worker over its status pipe, kfi_campaignd over TCP,
//       splice_journals
// The experiment layer runs the workload's own plans plus a few
// injections of the other in-process family, so every outcome bucket has
// samples whatever the workload.  The same injections also run untraced
// through CampaignEngine; the difference is the tracing overhead.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "fabric/net.hpp"
#include "fabric/shard.hpp"
#include "fabric/splice.hpp"
#include "fabric/wire.hpp"
#include "inject/engine.hpp"
#include "inject/journal.hpp"
#include "inject/target_gen.hpp"
#include "perfbench.hpp"
#include "workload/profiler.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
constexpr int kWarmCalibrations = 5;
constexpr u32 kExperimentPrefix = 16;   // own-plan indices run per plan
constexpr u32 kCompanionInjections = 12;
constexpr u32 kFabricIndices = 200;     // cap on the fabric drive's slice
constexpr int kReadReps = 5;

/// In-memory span log: name, start, end and the span that caused it.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    i64 parent = -1;
  };

  /// Record a finished span; returns its id.
  i64 add(std::string name, Clock::time_point start, Clock::time_point end,
          i64 parent) {
    spans_.push_back(Span{std::move(name), start, end, parent});
    return static_cast<i64>(spans_.size()) - 1;
  }
  /// Open a span now; close it with end().
  i64 begin(std::string name, i64 parent) {
    const Clock::time_point now = Clock::now();
    return add(std::move(name), now, now, parent);
  }
  /// Close a span; returns its duration in ms.
  double end(i64 id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = Clock::now();
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  }

  /// One JSON object per line: id, parent, name, start and duration in
  /// microseconds (start relative to the first span).
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    const Clock::time_point t0 =
        spans_.empty() ? Clock::now() : spans_.front().start;
    auto us = [](Clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"start_us\": "
          << us(s.start - t0) << ", \"dur_us\": " << us(s.end - s.start)
          << "}\n";
    }
  }

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Run `f` inside a span; returns the span's duration in ms.
template <typename F>
double timed(Tracer& t, std::string name, i64 parent, F&& f) {
  const i64 id = t.begin(std::move(name), parent);
  f();
  return t.end(id);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string hex16(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct LayerRun {
  Tracer tracer;
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failures = 0;

  void fail(const std::string& what) {
    if (failures < 10) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
    ++failures;
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

// --- plan layers and CPU models ------------------------------------------

/// build_campaign_plan's stages, one call at a time, on every plan of the
/// workload.  Each stage's metric is the sum over plans of the per-plan
/// median, like setup_s sums build_campaign_plan over plans.
void drive_setup(LayerRun& run,
                 const std::vector<inject::CampaignPlan>& plans) {
  const char* kStages[] = {"kir.image_build_ms", "kernel.boot_ms",
                           "workload.calibrate_ms", "workload.profile_ms",
                           "inject.target_gen_ms"};
  std::map<std::string, double> sums;
  for (const inject::CampaignPlan& plan : plans) {
    const inject::CampaignSpec& spec = plan.spec;
    const kernel::MachineOptions mopts = inject::campaign_machine_options(spec);
    std::map<std::string, std::vector<double>> reps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const i64 root = run.tracer.begin("setup", -1);
      kir::ImagePtr image;
      reps[kStages[0]].push_back(timed(run.tracer, "kir.build_shared_kernel_image",
                                       root, [&] {
        image = kernel::build_shared_kernel_image(spec.arch,
                                                  spec.machine.spinlock_debug);
      }));
      std::unique_ptr<kernel::Machine> machine;
      reps[kStages[1]].push_back(timed(run.tracer, "kernel.Machine", root, [&] {
        machine = std::make_unique<kernel::Machine>(spec.arch, mopts, image);
      }));
      auto wl = workload::make_suite(spec.workload_scale);
      u64 nominal = 0;
      reps[kStages[2]].push_back(
          timed(run.tracer, "workload.calibrate_workload", root, [&] {
            nominal = inject::calibrate_workload(*machine, *wl, spec.seed);
          }));
      if (nominal != plan.nominal_cycles && spec.kind != inject::CampaignKind::kErrno) {
        run.fail("calibration differs from the plan's");
      }
      std::vector<workload::HotFunction> hot;
      reps[kStages[3]].push_back(
          timed(run.tracer, "workload.profile_hot_functions", root, [&] {
            hot = workload::profile_hot_functions(*machine, *wl, 0.95, spec.seed);
          }));
      std::vector<inject::InjectionTarget> targets;
      reps[kStages[4]].push_back(
          timed(run.tracer, "inject.TargetGenerator", root, [&] {
            inject::TargetGenerator gen(*image, hot,
                                        machine->cpu().sysregs().count(),
                                        spec.seed * 0x9E3779B9u + 17);
            targets = spec.kind == inject::CampaignKind::kErrno
                          ? gen.generate_errno(spec.errno_model,
                                               spec.injections,
                                               plan.eligible_invocations)
                          : gen.generate(spec.kind, spec.injections,
                                         spec.model);
          }));
      if (targets.size() != plan.targets.size()) {
        run.fail("target generation differs from the plan's");
      }
      run.tracer.end(root);
    }
    for (const char* stage : kStages) sums[stage] += median(reps[stage]);
  }
  for (const char* stage : kStages) run.metric(stage, sums[stage], "ms");
}

/// Simulator speed of each CPU model on the fault-free workload, with the
/// decode and superblock caches warm (as they are across injections).
void drive_cpu_models(LayerRun& run) {
  for (const isa::Arch arch : {isa::Arch::kCisca, isa::Arch::kRiscf}) {
    inject::CampaignSpec spec;
    spec.arch = arch;
    const kir::ImagePtr image = kernel::build_shared_kernel_image(arch);
    kernel::Machine machine(arch, inject::campaign_machine_options(spec), image);
    auto wl = workload::make_suite(1);
    inject::calibrate_workload(machine, *wl, 1);  // warm the caches
    std::vector<double> rates;
    for (int rep = 0; rep < kWarmCalibrations; ++rep) {
      u64 cycles = 0;
      const double ms = timed(run.tracer, isa::arch_name(arch) + ".calibrate",
                              -1, [&] {
        cycles = inject::calibrate_workload(machine, *wl, 1);
      });
      rates.push_back(static_cast<double>(cycles) / (ms / 1000.0));
    }
    run.metric(arch == isa::Arch::kCisca ? "cisca.sim_cycles_per_s"
                                         : "riscf.sim_cycles_per_s",
               median(rates), "cycles/s");
  }
}

// --- experiment, restore, memory, journal ---------------------------------

struct Bucket {
  std::vector<double> ms;
  std::vector<double> cycles;
};

/// The untraced engine and the traced rig run the same indices; records
/// must agree byte for byte.
void drive_experiments(LayerRun& run, const Options& opt,
                       const std::vector<inject::CampaignPlan>& plans,
                       const std::vector<u32>& prefix) {
  std::array<Bucket, static_cast<size_t>(inject::OutcomeCategory::kNumOutcomes)>
      buckets;
  Bucket errno_bucket;
  std::vector<double> restore_us, pages, activation, private_pages, append_us;
  double untraced_s = 0.0, traced_ms = 0.0, run_one_ms = 0.0;
  double journal_bytes = 0.0;
  u64 run_one_cycles = 0;
  const fs::path work(opt.work_dir);

  for (size_t p = 0; p < plans.size(); ++p) {
    const inject::CampaignPlan& plan = plans[p];
    std::vector<u32> slice;
    for (u32 i = 0; i < prefix[p]; ++i) slice.push_back(i);
    run.attempted += 2 * slice.size();

    // Untraced: the engine on the same slice.
    inject::RunControl ctl;
    ctl.indices = &slice;
    const auto t0 = Clock::now();
    const inject::CampaignResult engine = inject::CampaignEngine(1).run(plan, {}, ctl);
    untraced_s += seconds_since(t0);
    private_pages.push_back(engine.throughput.max_worker_private_pages);

    // Traced: rig, run_one and restore, one span each.
    const i64 root = run.tracer.begin("experiment.plan", -1);
    std::unique_ptr<Rig> rig;
    timed(run.tracer, "inject.rig", root, [&] { rig = std::make_unique<Rig>(plan); });
    kernel::Machine& m = rig->machine;
    m.restore(m.boot_snapshot());
    const u64 start_cycle = m.cpu().cycles();
    std::vector<inject::JournalEntry> entries;
    for (const u32 i : slice) {
      const u64 c0 = rig->runner.simulated_cycles();
      inject::JournalEntry e;
      e.index = i;
      const double ms = timed(run.tracer, "inject.run_one", root, [&] {
        e.record = rig->runner.run_one(plan.targets[i], plan.run_seeds[i], i);
      });
      e.reboots = 1;
      e.simulated_cycles = rig->runner.simulated_cycles() - c0;
      restore_us.push_back(1000.0 * timed(run.tracer, "kernel.Machine::restore",
                                          root, [&] { m.restore(m.boot_snapshot()); }));
      pages.push_back(m.space().phys().last_restore_pages());
      run_one_ms += ms;
      run_one_cycles += e.simulated_cycles;
      Bucket& b = buckets[static_cast<size_t>(e.record.outcome)];
      b.ms.push_back(ms);
      b.cycles.push_back(static_cast<double>(e.simulated_cycles));
      if (e.record.target.kind == inject::CampaignKind::kErrno) {
        errno_bucket.ms.push_back(ms);
      }
      entries.push_back(std::move(e));
    }
    traced_ms += run.tracer.end(root);

    for (const inject::JournalEntry& e : entries) {
      const inject::InjectionRecord& rec = e.record;
      const std::string why = table2_violation(plan, rec);
      if (!why.empty()) run.fail("index " + std::to_string(e.index) + ": " + why);
      if (record_bytes(rec) != record_bytes(engine.records[e.index])) {
        run.fail("traced record differs from the engine's at index " +
                 std::to_string(e.index));
      }
      if (rec.activated && rec.activation_known && rec.activation_cycle >= start_cycle) {
        activation.push_back(static_cast<double>(rec.activation_cycle - start_cycle));
      }
    }

    // Journal layer: the same entries, appended with the default fsync
    // policy.
    const std::string jpath = (work / ("plan" + std::to_string(p) + ".kfij")).string();
    inject::InjectionJournal journal = inject::InjectionJournal::create(jpath, plan);
    const auto header_bytes = fs::file_size(jpath);
    for (const inject::JournalEntry& e : entries) {
      append_us.push_back(1000.0 * timed(run.tracer, "inject.InjectionJournal::append",
                                         -1, [&] { journal.append(e); }));
    }
    journal_bytes += static_cast<double>(fs::file_size(jpath) - header_bytes);
  }
  run.metric("journal.append_us", median(append_us), "us");
  run.metric("journal.bytes_per_record",
             journal_bytes / static_cast<double>(append_us.size()), "bytes");

  using inject::OutcomeCategory;
  struct Named {
    const char* name;
    OutcomeCategory outcome;
  };
  const Named kNamed[] = {
      {"not_activated", OutcomeCategory::kNotActivated},
      {"not_manifested", OutcomeCategory::kNotManifested},
      {"fsv", OutcomeCategory::kFailSilenceViolation},
      {"known_crash", OutcomeCategory::kKnownCrash},
      {"hang", OutcomeCategory::kHangOrUnknownCrash},
  };
  for (const Named& n : kNamed) {
    const Bucket& b = buckets[static_cast<size_t>(n.outcome)];
    if (b.ms.empty()) run.fail(std::string("no ") + n.name + " injections");
    run.metric(std::string("experiment.") + n.name + "_ms", median(b.ms), "ms");
  }
  if (errno_bucket.ms.empty()) run.fail("no errno injections");
  run.metric("experiment.errno_ms", median(errno_bucket.ms), "ms");
  for (const Named& n : kNamed) {
    run.metric(std::string("experiment.") + n.name + "_cycles",
               mean(buckets[static_cast<size_t>(n.outcome)].cycles), "cycles");
  }
  run.metric("experiment.activation_cycles", mean(activation), "cycles");
  run.metric("experiment.sim_cycles_per_s",
             static_cast<double>(run_one_cycles) / (run_one_ms / 1000.0),
             "cycles/s");
  run.metric("kernel.restore_us", median(restore_us), "us");
  run.metric("mem.pages_restored_per_injection", mean(pages), "pages");
  run.metric("mem.private_pages_per_worker", mean(private_pages), "pages");
  run.metric("trace.overhead_pct",
             100.0 * (traced_ms / 1000.0 / untraced_s - 1.0), "%");
}

// --- fabric ----------------------------------------------------------------

/// Lifecycle timestamps of one shard run by a worker or a daemon.
struct Session {
  Clock::time_point start, ready, done, end;
  bool got_ready = false, got_done = false, got_end = false;
};

/// Two kfi_worker processes over their status pipes, exactly as the
/// coordinator spawns them (default heartbeat and fsync policy).
std::vector<std::string> drive_workers(LayerRun& run, const Options& opt,
                                       const inject::CampaignPlan& plan,
                                       const std::vector<std::vector<u32>>& shards) {
  const fs::path dir = fs::path(opt.work_dir) / "workers";
  fs::create_directories(dir);
  const std::string spec_hex =
      fabric::to_hex(fabric::serialize_campaign_spec(plan.spec));
  const std::string fp_hex = hex16(inject::plan_fingerprint(plan));
  std::vector<std::string> paths;
  std::vector<Child> children;
  std::vector<int> fds;
  std::vector<Session> sessions(shards.size());
  std::vector<fabric::FrameReader> readers(shards.size());
  for (size_t k = 0; k < shards.size(); ++k) {
    paths.push_back(fabric::shard_journal_path((dir / "local").string(),
                                               static_cast<u32>(k),
                                               static_cast<u32>(shards.size())));
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    sessions[k].start = Clock::now();
    children.push_back(Child::spawn(
        {opt.tools_dir + "/kfi_worker", "--spec", spec_hex, "--expect-plan-fp",
         fp_hex, "--indices", fabric::format_index_ranges(shards[k]),
         "--journal", paths[k], "--shard", std::to_string(k), "--shards",
         std::to_string(shards.size()), "--status-fd",
         std::to_string(pipefd[1]), "--jobs", "1", "--heartbeat", "1.0",
         "--retries", "1", "--journal-flush", "fsync"},
        pipefd[1], ""));
    ::close(pipefd[1]);
    fds.push_back(pipefd[0]);
    run.attempted += shards[k].size();
  }
  size_t open = fds.size();
  while (open > 0) {
    std::vector<pollfd> pfds;
    for (const int fd : fds) pfds.push_back(pollfd{fd, POLLIN, 0});
    if (::poll(pfds.data(), pfds.size(), 60000) <= 0) {
      run.fail("kfi_worker went silent");
      break;
    }
    for (size_t k = 0; k < fds.size(); ++k) {
      if (fds[k] < 0 || (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      u8 buf[4096];
      const ssize_t n = ::read(fds[k], buf, sizeof(buf));
      const Clock::time_point now = Clock::now();
      if (n > 0) {
        readers[k].feed(buf, static_cast<size_t>(n));
        while (auto f = readers[k].next()) {
          if (f->type == fabric::FrameType::kHello) {
            sessions[k].ready = now;
            sessions[k].got_ready = true;
          } else if (f->type == fabric::FrameType::kDone) {
            sessions[k].done = now;
            sessions[k].got_done = true;
          } else if (f->type == fabric::FrameType::kError) {
            run.fail("kfi_worker: " + f->message);
          }
        }
      } else if (n == 0 || errno != EINTR) {
        sessions[k].end = now;
        sessions[k].got_end = true;
        ::close(fds[k]);
        fds[k] = -1;
        --open;
      }
    }
  }
  for (int& fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  std::vector<double> hello, exit_wait;
  for (size_t k = 0; k < children.size(); ++k) {
    const int status = children[k].wait();
    const Session& s = sessions[k];
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !s.got_ready ||
        !s.got_done || !s.got_end) {
      run.fail("kfi_worker shard " + std::to_string(k) + " did not finish");
      continue;
    }
    const i64 root = run.tracer.add("fabric.worker", s.start, s.end, -1);
    run.tracer.add("fabric.worker_hello", s.start, s.ready, root);
    run.tracer.add("fabric.worker_run", s.ready, s.done, root);
    run.tracer.add("fabric.worker_exit_wait", s.done, s.end, root);
    hello.push_back(std::chrono::duration<double, std::milli>(s.ready - s.start).count());
    exit_wait.push_back(std::chrono::duration<double, std::milli>(s.end - s.done).count());
  }
  run.metric("fabric.worker_hello_ms", median(hello), "ms");
  run.metric("fabric.worker_exit_wait_ms", median(exit_wait), "ms");
  return paths;
}

/// Two fresh kfi_campaignd daemons, one session each over TCP.
void drive_daemons(LayerRun& run, const Options& opt,
                   const inject::CampaignPlan& plan,
                   const std::vector<std::vector<u32>>& shards) {
  const fs::path dir = fs::path(opt.work_dir) / "daemons";
  std::vector<Daemon> daemons;
  std::vector<int> fds;
  std::vector<Session> sessions(shards.size());
  std::vector<fabric::MsgReader> readers(shards.size());
  const std::vector<u8> spec_blob = fabric::serialize_campaign_spec(plan.spec);
  const u64 plan_fp = inject::plan_fingerprint(plan);
  for (size_t k = 0; k < shards.size(); ++k) {
    const fs::path ddir = dir / ("d" + std::to_string(k));
    fs::create_directories(ddir);
    daemons.push_back(Daemon::start(opt.tools_dir, ddir.string()));
  }
  for (size_t k = 0; k < shards.size(); ++k) {
    sessions[k].start = Clock::now();
    std::string err;
    const int fd = fabric::tcp_connect("127.0.0.1",
                                       static_cast<u16>(daemons[k].port), 5.0, &err);
    if (fd < 0) throw std::runtime_error("connect: " + err);
    fabric::SubmitRequest req;
    req.expect_plan_fp = plan_fp;
    req.shard = static_cast<u32>(k);
    req.shards = static_cast<u32>(shards.size());
    req.fresh = true;
    req.indices = fabric::format_index_ranges(shards[k]);
    req.spec = spec_blob;
    if (!fabric::send_message(fd, fabric::NetMessage{fabric::MsgType::kSubmit,
                                                     fabric::encode_submit(req)})) {
      ::close(fd);
      throw std::runtime_error("submit failed");
    }
    fds.push_back(fd);
    run.attempted += shards[k].size();
  }
  size_t open = fds.size();
  while (open > 0) {
    std::vector<pollfd> pfds;
    for (const int fd : fds) pfds.push_back(pollfd{fd, POLLIN, 0});
    if (::poll(pfds.data(), pfds.size(), 60000) <= 0) {
      run.fail("kfi_campaignd went silent");
      break;
    }
    for (size_t k = 0; k < fds.size(); ++k) {
      if (fds[k] < 0 || (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      u8 buf[65536];
      const ssize_t n = ::read(fds[k], buf, sizeof(buf));
      const Clock::time_point now = Clock::now();
      bool close_it = n == 0 || (n < 0 && errno != EINTR);
      if (n > 0) {
        readers[k].feed(buf, static_cast<size_t>(n));
        while (auto msg = readers[k].next()) {
          if (msg->type == fabric::MsgType::kAccept) {
            sessions[k].ready = now;
            sessions[k].got_ready = true;
          } else if (msg->type == fabric::MsgType::kRefuse) {
            const auto r = fabric::decode_refusal(msg->body);
            run.fail("kfi_campaignd refused: " + (r ? r->reason : "?"));
            close_it = true;
          } else if (msg->type == fabric::MsgType::kStatus) {
            fabric::FrameReader fr;
            fr.feed(msg->body.data(), msg->body.size());
            const auto f = fr.next();
            if (f && f->type == fabric::FrameType::kDone) {
              sessions[k].done = now;
              sessions[k].got_done = true;
            }
          } else if (msg->type == fabric::MsgType::kJournal) {
            sessions[k].end = now;
            sessions[k].got_end = true;
            close_it = true;
          }
        }
      }
      if (close_it) {
        ::close(fds[k]);
        fds[k] = -1;
        --open;
      }
    }
  }
  for (int& fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  for (Daemon& d : daemons) d.child.stop(SIGKILL);
  std::vector<double> accept, stream;
  for (size_t k = 0; k < sessions.size(); ++k) {
    const Session& s = sessions[k];
    if (!s.got_ready || !s.got_done || !s.got_end) {
      run.fail("daemon session " + std::to_string(k) + " did not finish");
      continue;
    }
    const i64 root = run.tracer.add("fabric.daemon_session", s.start, s.end, -1);
    run.tracer.add("fabric.daemon_accept", s.start, s.ready, root);
    run.tracer.add("fabric.daemon_run", s.ready, s.done, root);
    run.tracer.add("fabric.journal_stream", s.done, s.end, root);
    accept.push_back(std::chrono::duration<double, std::milli>(s.ready - s.start).count());
    stream.push_back(std::chrono::duration<double, std::milli>(s.end - s.done).count());
  }
  run.metric("fabric.daemon_accept_ms", median(accept), "ms");
  run.metric("fabric.journal_stream_ms", median(stream), "ms");
}

void drive_fabric(LayerRun& run, const Options& opt,
                  const inject::CampaignPlan& plan) {
  const u32 n = std::min<u32>(static_cast<u32>(plan.targets.size()), kFabricIndices);
  const std::vector<std::vector<u32>> shards = fabric::shard_indices(n, 2);
  const std::vector<std::string> paths = drive_workers(run, opt, plan, shards);

  std::vector<double> splice_ms, read_ms;
  for (int rep = 0; rep < kReadReps; ++rep) {
    inject::CampaignResult spliced;
    splice_ms.push_back(timed(run.tracer, "fabric.splice_journals", -1, [&] {
      spliced = fabric::splice_journals(plan, paths);
    }));
    if (rep == 0) {
      if (spliced.executed() != n) run.fail("splice lost indices");
      for (u32 i = 0; i < n; ++i) {
        const std::string why = table2_violation(plan, spliced.records[i]);
        if (!why.empty()) run.fail("spliced index " + std::to_string(i) + ": " + why);
      }
    }
    inject::JournalFileData data;
    read_ms.push_back(timed(run.tracer, "inject.read_journal_file", -1, [&] {
      data = inject::read_journal_file(paths[0]);
    }));
    if (data.entries.size() != shards[0].size()) run.fail("shard journal incomplete");
  }
  run.metric("journal.read_ms", median(read_ms), "ms");
  run.metric("fabric.splice_ms", median(splice_ms), "ms");
  drive_daemons(run, opt, plan, shards);
}

/// The other in-process family's campaigns, a few injections each, so
/// every outcome bucket of the experiment layer has samples.
std::vector<inject::CampaignSpec> companion_specs(const Options& opt) {
  std::vector<inject::CampaignSpec> specs;
  for (const char* family : {"masked", "manifesting"}) {
    if (opt.workload == family) continue;
    Options other = opt;
    other.workload = family;
    other.smoke = true;
    for (inject::CampaignSpec spec : workload_specs(other)) {
      spec.injections = kCompanionInjections;
      specs.push_back(spec);
    }
  }
  return specs;
}

}  // namespace

int run_layers(const Options& opt) {
  LayerRun run;
  std::vector<inject::CampaignPlan> plans;
  for (const inject::CampaignSpec& spec : workload_specs(opt)) {
    plans.push_back(inject::build_campaign_plan(spec));
  }
  drive_setup(run, plans);
  drive_cpu_models(run);

  std::vector<inject::CampaignPlan> exp_plans = plans;
  std::vector<u32> prefix;
  for (const auto& p : plans) {
    prefix.push_back(std::min<u32>(static_cast<u32>(p.targets.size()),
                                   kExperimentPrefix));
  }
  for (const inject::CampaignSpec& spec : companion_specs(opt)) {
    exp_plans.push_back(inject::build_campaign_plan(spec));
    prefix.push_back(kCompanionInjections);
  }
  drive_experiments(run, opt, exp_plans, prefix);
  drive_fabric(run, opt, plans.front());

  const std::string spans = (fs::path(opt.out_dir) /
                             ("spans-" + opt.workload + "-seed" +
                              std::to_string(opt.seed) + ".jsonl"))
                                .string();
  run.tracer.write(spans);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", run.tracer.size(),
               spans.c_str());

  const bool correct = run.failures == 0;
  print_result(correct, run.attempted, run.failures, run.metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
