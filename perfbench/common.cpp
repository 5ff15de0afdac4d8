#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "errnoinj/errno_model.hpp"
#include "inject/journal.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

inject::CampaignSpec make_spec(isa::Arch arch, inject::CampaignKind kind,
                               u32 injections, u64 seed) {
  inject::CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = injections;
  spec.seed = seed;
  return spec;
}

/// The errno campaigns CI runs: `nth` over read,write on cisca, `rate 2`
/// over every fallible syscall on riscf.
inject::CampaignSpec errno_spec(isa::Arch arch, u32 injections, u64 seed) {
  inject::CampaignSpec spec =
      make_spec(arch, inject::CampaignKind::kErrno, injections, seed);
  std::string bad;
  if (arch == isa::Arch::kCisca) {
    spec.errno_model.trigger = errnoinj::ErrnoTrigger::kNth;
    spec.errno_model.syscalls = *errnoinj::parse_syscall_list("read,write", &bad);
  } else {
    spec.errno_model.trigger = errnoinj::ErrnoTrigger::kRate;
    spec.errno_model.rate = 2.0;
    spec.errno_model.syscalls = *errnoinj::parse_syscall_list("all", &bad);
  }
  return spec;
}

constexpr isa::Arch kArches[] = {isa::Arch::kCisca, isa::Arch::kRiscf};

/// Campaign seed of the manifesting workload's code campaigns.
constexpr u64 kCodeSeed = 1;

}  // namespace

bool is_fabric(const std::string& workload) {
  return workload == "fabric_local" || workload == "fabric_remote";
}

std::vector<inject::CampaignSpec> workload_specs(const Options& opt) {
  const u64 seed = opt.seed;
  // In-process plans hold `chunk` injections for every `unit` seconds of
  // --seconds (reference speed of a 4-core x86-64 host), so a run's work
  // depends on --seconds only, never on measured time.  riscf simulates
  // about twice as fast as cisca, so it gets more injections for a
  // similar share of time.
  const bool scaled = !opt.smoke && !is_fabric(opt.workload);
  const double unit = opt.workload == "masked" ? 0.8 : 0.65;
  const u32 units =
      scaled ? static_cast<u32>(std::ceil(opt.seconds / unit)) : 1;
  auto size = [&opt, units](u32 cisca, u32 riscf, isa::Arch arch) {
    if (opt.smoke) return 4u;
    return (arch == isa::Arch::kCisca ? cisca : riscf) * units;
  };
  std::vector<inject::CampaignSpec> out;
  if (opt.workload == "masked") {
    for (const isa::Arch arch : kArches) {
      for (const auto kind :
           {inject::CampaignKind::kStack, inject::CampaignKind::kRegister,
            inject::CampaignKind::kData}) {
        out.push_back(make_spec(arch, kind, size(4, 8, arch), seed));
      }
    }
  } else if (opt.workload == "manifesting") {
    // The code campaigns draw their targets from a fixed seed.  About 1-2%
    // of code injections leave the kernel in a spin loop that costs ~2 s
    // of host time (against ~15 ms for the rest), so a seed-drawn sample
    // would make the run's rate mostly a count of those hangs.  With a
    // fixed sample that count is a property of the workload and its cost
    // stays inside injections_per_s.  The errno campaigns follow --seed.
    for (const isa::Arch arch : kArches) {
      out.push_back(make_spec(arch, inject::CampaignKind::kCode,
                              size(6, 6, arch), kCodeSeed));
    }
    for (const isa::Arch arch : kArches) {
      out.push_back(errno_spec(arch, size(4, 4, arch), seed));
    }
  } else if (is_fabric(opt.workload)) {
    // About 1.5 s of work per worker: kfi_worker exits on the first
    // heartbeat tick (1 s) after its last injection, so a worker's wall
    // time rounds up to whole ticks.  Half-way between two ticks the
    // rounding holds still under the host's +-25% speed swings, which
    // also means the rate cannot see a change smaller than about a tick.
    for (const isa::Arch arch : kArches) {
      out.push_back(make_spec(arch, inject::CampaignKind::kData,
                              size(75, 160, arch), seed));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  return out;
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string table2_violation(const inject::CampaignPlan& plan,
                             const inject::InjectionRecord& r) {
  using inject::CampaignKind;
  using inject::OutcomeCategory;
  const CampaignKind kind = r.target.kind;
  const bool errno_run = kind == CampaignKind::kErrno;
  if (r.outcome == OutcomeCategory::kHarnessError) {
    return "harness error: " + r.harness_error;
  }
  if (static_cast<u32>(r.outcome) >=
      static_cast<u32>(OutcomeCategory::kNumOutcomes)) {
    return "outcome out of range";
  }
  if (kind != plan.spec.kind) return "record kind differs from the plan's";
  if (r.syscalls_completed == 0) return "no syscall was started";
  if (errno_run != r.cascade_valid) return "cascade digest on wrong kind";
  // A known crash is exactly a crash whose datagram reached the collector;
  // an unknown crash merges into Hang/Unknown Crash.
  if ((r.outcome == OutcomeCategory::kKnownCrash) !=
      (r.crashed && r.crash_report_received)) {
    return "known crash without a received crash report";
  }
  if (r.crashed) {
    if (r.outcome != OutcomeCategory::kKnownCrash &&
        r.outcome != OutcomeCategory::kHangOrUnknownCrash) {
      return "crash classified as " + inject::outcome_name(r.outcome);
    }
    if (!r.activated) return "crash without activation";
    // Latency runs from activation or injection to the crash, within the
    // run's cycle budget; an underflowed baseline would read huge.
    if (r.cycles_to_crash == 0 || r.cycles_to_crash > 2 * plan.budget_cycles) {
      return "crash latency outside (0, 2 x budget]";
    }
  } else if (r.crash_report_received) {
    return "crash report without a crash";
  }
  // Register flips cannot be monitored (paper footnote 1).
  if (kind == CampaignKind::kRegister) {
    if (r.activation_known) return "register activation marked known";
    if (r.outcome == OutcomeCategory::kNotActivated) {
      return "register injection marked not activated";
    }
  }
  switch (r.outcome) {
    case OutcomeCategory::kNotActivated:
      if (r.activated || !r.activation_known) {
        return "not-activated record claims activation";
      }
      if (errno_run && r.cascade.forced_ret != 0) {
        return "not-activated errno record forced a return";
      }
      break;
    case OutcomeCategory::kNotManifested:
      if (!errno_run && r.activation_known && !r.activated) {
        return "not-manifested record was never activated";
      }
      if (errno_run && !r.activated) return "errno no-effect without a force";
      break;
    case OutcomeCategory::kFailSilenceViolation:
      if (!r.activated && r.activation_known) {
        return "fail-silence violation without activation";
      }
      break;
    default:
      break;
  }
  if (kind == CampaignKind::kCode && r.activated &&
      r.activation_cycle == 0) {
    return "code activation without a breakpoint cycle";
  }
  return {};
}

std::vector<u8> record_bytes(const inject::InjectionRecord& record) {
  inject::JournalEntry entry;
  entry.record = record;
  std::vector<u8> out;
  inject::serialize_journal_entry(out, entry);
  return out;
}

Rig::Rig(const inject::CampaignPlan& plan)
    : donor(plan.spec.arch, inject::campaign_machine_options(plan.spec),
            plan.image),
      machine(plan.spec.arch, inject::campaign_machine_options(plan.spec),
              plan.image, donor.boot_snapshot()),
      wl(workload::make_suite(plan.spec.workload_scale)),
      channel(plan.spec.channel_loss, plan.spec.seed ^ 0xC0FFEE),
      runner(machine, *wl, channel, collector, plan.nominal_cycles,
             plan.budget_cycles, plan.kernel_fraction) {
  runner.set_fault_model(plan.spec.model);
  if (plan.spec.kind == inject::CampaignKind::kErrno) {
    errno_inj = std::make_unique<errnoinj::ErrnoInjector>(
        plan.spec.errno_model, kernel::syscall_result_slot(plan.spec.arch));
    machine.set_syscall_result_hook(errno_inj.get());
    runner.set_errno_injector(errno_inj.get());
  }
}

Child Child::spawn(const std::vector<std::string>& args, int keep_fd,
                   const std::string& log_path) {
  std::vector<std::string> argv_store = args;
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    if (keep_fd >= 0) ::fcntl(keep_fd, F_SETFD, 0);
    if (!log_path.empty()) {
      const int fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) ::dup2(fd, 2);
    }
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "perfbench: exec %s failed: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  Child child;
  child.pid_ = pid;
  return child;
}

Child::Child(Child&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    stop();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Child::~Child() { stop(); }

int Child::stop(int sig) {
  if (pid_ > 0) ::kill(pid_, sig);
  return wait();
}

bool Child::exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return false;
  pid_ = -1;
  return true;
}

int Child::wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return status;
}

Daemon Daemon::start(const std::string& tools_dir, const std::string& dir) {
  const std::string port_file = dir + "/port";
  std::remove(port_file.c_str());
  Daemon d;
  d.child = Child::spawn({tools_dir + "/kfi_campaignd", "--port", "0",
                          "--port-file", port_file, "--dir", dir},
                         -1, dir + "/daemon.log");
  const auto t0 = std::chrono::steady_clock::now();
  while (seconds_since(t0) < 20.0) {
    std::ifstream in(port_file);
    std::string line;
    if (std::getline(in, line) && !in.eof()) {
      d.port = static_cast<unsigned>(std::strtoul(line.c_str(), nullptr, 10));
      if (d.port != 0) return d;
    }
    if (d.child.exited()) {
      throw std::runtime_error("kfi_campaignd exited before listening");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("kfi_campaignd did not publish its port");
}

}  // namespace perfbench
