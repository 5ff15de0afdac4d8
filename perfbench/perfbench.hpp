// Campaign benchmark: shared pieces of the end-to-end and per-layer runs.
//
// The benchmark drives kfisim only through its public headers and the two
// fabric tools (kfi_worker, kfi_campaignd); it never edits or links
// anything the repository's own build does not already export.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <vector>

#include "errnoinj/injector.hpp"
#include "inject/channel.hpp"
#include "inject/experiment.hpp"
#include "inject/plan.hpp"
#include "workload/workload.hpp"

namespace perfbench {

using namespace kfi;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          // seconds-long sizes, every check still runs
  std::string tools_dir;       // holds kfi_worker and kfi_campaignd
  std::string work_dir;        // journals and daemon directories (removed)
  std::string out_dir;         // span files written by the per-layer run
};

bool is_fabric(const std::string& workload);

/// The campaigns a workload runs.  In-process workloads run each plan
/// once; fabric workloads repeat their plans while time allows.  The
/// specs depend on --workload, --seed, --seconds and --smoke only.
std::vector<inject::CampaignSpec> workload_specs(const Options& opt);

/// One measured value, printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: the last line of standard output.
void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics);

double seconds_since(std::chrono::steady_clock::time_point t0);
double median(std::vector<double> values);

/// Table 2 classification rules that ExperimentRunner implements, checked
/// on one record.  Returns an empty string when the record obeys them.
std::string table2_violation(const inject::CampaignPlan& plan,
                             const inject::InjectionRecord& record);

/// The byte image of a record as the journal would store it; two records
/// are identical when these bytes are.
std::vector<u8> record_bytes(const inject::InjectionRecord& record);

/// One injection apparatus built the way CampaignEngine builds a worker
/// rig: a machine adopting the plan's boot snapshot, the workload suite,
/// the UDP channel, the crash collector and the runner, plus the errno
/// injector for errno campaigns.
struct Rig {
  explicit Rig(const inject::CampaignPlan& plan);

  kernel::Machine donor;  // boots once; the rig's machine adopts its state
  kernel::Machine machine;
  std::unique_ptr<workload::Workload> wl;
  inject::UdpChannel channel;
  inject::CrashCollector collector;
  inject::ExperimentRunner runner;
  std::unique_ptr<errnoinj::ErrnoInjector> errno_inj;
};

/// A child process that is stopped (SIGTERM, then waited for) when the
/// handle goes away.
class Child {
 public:
  Child() = default;
  /// Fork and exec `args`; `keep_fd` (if >= 0) stays open in the child;
  /// `log_path` (if non-empty) receives the child's stderr.
  static Child spawn(const std::vector<std::string>& args, int keep_fd,
                     const std::string& log_path);
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  pid_t pid() const { return pid_; }
  /// Signal and wait; returns the wait status (or -1 when not running).
  int stop(int sig = SIGTERM);
  /// Wait without signalling; returns the wait status.
  int wait();
  /// Reap the child if it has already exited.
  bool exited();

 private:
  pid_t pid_ = -1;
};

/// A kfi_campaignd on an ephemeral loopback port with its own journal
/// directory.  Blocks until the daemon has published its port.
struct Daemon {
  Child child;
  unsigned port = 0;
  static Daemon start(const std::string& tools_dir, const std::string& dir);
};

int run_end_to_end(const Options& opt);
int run_layers(const Options& opt);

}  // namespace perfbench
