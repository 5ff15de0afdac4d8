// The golden pass and kernel profiling (the paper's kernprof step).
//
// The golden pass runs a workload on a fault-free machine and checks every
// result: its length calibrates a campaign's hang budget and kernel-time
// share.  The same pass can count function entries through a trace sink
// and report the most frequently used kernel functions covering at least
// the requested share of all entries — the paper selected functions
// representing >= 95% of kernel usage as code-injection targets (Sections
// 1 and 3.5).
#pragma once

#include <string>
#include <vector>

#include "kernel/machine.hpp"
#include "workload/workload.hpp"

namespace kfi::workload {

struct HotFunction {
  std::string name;
  Addr addr = 0;
  u32 size = 0;
  u64 entries = 0;
  double share = 0.0;        // fraction of all function entries
  double cumulative = 0.0;   // running share in rank order
};

/// The golden pass: restore the boot snapshot, run `wl` fault-free under
/// `seed`, and check every result and the final state; returns the run
/// length in cycles.  With `hot` set, the same run also takes the kernel
/// profile into it (as profile_hot_functions returns it) through a trace
/// sink attached for the run, so the caller must not have one attached.
u64 calibrate_workload(kernel::Machine& machine, Workload& wl, u64 seed,
                       std::vector<HotFunction>* hot = nullptr,
                       double coverage = 0.95);

/// Golden passes run so far in this process (a diagnostic counter).
u64 golden_passes();

/// Profile `wl` in its own golden pass; returns functions in descending
/// entry order, truncated at `coverage` cumulative share.  The machine is
/// restored to its boot snapshot before and after.
std::vector<HotFunction> profile_hot_functions(kernel::Machine& machine,
                                               Workload& wl,
                                               double coverage = 0.95,
                                               u64 seed = 1);

}  // namespace kfi::workload
