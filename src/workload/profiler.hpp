// Kernel profiling (the paper's kernprof step).
//
// Runs a workload on a fault-free machine with a function-entry counting
// trace sink attached and reports the most frequently used kernel
// functions covering at least the requested share of all entries — the
// paper selected functions representing >= 95% of kernel usage as
// code-injection targets (Sections 1 and 3.5).
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

/// Profile `wl` on a freshly restored machine; returns functions in
/// descending entry order, truncated at `coverage` cumulative share.
/// The machine is restored to its boot snapshot before and after; the
/// profiler attaches its own trace sink for the run and detaches it, so
/// the caller must not have one attached.
std::vector<HotFunction> profile_hot_functions(kernel::Machine& machine,
                                               Workload& wl,
                                               double coverage = 0.95,
                                               u64 seed = 1);

}  // namespace kfi::workload
