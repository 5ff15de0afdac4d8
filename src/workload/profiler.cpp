#include "workload/profiler.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "trace/sink.hpp"

namespace kfi::workload {

namespace {

/// Counts function entries as instructions are fetched: the kernprof
/// counter.  A flat table over the image's code maps each entry pc to its
/// function; every other hook is a no-op.
class EntryCounter final : public trace::TraceSink {
 public:
  explicit EntryCounter(const kir::Image& image)
      : base_(image.code_base),
        entry_(image.code.size(), kNone),
        counts_(image.functions.size(), 0) {
    for (u32 i = 0; i < image.functions.size(); ++i) {
      const Addr off = image.functions[i].addr - base_;
      if (off < entry_.size()) entry_[off] = i;
    }
  }

  const std::vector<u64>& counts() const { return counts_; }

  void on_insn_fetch(trace::RegSlot, Addr pc, u32, u32, u32, u32) override {
    const Addr off = pc - base_;
    if (off < entry_.size() && entry_[off] != kNone) ++counts_[entry_[off]];
  }
  void on_reg_read(trace::RegSlot) override {}
  void on_reg_write(trace::RegSlot) override {}
  void on_reg_merge(trace::RegSlot) override {}
  void on_mem_read(Addr, u32, u32) override {}
  void on_mem_write(Addr, u32, u32) override {}
  void on_branch_decision() override {}
  void on_priv_transition(trace::PrivEvent) override {}
  void on_ctx_save(trace::RegSlot, u32) override {}
  void on_ctx_restore(trace::RegSlot, u32) override {}
  void on_glue_reg_set(trace::RegSlot) override {}
  void on_glue_mem_set(u32, u32) override {}
  void on_glue_reg_copy(trace::RegSlot, trace::RegSlot) override {}
  void on_syscall_result(trace::RegSlot) override {}

 private:
  static constexpr u32 kNone = ~0u;
  Addr base_;
  std::vector<u32> entry_;  // code offset -> function index, or kNone
  std::vector<u64> counts_;
};

}  // namespace

std::vector<HotFunction> profile_hot_functions(kernel::Machine& machine,
                                               Workload& wl, double coverage,
                                               u64 seed) {
  EntryCounter counter(machine.image());
  machine.restore(machine.boot_snapshot());
  {
    // Detach on every exit, so a failed check leaves no dangling sink.
    struct Attached {
      kernel::Machine& m;
      ~Attached() { m.set_trace_sink(nullptr); }
    } attached{machine};
    machine.set_trace_sink(&counter);
    wl.reset(seed);
    while (auto req = wl.next(machine)) {
      const kernel::Event ev =
          machine.syscall(req->nr, req->a0, req->a1, req->a2);
      KFI_CHECK(ev.kind == kernel::EventKind::kSyscallDone,
                "fault-free profiling run crashed — kernel bug");
      wl.check(machine, ev.ret);
    }
  }

  const std::vector<u64>& counts = counter.counts();
  const auto& funcs = machine.image().functions;
  u64 total = 0;
  for (const u64 c : counts) total += c;
  KFI_CHECK(total > 0, "profiling run recorded no function entries");

  std::vector<HotFunction> hot;
  for (u32 i = 0; i < funcs.size(); ++i) {
    if (counts[i] == 0) continue;
    hot.push_back(HotFunction{funcs[i].name, funcs[i].addr, funcs[i].size,
                              counts[i],
                              static_cast<double>(counts[i]) /
                                  static_cast<double>(total),
                              0.0});
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.entries > b.entries;
  });

  double cumulative = 0.0;
  size_t keep = hot.size();
  for (size_t i = 0; i < hot.size(); ++i) {
    cumulative += hot[i].share;
    hot[i].cumulative = cumulative;
    if (cumulative >= coverage) {
      keep = i + 1;
      break;
    }
  }
  hot.resize(keep);
  machine.restore(machine.boot_snapshot());
  return hot;
}

}  // namespace kfi::workload
