// Architecture-neutral CPU interface.
//
// The injection framework (src/inject) drives both simulated processors
// through this interface: step one instruction, observe traps and
// breakpoint hits, read the cycle counter (the paper's cycles-to-crash
// instrument), snapshot/restore register state (the "reboot" fast path),
// and reach the system-register bank for register campaigns.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "isa/debug.hpp"
#include "isa/sysreg.hpp"
#include "isa/trap.hpp"
#include "trace/sink.hpp"

namespace kfi::isa {

/// Opaque register-state snapshot; produced and consumed by the same CPU.
struct CpuSnapshot {
  std::vector<u32> words;
  u64 cycles = 0;
};

/// Bounds one superblock dispatch so multi-instruction execution can never
/// overshoot an event the machine loop would have delivered between single
/// steps (stop_cycles, timer delivery, rate-mode firing cycles, harness
/// step budgets).
struct BlockLimits {
  /// Stop BEFORE executing an instruction once cycles() >= cycle_bound
  /// (0 = unbounded).  The machine loop re-checks its cycle-driven events
  /// at exactly the same cycle count the single-step loop would have.
  u64 cycle_bound = 0;
  /// Execute at most this many instructions (0 = unbounded); the harness
  /// step budget divides exactly into block dispatches.
  u64 max_insns = 0;
};

/// Counters for the per-CPU superblock (multi-instruction trace) cache.
struct SuperblockStats {
  u64 hits = 0;
  u64 misses = 0;
  /// Tag matched but the page write-version moved: a store / injected
  /// flip / reboot rewrote cached code and the block was rebuilt.
  u64 invalidations = 0;
  /// Block dispatches (hit or freshly built) and instructions retired
  /// through them; their ratio is the mean block length.
  u64 dispatches = 0;
  u64 block_insns = 0;

  double hit_rate() const {
    const u64 total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  double mean_block_len() const {
    return dispatches == 0 ? 0.0 : static_cast<double>(block_insns) /
                                       static_cast<double>(dispatches);
  }
};

class CpuCore {
 public:
  virtual ~CpuCore() = default;

  /// Execute (at most) one instruction.  If an instruction breakpoint is
  /// armed at the current pc, returns kInsnBp without executing.
  virtual StepResult step() = 0;

  virtual Addr pc() const = 0;
  virtual void set_pc(Addr pc) = 0;

  /// Retired-cycle counter (performance register analogue).
  virtual Cycles cycles() const = 0;
  /// Charge extra cycles (used by the kernel runtime to model the hardware
  /// and software exception-handling stages of Figure 3).
  virtual void add_cycles(Cycles n) = 0;

  virtual DebugUnit& debug() = 0;

  virtual SystemRegisterBank& sysregs() = 0;

  /// Current stack pointer (ESP / r1), used by the stack injector to find
  /// the live stack of the targeted kernel process.
  virtual Addr stack_pointer() const = 0;

  virtual CpuSnapshot snapshot() const = 0;
  virtual void restore(const CpuSnapshot& snap) = 0;

  /// True when the registers equal `snap`'s (its cycle count aside).
  /// Allocation-free: the machine's spin-loop detector calls it at block
  /// starts.
  virtual bool registers_equal(const CpuSnapshot& snap) const = 0;

  /// Instructions executed so far that copied the cycle counter into
  /// architectural state (riscf mftb).  A loop that reads the clock is
  /// not periodic in time, so the spin-loop detector refuses any period
  /// in which this count moved.
  virtual u64 cycle_reads() const { return 0; }

  /// Attach (nullptr detaches) an observational error-propagation trace
  /// sink.  Hook sites are guarded null checks, so execution — cycle
  /// counts, memory traffic, RNG draws — is bit-identical with or without
  /// a sink attached (the campaign fingerprint cross-checks enforce it).
  virtual void set_trace_sink(trace::TraceSink* sink) = 0;

  /// Trace register slot backing system-register bank index `index`, or
  /// trace::kNoSlot when that bank member is not shadowed.  Lets the
  /// injector seed taint at the exact register it flipped.
  virtual trace::RegSlot sysreg_slot(u32 index) const = 0;

  /// Superblock execution (step_block), the hot-loop fast path.  It is
  /// bit-exact — blocks are predecoded once and re-decoded whenever a
  /// page write version proves their bytes changed — so toggling it must
  /// never alter execution, a property the campaign fingerprint
  /// cross-checks enforce.  step() always decodes straight from memory.
  virtual void set_fast_paths(bool enabled) = 0;

  /// Execute a superblock: a cached straight-line run of predecoded
  /// instructions starting at the current pc, dispatched through per-op
  /// handler pointers so fetch→decode→dispatch is paid once per block.
  /// Semantics are bit-identical to calling step() `*consumed` times: the
  /// same trap, breakpoint, and trace-hook ordering, the same cycle
  /// charges, bounded exactly by `limits`.  `*consumed` is the number of
  /// machine-loop iterations the dispatch stands for (executed
  /// instructions, plus one for a trap or breakpoint stop — exactly what
  /// a step() would have charged against a harness step budget).
  /// Single steps while the fast paths are off.
  virtual StepResult step_block(const BlockLimits& limits, u64* consumed) = 0;
  virtual SuperblockStats superblock_stats() const = 0;
};

}  // namespace kfi::isa
