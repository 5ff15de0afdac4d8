// Instruction-level interpreter for the cisca (P4-like) processor.
//
// Faithful to the properties the paper's analysis rests on:
//   * variable-length fetch/decode, so corrupted text re-aligns the stream
//     (Figure 14) — the CPU re-fetches and re-decodes from memory on every
//     step, so injected text bits take effect exactly like on hardware;
//   * 8/16/32-bit memory operands with packed kernel data (the reason data
//     and stack errors manifest more than on the G4);
//   * IA-32-style exceptions with NO stack-overflow report: a corrupted ESP
//     simply keeps running until something faults (Section 5.1);
//   * protected-mode state in CR0 and selector-checked FS/GS segments, so
//     system-register flips surface as #GP/#TS exactly as in Section 5.2;
//   * a cycle counter standing in for the performance registers used to
//     measure cycles-to-crash.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <utility>

#include "cisca/cause.hpp"
#include "cisca/decode.hpp"
#include "cisca/regs.hpp"
#include "common/bits.hpp"
#include "isa/cpu.hpp"
#include "isa/superblock.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {

/// One descriptor in the simulated GDT: valid FS/GS selectors map to a
/// base+limit window; anything else #GPs on use.
struct SegDescriptor {
  u32 selector;
  u32 base;
  u32 limit;  // highest valid offset
};

class CiscaSysRegs;  // defined in sysregs.hpp
struct CiscaOps;     // per-op execute handlers (cpu.cpp)

class CiscaCpu final : public isa::CpuCore {
 public:
  /// Optional hardware extension from the paper's Section 7 proposal:
  /// extend PUSH/POP semantics to check ESP against the current kernel
  /// stack bounds and raise an explicit fault.  Off by default (faithful
  /// P4); the ablation bench turns it on.
  struct Options {
    bool stack_limit_check = false;
  };

  explicit CiscaCpu(mem::AddressSpace& space) : CiscaCpu(space, Options{}) {}
  CiscaCpu(mem::AddressSpace& space, Options options);
  ~CiscaCpu() override;

  CiscaCpu(const CiscaCpu&) = delete;
  CiscaCpu& operator=(const CiscaCpu&) = delete;

  // isa::CpuCore
  isa::StepResult step() override;
  Addr pc() const override { return regs_.eip; }
  void set_pc(Addr pc) override { regs_.eip = pc; }
  Cycles cycles() const override { return cycles_; }
  void add_cycles(Cycles n) override { cycles_ += n; }
  isa::DebugUnit& debug() override { return debug_; }
  isa::SystemRegisterBank& sysregs() override;
  Addr stack_pointer() const override { return regs_.gpr[kEsp]; }
  isa::CpuSnapshot snapshot() const override;
  void restore(const isa::CpuSnapshot& snap) override;
  bool registers_equal(const isa::CpuSnapshot& snap) const override;
  void set_fast_paths(bool enabled) override { sb_.set_enabled(enabled); }
  isa::StepResult step_block(const isa::BlockLimits& limits,
                             u64* consumed) override;
  isa::SuperblockStats superblock_stats() const override { return sb_.stats(); }
  void set_trace_sink(trace::TraceSink* sink) override { sink_ = sink; }
  trace::RegSlot sysreg_slot(u32 index) const override;

  RegFile& regs() { return regs_; }
  const RegFile& regs() const { return regs_; }
  mem::AddressSpace& space() { return space_; }

  /// Set the bounds used by the optional PUSH/POP stack-limit extension.
  void set_stack_bounds(Addr lo, Addr hi) {
    stack_lo_ = lo;
    stack_hi_ = hi;
  }
  const Options& options() const { return options_; }

  /// Decode (without executing) the instruction at `pc`; diagnostics only.
  DecodeResult decode_at(Addr pc) const;

 private:
  friend class CiscaSysRegs;
  friend struct CiscaOps;
  struct TrapException {
    isa::Trap trap;
  };

  using Superblocks = isa::SuperblockEngine<CiscaCpu, Insn>;
  friend Superblocks;

  // Superblock engine hooks (see isa/superblock.hpp).  Blocks follow the
  // page rule: every member instruction lies wholly in the block's first
  // physical page, so re-aligned corrupted streams decode as step() would
  // and the fetch-hook span is always single-page.
  bool can_fetch() const {
    return test_bit(regs_.cr0, kCr0PE) && test_bit(regs_.cr0, kCr0PG);
  }
  static u32 sb_index(u32 phys) { return phys; }
  u32 sb_decode(Addr pc, u32 phys, Insn& insn, Superblocks::OpFn& fn) const;
  static bool block_terminator(const Insn& insn);
  void trace_fetch(const Insn& insn, u32 phys) {
    sink_->on_insn_fetch(kSlotEip, regs_.eip, phys, insn.length, 0, 0);
  }
  void trace_retire(const Insn&) {}
  bool take_halt() { return std::exchange(halted_pending_, false); }

  /// The register file as the snapshot's word list, in snapshot order.
  static constexpr u32 kSnapshotWords = 28;
  std::array<u32, kSnapshotWords> snapshot_words() const;

  [[noreturn]] void raise(Cause cause, Addr addr = 0, bool has_addr = false,
                          u32 aux = 0);
  FetchWindow fetch_window(Addr pc) const;
  u32 effective_addr(const MemOperand& mem);
  u32 resolve_seg_base(SegOverride seg, u32 offset);
  u32 read_mem(Addr addr, u8 width);
  void write_mem(Addr addr, u8 width, u32 value);
  u32 read_operand(const Operand& op, u8 width);
  void write_operand(const Operand& op, u8 width, u32 value);
  u32 read_reg(u8 reg, u8 width) const;
  void write_reg(u8 reg, u8 width, u32 value);
  void push32(u32 value);
  u32 pop32();
  void check_stack_extension(Addr new_esp);
  void set_flags_logic(u32 result, u8 width);
  void set_flags_add(u64 a, u64 b, u64 carry_in, u8 width);
  void set_flags_sub(u64 a, u64 b, u64 borrow_in, u8 width);
  bool eval_cond(u8 cond) const;
  void execute(const Insn& insn);

  // Trace-hook shorthands: one predictable null check when tracing is off,
  // mirroring the current_result_ guard on debug-access recording.
  void trace_rr(trace::RegSlot slot) const {
    if (sink_ != nullptr) sink_->on_reg_read(slot);
  }
  void trace_rw(trace::RegSlot slot) {
    if (sink_ != nullptr) sink_->on_reg_write(slot);
  }
  void trace_rm(trace::RegSlot slot) {
    if (sink_ != nullptr) sink_->on_reg_merge(slot);
  }
  void trace_branch() const {
    if (sink_ != nullptr) sink_->on_branch_decision();
  }

  mem::AddressSpace& space_;
  Options options_;
  RegFile regs_;
  isa::DebugUnit debug_;
  Cycles cycles_ = 0;
  isa::StepResult* current_result_ = nullptr;
  trace::TraceSink* sink_ = nullptr;
  Addr stack_lo_ = 0, stack_hi_ = 0;
  bool halted_pending_ = false;
  Superblocks sb_;
  std::unique_ptr<CiscaSysRegs> sysregs_;
};

/// The simulated GDT entries for FS/GS (fixed at boot, like the kernel's).
const SegDescriptor* lookup_descriptor(u32 selector);

}  // namespace kfi::cisca
