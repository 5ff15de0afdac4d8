// Instruction-level interpreter for the riscf (G4-like) processor.
//
// Faithful to the properties the paper's analysis rests on:
//   * fixed 32-bit big-endian instructions over a sparse opcode map, so a
//     text bit flip corrupts exactly one instruction and frequently lands
//     on a reserved encoding (illegal instruction, Figure 15);
//   * word-aligned memory access with alignment exceptions;
//   * supervisor state in the MSR — clearing IR or DR (address
//     translation) machine-checks immediately, as the paper observed;
//   * HID0's branch-target-instruction-cache enable: switching BTIC on
//     over invalid contents corrupts the next taken branch (Section 5.2);
//   * no divide trap (PPC division does not except — Table 4 has no
//     divide-error category);
//   * a cycle counter standing in for the performance monitor.
#pragma once

#include <map>
#include <memory>

#include "isa/cpu.hpp"
#include "isa/superblock.hpp"
#include "mem/address_space.hpp"
#include "riscf/cause.hpp"
#include "riscf/insn.hpp"
#include "riscf/regs.hpp"

namespace kfi::riscf {

class RiscfSysRegs;  // defined in sysregs.hpp
struct RiscfOps;     // per-op execute handlers (cpu.cpp)

class RiscfCpu final : public isa::CpuCore {
 public:
  explicit RiscfCpu(mem::AddressSpace& space);
  ~RiscfCpu() override;

  RiscfCpu(const RiscfCpu&) = delete;
  RiscfCpu& operator=(const RiscfCpu&) = delete;

  // isa::CpuCore
  isa::StepResult step() override;
  Addr pc() const override { return regs_.pc; }
  void set_pc(Addr pc) override { regs_.pc = pc; }
  Cycles cycles() const override { return cycles_; }
  void add_cycles(Cycles n) override { cycles_ += n; }
  isa::DebugUnit& debug() override { return debug_; }
  isa::SystemRegisterBank& sysregs() override;
  Addr stack_pointer() const override { return regs_.gpr[kSp]; }
  isa::CpuSnapshot snapshot() const override;
  void restore(const isa::CpuSnapshot& snap) override;
  bool registers_equal(const isa::CpuSnapshot& snap) const override;
  u64 cycle_reads() const override { return cycle_reads_; }
  void set_fast_paths(bool enabled) override { sb_.set_enabled(enabled); }
  isa::StepResult step_block(const isa::BlockLimits& limits,
                             u64* consumed) override;
  isa::SuperblockStats superblock_stats() const override { return sb_.stats(); }
  void set_trace_sink(trace::TraceSink* sink) override { sink_ = sink; }
  trace::RegSlot sysreg_slot(u32 index) const override;

  RegFile& regs() { return regs_; }
  const RegFile& regs() const { return regs_; }
  mem::AddressSpace& space() { return space_; }

  /// Trace slot for an SPR number (kNoSlot if unimplemented); defined in
  /// sysregs.cpp next to the bank enumeration it must stay in sync with.
  static trace::RegSlot spr_slot(u32 spr);

  /// Generic SPR access (also used by mfspr/mtspr execution).  Returns
  /// false if the SPR is not implemented.
  bool read_spr(u32 spr, u32& value) const;
  bool write_spr(u32 spr, u32 value);

  /// Decode (without executing) the word at `pc`; diagnostics only.
  Insn decode_at(Addr pc) const;

 private:
  friend class RiscfSysRegs;
  friend struct RiscfOps;
  struct TrapException {
    isa::Trap trap;
  };

  using Superblocks = isa::SuperblockEngine<RiscfCpu, Insn>;
  friend Superblocks;

  // Superblock engine hooks (see isa/superblock.hpp).  Instructions are
  // fixed-size and aligned, so a block covers consecutive words of exactly
  // one physical page, and no fetch straddles a page.
  bool can_fetch() const {
    return (regs_.msr & kMsrIR) != 0 && (regs_.pc & 3) == 0;
  }
  static u32 sb_index(u32 phys) { return phys >> 2; }
  u32 sb_decode(Addr pc, u32 phys, Insn& insn, Superblocks::OpFn& fn) const;
  static bool block_terminator(const Insn& insn);
  void trace_fetch(const Insn& insn, u32 phys) {
    sink_->on_insn_fetch(kSlotPc, regs_.pc, phys, 4, 0, 0);
    trace_reads(insn);
  }
  void trace_retire(const Insn& insn) { trace_writes(insn); }
  static bool take_halt() { return false; }  // no halt instruction

  /// Call f(word) for every snapshot word, in snapshot order: the GPRs,
  /// the named registers, then the inert SPR storage.
  template <class F>
  void for_each_snapshot_word(F&& f) const;

  [[noreturn]] void raise(Cause cause, Addr addr = 0, bool has_addr = false,
                          u32 aux = 0);
  u32 read_mem(Addr addr, u8 width);
  void write_mem(Addr addr, u8 width, u32 value);
  void check_alignment(Addr ea, u8 width);
  void set_cr_field(u8 field, u32 bits4);
  void record_cr0(u32 result);
  void compare(u8 crfd, i64 a, i64 b);
  bool branch_cond(u8 bo, u8 bi);
  void taken_branch_check();
  void require_supervisor();
  void execute(const Insn& insn);

  /// Declarative register-flow passes around execute(): reads fold into
  /// the sink's per-instruction accumulator before the instruction runs,
  /// writes commit after it retires (skipped when the instruction traps,
  /// which matches the partial-retirement the trap leaves behind).  The
  /// four branch ops and the CR/SPR helpers hook themselves instead,
  /// because their register traffic depends on taken/not-taken outcomes.
  void trace_reads(const Insn& insn);
  void trace_writes(const Insn& insn);

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
  RegFile regs_;
  isa::DebugUnit debug_;
  Cycles cycles_ = 0;
  u64 cycle_reads_ = 0;  // mftb executions (see cycle_reads())
  isa::StepResult* current_result_ = nullptr;
  trace::TraceSink* sink_ = nullptr;
  std::map<u32, u32> spr_storage_;  // inert supervisor SPRs (BATs, PMCs, ...)
  Superblocks sb_;
  std::unique_ptr<RiscfSysRegs> sysregs_;
};

}  // namespace kfi::riscf
