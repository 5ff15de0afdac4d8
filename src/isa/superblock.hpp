// The superblock engine: the hot-loop fast path of both CPU models.
//
// A superblock is a straight-line run of predecoded instructions plus
// their pre-resolved execute handlers, cached direct-mapped on the
// physical address of its first instruction, so fetch→decode→dispatch is
// paid once per block instead of once per instruction.  A block never
// leaves its first physical page and is valid only while that page's write
// version is unchanged: stores, injected flips and reboots into cached
// code force a rebuild lazily, with no store-side hooks.
//
// One engine serves both ISAs.  Each CPU model owns a
// SuperblockEngine<Cpu, Insn>, befriends it and forwards
// CpuCore::step_block to it.  The models are final classes, so the engine
// calls their hooks directly, with nothing virtual in the hot loop:
//   can_fetch()          the dispatch precondition: false when step()
//                        would fault before fetching, so the dispatch
//                        single-steps and step() raises
//   sb_index(phys)       cache index of a block starting at `phys`
//   sb_decode(pc, phys, insn, fn)
//                        decode one instruction from its page alone; its
//                        length, or 0 to end the block before it
//   block_terminator(insn)  end the block after `insn`
//   trace_fetch(insn, phys), trace_retire(insn)
//                        trace hooks around execution, only with a sink
//   take_halt()          clear and return a pending halt (a halt ends its
//                        block, so it is checked once per dispatch)
// and reads the state both models name alike: step(), pc(), space_,
// debug_, cycles_, current_result_, sink_ and TrapException.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/cpu.hpp"
#include "mem/address_space.hpp"

namespace kfi::isa {

template <class Cpu, class Insn>
class SuperblockEngine {
 public:
  using OpFn = void (*)(Cpu&, const Insn&);

  /// Allocate the block cache (or free it: a disabled engine single-steps
  /// every dispatch).
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    sblocks_.clear();
    sblocks_.shrink_to_fit();
    if (enabled) sblocks_.resize(kSuperblockEntries);
  }

  SuperblockStats stats() const { return sb_stats_; }

  /// CpuCore::step_block on `cpu` (see its contract in isa/cpu.hpp).
  StepResult step_block(Cpu& cpu, const BlockLimits& limits, u64* consumed) {
    *consumed = 1;
    if (!enabled_) return cpu.step();
    // Same order as step(): the breakpoint check precedes everything.  The
    // single-step fallbacks below re-check it harmlessly (a non-matching
    // check has no effect, and a matching one already returned here).
    if (cpu.debug_.check_insn_bp(cpu.pc())) {
      StepResult result;
      result.status = StepStatus::kInsnBp;
      return result;
    }
    // The precondition can only change in-block through a block terminator
    // or a trap, both of which end the block, so checking it at dispatch is
    // exact.  It keeps riscf's pc aligned, so the first byte's translation
    // covers the whole first instruction on both ISAs.
    if (!cpu.can_fetch()) return cpu.step();
    const auto tr = cpu.space_.translate(cpu.pc(), 1, mem::Access::kExecute);
    if (!tr.ok()) return cpu.step();  // unfetchable pc: step() raises
    mem::PhysicalMemory& pm = cpu.space_.phys();
    Superblock& blk =
        sblocks_[Cpu::sb_index(tr.phys) & (kSuperblockEntries - 1)];
    bool hit = false;
    if (blk.tag == tr.phys && blk.vpc == cpu.pc()) {
      if (blk.ver == pm.page_version(blk.page)) {
        hit = true;
      } else {
        ++sb_stats_.invalidations;
      }
    }
    if (hit) {
      ++sb_stats_.hits;
    } else {
      ++sb_stats_.misses;
      if (!build_block(cpu, blk, cpu.pc(), tr.phys)) return cpu.step();
    }
    ++sb_stats_.dispatches;

    StepResult result;
    cpu.current_result_ = &result;
    const u64 cycle_bound =
        limits.cycle_bound == 0 ? ~0ull : limits.cycle_bound;
    const u64 max_insns = limits.max_insns == 0 ? ~0ull : limits.max_insns;
    const u64 ver = blk.ver;
    const u32 page = blk.page;
    const u32 n = static_cast<u32>(blk.insns.size());
    // No instruction arms the breakpoint (only the harness does, between
    // run() calls), so an unarmed unit at dispatch stays unarmed for the
    // whole block and the per-insn check can be skipped.
    const bool bp_armed = cpu.debug_.insn_bp_armed();
    u64 done = 0;
    bool bp_stop = false;
    try {
      for (u32 i = 0; i < n; ++i) {
        if (i != 0) {
          // The machine loop's per-iteration order, inlined: step budget,
          // cycle-driven events, then the instruction breakpoint.
          if (done >= max_insns) break;
          if (cpu.cycles_ >= cycle_bound) break;
          if (bp_armed && cpu.debug_.check_insn_bp(cpu.pc())) {
            result.status = StepStatus::kInsnBp;
            bp_stop = true;
            break;
          }
        }
        const BlockInsn& bi = blk.insns[i];
        if (cpu.sink_ != nullptr) cpu.trace_fetch(bi.insn, bi.phys);
        bi.fn(cpu, bi.insn);
        if (cpu.sink_ != nullptr) cpu.trace_retire(bi.insn);
        cpu.cycles_ += 1;
        ++done;
        if (result.num_data_hits > 0) break;
        // A store into this block's own page (self-modification, injector
        // flip) may have rewritten the remaining cached instructions:
        // re-dispatch so they re-decode from current bytes.
        if (pm.page_version(page) != ver) break;
      }
    } catch (const typename Cpu::TrapException& te) {
      result.status = StepStatus::kTrap;
      result.trap = te.trap;
      cpu.cycles_ += 1;
    }
    if (result.status == StepStatus::kOk && cpu.take_halt()) {
      result.status = StepStatus::kHalted;
    }
    cpu.current_result_ = nullptr;
    sb_stats_.block_insns += done;
    // Executed instructions each stand for one machine-loop iteration; a
    // trap or breakpoint stop consumed one more, as its step() would have
    // against a harness step budget.
    *consumed = result.status == StepStatus::kTrap || bp_stop ? done + 1 : done;
    return result;
  }

 private:
  static constexpr u32 kNoTag = 0xFFFFFFFFu;  // no block starts at this byte
  static constexpr u32 kSuperblockEntries = 2048;
  static constexpr u32 kMaxBlockInsns = 32;

  struct BlockInsn {
    Insn insn{};
    OpFn fn = nullptr;
    u32 phys = 0;  // physical address of the first byte
  };
  struct Superblock {
    u32 tag = kNoTag;  // physical address of the first byte
    Addr vpc = 0;      // virtual pc (guards against phys aliasing)
    u32 page = 0;
    u64 ver = 0;
    std::vector<BlockInsn> insns;
  };

  /// (Re)build the block starting at vpc/phys0 in place; false when no
  /// block can start here and the caller must single-step.
  static bool build_block(const Cpu& cpu, Superblock& blk, Addr vpc,
                          u32 phys0) {
    const mem::PhysicalMemory& pm = cpu.space_.phys();
    blk.tag = kNoTag;
    blk.insns.clear();
    blk.vpc = vpc;
    blk.page = phys0 >> mem::kPageShift;
    blk.ver = pm.page_version(blk.page);
    Addr pc = vpc;
    u32 phys = phys0;
    while (blk.insns.size() < kMaxBlockInsns &&
           (phys >> mem::kPageShift) == blk.page) {
      BlockInsn bi;
      const u32 len = cpu.sb_decode(pc, phys, bi.insn, bi.fn);
      if (len == 0) break;
      bi.phys = phys;
      blk.insns.push_back(bi);
      pc += len;
      phys += len;
      if (Cpu::block_terminator(bi.insn)) break;
    }
    if (blk.insns.empty()) return false;
    blk.tag = phys0;
    return true;
  }

  bool enabled_ = false;
  std::vector<Superblock> sblocks_;  // allocated while enabled
  SuperblockStats sb_stats_;
};

}  // namespace kfi::isa
