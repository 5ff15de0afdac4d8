// Superblock (multi-instruction trace) execution contract for riscf:
// dispatching a cached straight-line block through per-op handler pointers
// must be bit-identical to single-stepping — same register results, same
// cycle charges, same trap ordering — and a write into a cached block's
// page (an injected flip or the program's own store) must invalidate the
// block so the corrupted bytes re-decode.  Results are compared against a
// CPU with its fast paths off running the identical program.
#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "riscf/cpu.hpp"
#include "riscf/encode.hpp"

namespace kfi::riscf {
namespace {

constexpr Addr kCode = 0x10000;
constexpr Addr kData = 0x20000;     // mapped by the data-breakpoint case
constexpr Addr kUnmapped = 0x7000;  // never mapped; a 16-bit displacement

struct Rig {
  mem::AddressSpace space{256 * 1024, mem::Endian::kBig};
  RiscfCpu cpu{space};

  explicit Rig(bool fast_paths) {
    space.map_region("code", kCode, 4096,
                     {.read = true, .write = true, .execute = true});
    cpu.set_fast_paths(fast_paths);
  }

  void load(const std::vector<u8>& bytes) {
    space.vwrite_bytes(kCode, bytes.data(), static_cast<u32>(bytes.size()));
    cpu.set_pc(kCode);
  }

  /// Drive the CPU the way the machine loop does: block dispatches with
  /// unbounded limits, stopping at the first non-kOk status.
  isa::StepResult run(u32 max_blocks = 200) {
    for (u32 i = 0; i < max_blocks; ++i) {
      u64 consumed = 1;
      const isa::StepResult r = cpu.step_block({}, &consumed);
      if (r.status != isa::StepStatus::kOk) return r;
    }
    ADD_FAILURE() << "did not stop";
    return {};
  }
};

std::vector<u8> straight_line_program() {
  Asm a(kCode);
  a.li(3, 1);  // kCode + 0
  a.li(4, 2);  // kCode + 4
  a.li(5, 3);  // kCode + 8: simm low byte at kCode + 11
  a.sc();
  return a.finish();
}

TEST(RiscfSuperblockTest, InjectorFlipMidBlockIsReDecoded) {
  // The flip lands on the THIRD instruction of an already-cached block —
  // the block must be rebuilt, not just its first entry.
  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(straight_line_program());
    rig->run();
    ASSERT_EQ(rig->cpu.regs().gpr[5], 3u);
    // The injector's path: flip bit 2 of the simm byte (3 -> 7).
    rig->space.vflip_bit(kCode + 11, 2);
    rig->cpu.set_pc(kCode);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[5], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[5], cold.cpu.regs().gpr[5]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
  EXPECT_EQ(cold.cpu.superblock_stats().dispatches, 0u);
}

TEST(RiscfSuperblockTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `li r3, 1` (caching its block), stores the encoding
  // of `li r3, 7` over it, and branches back; pass 2 must execute the
  // patched word.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.bind(start);
  a.li(3, 1);  // patched between passes
  a.cmpwi(4, 0);
  a.bne(done);
  a.li(4, 1);
  a.li32(5, 0x38600007u);  // addi r3, 0, 7
  a.li32(6, kCode);
  a.stw(5, 0, 6);
  a.b(start);
  a.bind(done);
  a.sc();
  const std::vector<u8> program = a.finish();

  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(program);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[3], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[3], cold.cpu.regs().gpr[3]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
}

TEST(RiscfSuperblockTest, UnmodifiedCodeHitsOnRedispatch) {
  Rig warm(true);
  warm.load(straight_line_program());
  warm.run();
  const auto first = warm.cpu.superblock_stats();
  EXPECT_GE(first.misses, 1u);
  warm.cpu.set_pc(kCode);
  warm.run();
  const auto second = warm.cpu.superblock_stats();
  EXPECT_EQ(second.misses, first.misses);  // re-dispatch came from the cache
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.invalidations, 0u);
  EXPECT_GT(second.mean_block_len(), 1.0);
}

TEST(RiscfSuperblockTest, BlockDispatchMatchesSingleSteppingInLockstep) {
  // Strongest equivalence check: after every block dispatch consuming k
  // iterations, k single steps on a fast-path-free CPU must land in the
  // bit-identical register state at the same cycle count.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.li(3, 0);
  a.li(4, 5);
  a.bind(start);
  a.cmpwi(4, 0);
  a.beq(done);
  a.li32(5, 0x1000);
  a.addi(3, 3, 7);
  a.addi(4, 4, -1);
  a.b(start);
  a.bind(done);
  a.sc();
  const std::vector<u8> program = a.finish();

  Rig blocked(true), stepped(false);
  blocked.load(program);
  stepped.load(program);
  for (u32 guard = 0; guard < 200; ++guard) {
    u64 consumed = 1;
    const isa::StepResult rb = blocked.cpu.step_block({}, &consumed);
    isa::StepResult rs;
    for (u64 k = 0; k < consumed; ++k) rs = stepped.cpu.step();
    ASSERT_EQ(rb.status, rs.status) << "dispatch " << guard;
    ASSERT_EQ(blocked.cpu.snapshot().words, stepped.cpu.snapshot().words)
        << "dispatch " << guard;
    ASSERT_EQ(blocked.cpu.cycles(), stepped.cpu.cycles())
        << "dispatch " << guard;
    if (rb.status != isa::StepStatus::kOk) return;
  }
  FAIL() << "did not stop";
}

TEST(RiscfSuperblockTest, CorruptedWordStillTrapsWithTheRightAux) {
  // A flip that lands on a reserved encoding must raise Illegal
  // Instruction carrying the corrupted word, whether the word sat in a
  // cached block or not (the paper's dominant G4 text-error outcome).
  Rig warm(true), cold(false);
  isa::Trap traps[2];
  int i = 0;
  for (Rig* rig : {&warm, &cold}) {
    Asm a(kCode);
    a.li(3, 1);
    a.sc();
    rig->load(a.finish());
    rig->run();
    // Corrupt the cached li's primary opcode field to a reserved one.
    rig->space.vwrite32(kCode, 0x00000001u);
    rig->cpu.set_pc(kCode);
    const isa::StepResult r = rig->run();
    ASSERT_EQ(r.status, isa::StepStatus::kTrap);
    traps[i++] = r.trap;
  }
  EXPECT_EQ(traps[0].cause, traps[1].cause);
  EXPECT_EQ(traps[0].aux, 0x00000001u);
  EXPECT_EQ(traps[0].aux, traps[1].aux);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
}

TEST(RiscfSuperblockTest, MaxInsnsLimitBoundsTheDispatch) {
  // A step budget of 1 per dispatch degenerates to single-stepping.
  Rig rig(true);
  rig.load(straight_line_program());
  isa::BlockLimits limits;
  limits.max_insns = 1;
  for (u32 i = 0; i < 3; ++i) {
    u64 consumed = 0;
    ASSERT_EQ(rig.cpu.step_block(limits, &consumed).status,
              isa::StepStatus::kOk);
    EXPECT_EQ(consumed, 1u);
  }
  EXPECT_EQ(rig.cpu.regs().gpr[5], 3u);
}

TEST(RiscfSuperblockTest, CycleBoundStopsMidBlock) {
  // The first instruction of a dispatch always executes (the machine loop
  // already passed its cycle checks); the bound stops the block before
  // the next one, exactly like the loop would have.
  Rig rig(true);
  rig.load(straight_line_program());
  isa::BlockLimits limits;
  limits.cycle_bound = rig.cpu.cycles() + 1;
  u64 consumed = 0;
  ASSERT_EQ(rig.cpu.step_block(limits, &consumed).status,
            isa::StepStatus::kOk);
  EXPECT_EQ(consumed, 1u);
  EXPECT_EQ(rig.cpu.regs().gpr[3], 1u);
  EXPECT_EQ(rig.cpu.regs().gpr[4], 0u);  // second insn did not run
}

// Dispatch contract: a dispatch that stops on its k-th instruction stands
// for exactly k machine-loop iterations.

TEST(RiscfSuperblockTest, TrapOnTheKthInsnConsumesK) {
  // The third instruction faults: two retire, plus one for the trap.
  Asm a(kCode);
  a.li(3, 1);
  a.li(4, 2);
  a.lwz(5, static_cast<i32>(kUnmapped), 0);  // kCode + 8: DSI
  a.sc();
  Rig rig(true);
  rig.load(a.finish());
  u64 consumed = 0;
  const isa::StepResult r = rig.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kTrap);
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(r.trap.cause, static_cast<u32>(Cause::kDataStorage));
  EXPECT_EQ(r.trap.pc, kCode + 8);
  EXPECT_EQ(r.trap.addr, kUnmapped);
  EXPECT_EQ(rig.cpu.regs().gpr[4], 2u);
  EXPECT_EQ(rig.cpu.superblock_stats().dispatches, 1u);
}

TEST(RiscfSuperblockTest, ArmedInsnBreakpointOnTheKthInsnConsumesK) {
  // The breakpoint sits on the third instruction: two retire, plus one
  // for the breakpoint stop; the instruction itself does not execute.
  Rig rig(true);
  rig.load(straight_line_program());
  rig.cpu.debug().arm_insn_bp(kCode + 8);
  u64 consumed = 0;
  const isa::StepResult r = rig.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kInsnBp);
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(rig.cpu.pc(), kCode + 8);
  EXPECT_EQ(rig.cpu.regs().gpr[4], 2u);
  EXPECT_EQ(rig.cpu.regs().gpr[5], 0u);
  // The breakpoint fired once; the next dispatch runs on to the sc.
  EXPECT_EQ(rig.run().status, isa::StepStatus::kTrap);
  EXPECT_EQ(rig.cpu.regs().gpr[5], 3u);
}

TEST(RiscfSuperblockTest, DataBreakpointHitEndsTheDispatchAfterThatInsn) {
  Asm a(kCode);
  a.li(3, 1);
  a.lis(6, static_cast<i32>(kData >> 16));
  a.stw(3, 0, 6);  // hits
  a.li(4, 2);
  a.sc();
  Rig rig(true);
  rig.space.map_region("data", kData, 4096, {.read = true, .write = true});
  rig.load(a.finish());
  rig.cpu.debug().arm_data_bp(0, kData, 4, /*on_read=*/false,
                              /*on_write=*/true);
  u64 consumed = 0;
  const isa::StepResult r = rig.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kOk);
  EXPECT_EQ(consumed, 3u);
  ASSERT_EQ(r.num_data_hits, 1u);
  EXPECT_EQ(r.data_hits[0].addr, kData);
  EXPECT_TRUE(r.data_hits[0].is_write);
  EXPECT_EQ(rig.cpu.regs().gpr[4], 0u);  // the next insn did not run
  EXPECT_EQ(rig.run().status, isa::StepStatus::kTrap);
  EXPECT_EQ(rig.cpu.regs().gpr[4], 2u);
}

}  // namespace
}  // namespace kfi::riscf
