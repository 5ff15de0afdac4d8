// Superblock (multi-instruction trace) execution contract for cisca:
// dispatching a cached straight-line block through per-op handler pointers
// must be bit-identical to single-stepping — same register results, same
// cycle charges, same trap ordering — and a write into a cached block's
// page (an injected flip or the program's own store) must invalidate the
// block so the corrupted bytes re-decode.  Results are compared against a
// CPU with its fast paths off running the identical program.
#include <gtest/gtest.h>

#include "cisca/cpu.hpp"
#include "cisca/encode.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {
namespace {

constexpr Addr kCode = 0x10000;

struct Rig {
  mem::AddressSpace space{256 * 1024, mem::Endian::kLittle};
  CiscaCpu cpu{space};

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

std::vector<u8> immediate_load_program() {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);  // B8 imm32
  a.hlt();
  return a.finish();
}

std::vector<u8> straight_line_program() {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);  // B8 imm32 at kCode + 0
  a.mov_r_imm(kEbx, 2);  // at kCode + 5
  a.mov_r_imm(kEcx, 3);  // at kCode + 10: imm byte at kCode + 11
  a.hlt();
  return a.finish();
}

TEST(CiscaSuperblockTest, InjectorFlipMidBlockIsReDecoded) {
  // The flip lands on the THIRD instruction of an already-cached block —
  // the block must be rebuilt, not just its first entry.
  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(straight_line_program());
    rig->run();
    ASSERT_EQ(rig->cpu.regs().gpr[kEcx], 3u);
    // The injector's path: flip bit 2 of the imm byte (3 -> 7).
    rig->space.vflip_bit(kCode + 11, 2);
    rig->cpu.set_pc(kCode);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[kEcx], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[kEcx], cold.cpu.regs().gpr[kEcx]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
  EXPECT_EQ(cold.cpu.superblock_stats().dispatches, 0u);
}

TEST(CiscaSuperblockTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `mov eax, 1` (caching its block), patches its imm
  // byte to 7 with an ordinary store, and loops; pass 2 must execute the
  // patched instruction.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.bind(start);
  a.mov_r_imm(kEax, 1);  // patched between passes
  a.alu_r_imm(Op::kCmp, kEbx, 0);
  a.jcc(kCondNE, done);
  a.mov_r_imm(kEbx, 1);
  a.mov_rm8_imm(MemOperand{.disp = static_cast<i32>(kCode + 1)}, 7);
  a.jmp(start);
  a.bind(done);
  a.hlt();
  const std::vector<u8> program = a.finish();

  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(program);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[kEax], 7u);
  EXPECT_EQ(warm.cpu.regs().gpr[kEax], cold.cpu.regs().gpr[kEax]);
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
}

TEST(CiscaSuperblockTest, UnmodifiedCodeHitsOnRedispatch) {
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

TEST(CiscaSuperblockTest, CorruptedCachedInsnMigratesClassAndReDecodes) {
  // `mov eax, imm32` (B8, load/store class) with bit 7 of the opcode
  // flipped becomes `cmp r/m8, r8` (38, ALU class).  Once the mov has
  // executed it sits in a cached block decoded from its old bytes; the
  // injector's flip must invalidate the block, or an opclass-targeted
  // campaign would keep attributing outcomes to the stale class.
  Rig warm(true);
  warm.load(immediate_load_program());
  warm.run();
  ASSERT_EQ(warm.cpu.regs().gpr[kEax], 1u);

  warm.space.vflip_bit(kCode, 7);  // B8 -> 38
  const DecodeResult corrupted = warm.cpu.decode_at(kCode);
  EXPECT_EQ(corrupted.insn.op, Op::kCmp);
  EXPECT_EQ(opclass(corrupted.insn.op), isa::OpClass::kAlu);

  // Re-execution must go through the corrupted bytes, not the block.
  warm.cpu.set_pc(kCode);
  warm.cpu.regs().gpr[kEax] = 0;
  warm.run();
  EXPECT_EQ(warm.cpu.regs().gpr[kEax], 0u);  // the mov is gone
  EXPECT_GE(warm.cpu.superblock_stats().invalidations, 1u);
}

TEST(CiscaSuperblockTest, BlockDispatchMatchesSingleSteppingInLockstep) {
  // Strongest equivalence check: after every block dispatch consuming k
  // iterations, k single steps on a fast-path-free CPU must land in the
  // bit-identical register state at the same cycle count.
  Asm a(kCode);
  const auto start = a.new_label();
  const auto done = a.new_label();
  a.mov_r_imm(kEax, 0);
  a.mov_r_imm(kEcx, 5);
  a.bind(start);
  a.alu_r_imm(Op::kCmp, kEcx, 0);
  a.jcc(kCondE, done);
  a.alu_r_imm(Op::kAdd, kEax, 7);
  a.alu_r_imm(Op::kSub, kEcx, 1);
  a.jmp(start);
  a.bind(done);
  a.hlt();
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

TEST(CiscaSuperblockTest, PageEdgeInstructionsJoinBlocksStraddlersStep) {
  // Two movs that end inside the page's last 13 bytes belong to a block;
  // the third straddles into the next page and single-steps.  Lockstep
  // against single-stepping must hold across the boundary.
  constexpr Addr kStart = kCode + 4096 - 12;
  Asm a(kStart);
  a.mov_r_imm(kEax, 1);  // kStart + 0..4
  a.mov_r_imm(kEbx, 2);  // kStart + 5..9
  a.mov_r_imm(kEcx, 3);  // kStart + 10..14: crosses the page end
  a.hlt();
  const std::vector<u8> program = a.finish();

  Rig blocked(true), stepped(false);
  for (Rig* rig : {&blocked, &stepped}) {
    rig->space.map_region("code2", kCode + 4096, 4096,
                          {.read = true, .write = true, .execute = true});
    rig->space.vwrite_bytes(kStart, program.data(),
                            static_cast<u32>(program.size()));
    rig->cpu.set_pc(kStart);
  }
  std::vector<u64> dispatches;
  for (u32 guard = 0; guard < 8; ++guard) {
    u64 consumed = 1;
    const isa::StepResult rb = blocked.cpu.step_block({}, &consumed);
    isa::StepResult rs;
    for (u64 k = 0; k < consumed; ++k) rs = stepped.cpu.step();
    dispatches.push_back(consumed);
    ASSERT_EQ(rb.status, rs.status) << "dispatch " << guard;
    ASSERT_EQ(blocked.cpu.snapshot().words, stepped.cpu.snapshot().words)
        << "dispatch " << guard;
    if (rb.status != isa::StepStatus::kOk) break;
  }
  EXPECT_EQ(blocked.cpu.regs().gpr[kEcx], 3u);
  // {mov, mov} as one block, the straddling mov alone, then the hlt.
  EXPECT_EQ(dispatches, (std::vector<u64>{2, 1, 1}));
}

TEST(CiscaSuperblockTest, MaxInsnsLimitBoundsTheDispatch) {
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
  EXPECT_EQ(rig.cpu.regs().gpr[kEcx], 3u);
}

TEST(CiscaSuperblockTest, CycleBoundStopsMidBlock) {
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
  EXPECT_EQ(rig.cpu.regs().gpr[kEax], 1u);
  EXPECT_EQ(rig.cpu.regs().gpr[kEbx], 0u);  // second insn did not run
}

}  // namespace
}  // namespace kfi::cisca
