// Superblock (multi-instruction trace) execution contract for cisca:
// dispatching a cached straight-line block through per-op handler pointers
// must be bit-identical to single-stepping — same register results, same
// cycle charges, same trap ordering — and a write into a cached block's
// page (an injected flip or the program's own store) must invalidate the
// block so the corrupted bytes re-decode.  Results are compared against a
// CPU with its fast paths off running the identical program.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cisca/cpu.hpp"
#include "cisca/encode.hpp"
#include "mem/address_space.hpp"
#include "trace/sink.hpp"

namespace kfi::cisca {
namespace {

constexpr Addr kCode = 0x10000;
constexpr Addr kData = 0x20000;      // mapped by the data-breakpoint case
constexpr Addr kUnmapped = 0x30000;  // never mapped

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

// Dispatch contract: a dispatch that stops on its k-th instruction stands
// for exactly k machine-loop iterations.

TEST(CiscaSuperblockTest, TrapOnTheKthInsnConsumesK) {
  // The third instruction faults: two retire, plus one for the trap.
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);                                          // + 0
  a.mov_r_imm(kEbx, 2);                                          // + 5
  a.mov_r_rm(kEcx, MemOperand{.disp = static_cast<i32>(kUnmapped)});  // + 10
  a.hlt();
  Rig rig(true);
  rig.load(a.finish());
  u64 consumed = 0;
  const isa::StepResult r = rig.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kTrap);
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(r.trap.cause, static_cast<u32>(Cause::kPageFault));
  EXPECT_EQ(r.trap.pc, kCode + 10);
  EXPECT_EQ(r.trap.addr, kUnmapped);
  EXPECT_EQ(rig.cpu.regs().gpr[kEbx], 2u);
  EXPECT_EQ(rig.cpu.superblock_stats().dispatches, 1u);
}

TEST(CiscaSuperblockTest, ArmedInsnBreakpointOnTheKthInsnConsumesK) {
  // The breakpoint sits on the third instruction: two retire, plus one
  // for the breakpoint stop; the instruction itself does not execute.
  Rig rig(true);
  rig.load(straight_line_program());
  rig.cpu.debug().arm_insn_bp(kCode + 10);
  u64 consumed = 0;
  const isa::StepResult r = rig.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kInsnBp);
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(rig.cpu.pc(), kCode + 10);
  EXPECT_EQ(rig.cpu.regs().gpr[kEbx], 2u);
  EXPECT_EQ(rig.cpu.regs().gpr[kEcx], 0u);
  // The breakpoint fired once; the next dispatch runs on to the hlt.
  EXPECT_EQ(rig.run().status, isa::StepStatus::kHalted);
  EXPECT_EQ(rig.cpu.regs().gpr[kEcx], 3u);
}

TEST(CiscaSuperblockTest, DataBreakpointHitEndsTheDispatchAfterThatInsn) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);
  a.mov_rm_r(MemOperand{.disp = static_cast<i32>(kData)}, kEax);  // hits
  a.mov_r_imm(kEbx, 2);
  a.hlt();
  Rig rig(true);
  rig.space.map_region("data", kData, 4096, {.read = true, .write = true});
  rig.load(a.finish());
  rig.cpu.debug().arm_data_bp(0, kData, 4, /*on_read=*/false,
                              /*on_write=*/true);
  u64 consumed = 0;
  const isa::StepResult r = rig.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kOk);
  EXPECT_EQ(consumed, 2u);
  ASSERT_EQ(r.num_data_hits, 1u);
  EXPECT_EQ(r.data_hits[0].addr, kData);
  EXPECT_TRUE(r.data_hits[0].is_write);
  EXPECT_EQ(rig.cpu.regs().gpr[kEbx], 0u);  // the next insn did not run
  EXPECT_EQ(rig.run().status, isa::StepStatus::kHalted);
  EXPECT_EQ(rig.cpu.regs().gpr[kEbx], 2u);
}

TEST(CiscaSuperblockTest,
     InvalidOpcodeRaisesUdWithItsByteAtBlockStartAndMidBlock) {
  // 0x06 and 0x0E (push es/cs) are undefined in this flat kernel model.
  // #UD carries the first opcode byte in aux, whether the invalid byte
  // opens a dispatch or ends a block that ran before it.
  Rig start(true);
  start.load({0x06});
  u64 consumed = 0;
  isa::StepResult r = start.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kTrap);
  EXPECT_EQ(consumed, 1u);
  EXPECT_EQ(r.trap.cause, static_cast<u32>(Cause::kInvalidOpcode));
  EXPECT_EQ(r.trap.pc, kCode);
  EXPECT_EQ(r.trap.aux, 0x06u);

  Asm a(kCode);
  a.mov_r_imm(kEax, 1);
  a.mov_r_imm(kEbx, 2);
  a.emit_bytes({0x0E});  // at kCode + 10
  Rig mid(true);
  mid.load(a.finish());
  r = mid.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kOk);
  EXPECT_EQ(consumed, 2u);
  r = mid.cpu.step_block({}, &consumed);
  ASSERT_EQ(r.status, isa::StepStatus::kTrap);
  EXPECT_EQ(consumed, 1u);
  EXPECT_EQ(r.trap.cause, static_cast<u32>(Cause::kInvalidOpcode));
  EXPECT_EQ(r.trap.pc, kCode + 10);
  EXPECT_EQ(r.trap.aux, 0x0Eu);
  EXPECT_EQ(mid.cpu.regs().gpr[kEbx], 2u);
}

// Trap-instruction contract.  int 0x80 and int 0x83 run on every kernel
// entry and exit; int 0x82, other vectors and ud2 are rarer.  Whichever
// way a CPU delivers them, a trapping instruction must end its dispatch
// with the same status, trap and cycle charge as single-stepping, count
// one machine-loop iteration for the trap, and leave the trace showing
// its fetch but no retirement.

/// Records the CPU-side trace hooks in call order.
class HookLog final : public trace::TraceSink {
 public:
  std::vector<std::string> events;

  void on_insn_fetch(trace::RegSlot slot, Addr pc, u32 phys1, u32 len1,
                     u32 phys2, u32 len2) override {
    add("fetch", {slot, pc, phys1, len1, phys2, len2});
  }
  void on_reg_read(trace::RegSlot slot) override { add("read", {slot}); }
  void on_reg_write(trace::RegSlot slot) override { add("write", {slot}); }
  void on_reg_merge(trace::RegSlot slot) override { add("merge", {slot}); }
  void on_mem_read(Addr va, u32 phys, u32 len) override {
    add("mem_read", {va, phys, len});
  }
  void on_mem_write(Addr va, u32 phys, u32 len) override {
    add("mem_write", {va, phys, len});
  }
  void on_branch_decision() override { add("branch", {}); }
  void on_priv_transition(trace::PrivEvent) override { add("priv", {}); }
  void on_ctx_save(trace::RegSlot, u32) override { add("ctx_save", {}); }
  void on_ctx_restore(trace::RegSlot, u32) override {
    add("ctx_restore", {});
  }
  void on_glue_reg_set(trace::RegSlot) override { add("glue_set", {}); }
  void on_glue_mem_set(u32, u32) override { add("glue_mem", {}); }
  void on_glue_reg_copy(trace::RegSlot, trace::RegSlot) override {
    add("glue_copy", {});
  }
  void on_syscall_result(trace::RegSlot) override { add("result", {}); }

  static std::string fetch(Addr pc, u32 phys, u32 len) {
    return format("fetch", {kSlotEip, pc, phys, len, 0, 0});
  }
  static std::string write(trace::RegSlot slot) {
    return format("write", {slot});
  }

 private:
  static std::string format(const char* name, std::vector<u32> args) {
    std::string out = name;
    for (const u32 a : args) out += " " + std::to_string(a);
    return out;
  }
  void add(const char* name, std::vector<u32> args) {
    events.push_back(format(name, std::move(args)));
  }
};

struct TrapCase {
  const char* name;
  std::vector<u8> bytes;  // the trapping instruction
  Cause cause;
  u32 aux;
  bool advances;  // the trap pc is the return address
};

std::vector<TrapCase> trap_cases() {
  const auto encode = [](auto emit) {
    Asm a(kCode);
    emit(a);
    return a.finish();
  };
  return {
      {"int 0x80", encode([](Asm& a) { a.int_(0x80); }), Cause::kSyscall, 0,
       true},
      {"int 0x83", encode([](Asm& a) { a.int_(0x83); }),
       Cause::kSyscallReturn, 0, true},
      {"int 0x82", encode([](Asm& a) { a.int_(0x82); }), Cause::kKernelPanic,
       0, true},
      {"int 0x42", encode([](Asm& a) { a.int_(0x42); }),
       Cause::kGeneralProtection, 0x42, true},
      {"ud2", encode([](Asm& a) { a.ud2(); }), Cause::kInvalidOpcode, 0x0F0B,
       false},
  };
}

TEST(CiscaSuperblockTest, TrapInstructionAtBlockEndMatchesTheContract) {
  for (const TrapCase& tc : trap_cases()) {
    SCOPED_TRACE(tc.name);
    Asm a(kCode);
    a.mov_r_imm(kEax, 1);  // + 0
    a.mov_r_imm(kEbx, 2);  // + 5
    a.emit_bytes(tc.bytes);  // + 10
    const std::vector<u8> program = a.finish();
    const u32 len = static_cast<u32>(tc.bytes.size());
    const Addr trap_pc = kCode + 10 + (tc.advances ? len : 0);

    Rig rig(true);
    HookLog hooks;
    rig.load(program);
    rig.cpu.set_trace_sink(&hooks);
    const u32 phys = rig.space.translate(kCode, 1, mem::Access::kRead).phys;
    u64 consumed = 0;
    const isa::StepResult r = rig.cpu.step_block({}, &consumed);
    ASSERT_EQ(r.status, isa::StepStatus::kTrap);
    EXPECT_EQ(r.trap.cause, static_cast<u32>(tc.cause));
    EXPECT_EQ(r.trap.pc, trap_pc);
    EXPECT_FALSE(r.trap.has_addr);
    EXPECT_EQ(r.trap.aux, tc.aux);
    EXPECT_EQ(rig.cpu.pc(), trap_pc);
    EXPECT_EQ(consumed, 3u);             // two retire, one for the trap
    EXPECT_EQ(rig.cpu.cycles(), 3u);     // the trap is charged one cycle
    EXPECT_EQ(rig.cpu.superblock_stats().block_insns, 2u);
    EXPECT_EQ(hooks.events,
              (std::vector<std::string>{
                  HookLog::fetch(kCode, phys, 5), HookLog::write(kEax),
                  HookLog::fetch(kCode + 5, phys + 5, 5), HookLog::write(kEbx),
                  HookLog::fetch(kCode + 10, phys + 10, len)}));

    // Single-stepping the same program agrees on everything.
    Rig stepped(false);
    HookLog step_hooks;
    stepped.load(program);
    stepped.cpu.set_trace_sink(&step_hooks);
    isa::StepResult rs;
    for (u32 k = 0; k < 3; ++k) rs = stepped.cpu.step();
    ASSERT_EQ(rs.status, isa::StepStatus::kTrap);
    EXPECT_EQ(rs.trap.cause, r.trap.cause);
    EXPECT_EQ(rs.trap.pc, r.trap.pc);
    EXPECT_EQ(rs.trap.aux, r.trap.aux);
    EXPECT_EQ(stepped.cpu.cycles(), rig.cpu.cycles());
    EXPECT_EQ(stepped.cpu.snapshot().words, rig.cpu.snapshot().words);
    EXPECT_EQ(step_hooks.events, hooks.events);
  }
}

TEST(CiscaSuperblockTest, TrapInstructionSingleStepMatchesTheContract) {
  // Alone at block start (a dispatch of one) and through step(), with
  // fast paths on and off.
  for (const TrapCase& tc : trap_cases()) {
    SCOPED_TRACE(tc.name);
    const u32 len = static_cast<u32>(tc.bytes.size());
    const Addr trap_pc = kCode + (tc.advances ? len : 0);
    for (const bool via_block : {true, false}) {
      SCOPED_TRACE(via_block ? "step_block" : "step");
      Rig rig(via_block);
      HookLog hooks;
      rig.load(tc.bytes);
      rig.cpu.set_trace_sink(&hooks);
      const u32 phys = rig.space.translate(kCode, 1, mem::Access::kRead).phys;
      u64 consumed = 0;
      const isa::StepResult r =
          via_block ? rig.cpu.step_block({}, &consumed) : rig.cpu.step();
      ASSERT_EQ(r.status, isa::StepStatus::kTrap);
      EXPECT_EQ(r.trap.cause, static_cast<u32>(tc.cause));
      EXPECT_EQ(r.trap.pc, trap_pc);
      EXPECT_FALSE(r.trap.has_addr);
      EXPECT_EQ(r.trap.aux, tc.aux);
      EXPECT_EQ(r.num_data_hits, 0u);
      EXPECT_EQ(rig.cpu.pc(), trap_pc);
      EXPECT_EQ(rig.cpu.cycles(), 1u);
      if (via_block) {
        EXPECT_EQ(consumed, 1u);
      }
      EXPECT_EQ(hooks.events, (std::vector<std::string>{
                                  HookLog::fetch(kCode, phys, len)}));
      // The trap is delivered once: the next instruction runs normally.
      rig.space.vwrite8(rig.cpu.pc(), 0xF4);  // hlt
      EXPECT_EQ(rig.cpu.step().status, isa::StepStatus::kHalted);
    }
  }
}

}  // namespace
}  // namespace kfi::cisca
