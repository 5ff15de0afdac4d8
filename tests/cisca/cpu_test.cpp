// Execution-semantics tests for the cisca (P4-like) CPU: arithmetic and
// flags, stack discipline, control flow, exceptions (the Table 3 crash
// categories), segment checks, and the snapshot/restore contract.
#include <gtest/gtest.h>

#include "cisca/cpu.hpp"
#include "common/bits.hpp"
#include "cisca/encode.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {
namespace {

constexpr Addr kCode = 0x10000;
constexpr Addr kData = 0x20000;
constexpr Addr kStackTop = 0x31000;

class CiscaCpuTest : public ::testing::Test {
 protected:
  CiscaCpuTest() : space_(256 * 1024, mem::Endian::kLittle), cpu_(space_) {
    space_.map_region("code", kCode, 4096,
                      {.read = true, .write = false, .execute = true});
    space_.map_region("data", kData, 4096, {.read = true, .write = true});
    space_.map_region("stack", kStackTop - 4096, 4096,
                      {.read = true, .write = true});
    cpu_.regs().gpr[kEsp] = kStackTop;
  }

  void load(Asm& a) {
    const std::vector<u8> bytes = a.finish();
    space_.vwrite_bytes(kCode, bytes.data(), static_cast<u32>(bytes.size()));
    cpu_.set_pc(kCode);
  }

  isa::StepResult step() { return cpu_.step(); }

  /// Step until trap or halt; bounded.
  isa::StepResult run(u32 max_steps = 1000) {
    for (u32 i = 0; i < max_steps; ++i) {
      const isa::StepResult r = cpu_.step();
      if (r.status != isa::StepStatus::kOk) return r;
    }
    ADD_FAILURE() << "did not stop";
    return {};
  }

  Cause trap_cause(const isa::StepResult& r) {
    EXPECT_EQ(r.status, isa::StepStatus::kTrap);
    return static_cast<Cause>(r.trap.cause);
  }

  mem::AddressSpace space_;
  CiscaCpu cpu_;
};

TEST_F(CiscaCpuTest, MovAndAdd) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 40);
  a.mov_r_imm(kEbx, 2);
  a.alu_rr(Op::kAdd, kEax, kEbx);
  a.hlt();
  load(a);
  EXPECT_EQ(run().status, isa::StepStatus::kHalted);
  EXPECT_EQ(cpu_.regs().gpr[kEax], 42u);
}

TEST_F(CiscaCpuTest, FlagsDriveConditionalBranch) {
  Asm a(kCode);
  const auto skip = a.new_label();
  a.mov_r_imm(kEax, 5);
  a.alu_r_imm(Op::kCmp, kEax, 5);
  a.jcc(kCondE, skip);
  a.mov_r_imm(kEbx, 1);  // skipped
  a.bind(skip);
  a.mov_r_imm(kEcx, 2);
  a.hlt();
  load(a);
  run();
  EXPECT_EQ(cpu_.regs().gpr[kEbx], 0u);
  EXPECT_EQ(cpu_.regs().gpr[kEcx], 2u);
}

TEST_F(CiscaCpuTest, PushPopAndCallRet) {
  Asm a(kCode);
  const auto fn = a.new_label();
  a.mov_r_imm(kEax, 7);
  a.call(fn);
  a.hlt();
  a.bind(fn);
  a.inc_r(kEax);
  a.ret();
  load(a);
  run();
  EXPECT_EQ(cpu_.regs().gpr[kEax], 8u);
  EXPECT_EQ(cpu_.regs().gpr[kEsp], kStackTop);  // balanced
}

TEST_F(CiscaCpuTest, ByteAndWordMemoryAccess) {
  Asm a(kCode);
  MemOperand m;
  m.disp = static_cast<i32>(kData);
  a.mov_rm_imm(m, 0x11223344);
  MemOperand m1 = m;
  m1.disp += 1;
  a.movzx_r_rm8(kEcx, m1);  // second byte of the little-endian word
  a.movzx_r_rm16(kEdx, m);
  a.hlt();
  load(a);
  run();
  EXPECT_EQ(cpu_.regs().gpr[kEcx], 0x33u);
  EXPECT_EQ(cpu_.regs().gpr[kEdx], 0x3344u);
}

TEST_F(CiscaCpuTest, HighByteRegistersWork) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 0);
  a.mov_r8_imm(4, 0xAB);  // AH
  a.hlt();
  load(a);
  run();
  EXPECT_EQ(cpu_.regs().gpr[kEax], 0xAB00u);
}

TEST_F(CiscaCpuTest, NullDereferenceIsPageFault) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 0);
  MemOperand m;
  m.base = kEax;
  m.disp = 8;
  a.mov_r_rm(kEcx, m);
  load(a);
  const auto r = run();
  EXPECT_EQ(trap_cause(r), Cause::kPageFault);
  EXPECT_EQ(r.trap.addr, 8u);
  EXPECT_EQ(cpu_.regs().cr2, 8u);  // CR2 latches the fault address
}

TEST_F(CiscaCpuTest, WriteToTextPageFaults) {
  Asm a(kCode);
  MemOperand m;
  m.disp = static_cast<i32>(kCode);
  a.mov_rm_imm(m, 0);
  load(a);
  EXPECT_EQ(trap_cause(run()), Cause::kPageFault);
}

TEST_F(CiscaCpuTest, WpClearAllowsSupervisorWriteToProtectedPage) {
  Asm a(kCode);
  MemOperand m;
  m.disp = static_cast<i32>(kCode + 0x100);
  a.mov_rm_imm(m, 0xAA);
  a.hlt();
  load(a);
  cpu_.regs().cr0 &= ~(1u << kCr0WP);
  EXPECT_EQ(run().status, isa::StepStatus::kHalted);
  EXPECT_EQ(space_.vread8(kCode + 0x100), 0xAA);
}

TEST_F(CiscaCpuTest, Ud2RaisesInvalidOpcode) {
  Asm a(kCode);
  a.ud2();
  load(a);
  EXPECT_EQ(trap_cause(step()), Cause::kInvalidOpcode);
}

TEST_F(CiscaCpuTest, DivideByZeroRaisesDivideError) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 100);
  a.mov_r_imm(kEdx, 0);
  a.mov_r_imm(kEcx, 0);
  a.div_r(kEcx);
  load(a);
  EXPECT_EQ(trap_cause(run()), Cause::kDivideError);
}

TEST_F(CiscaCpuTest, DivideComputesQuotientRemainder) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 100);
  a.mov_r_imm(kEdx, 0);
  a.mov_r_imm(kEcx, 7);
  a.div_r(kEcx);
  a.hlt();
  load(a);
  run();
  EXPECT_EQ(cpu_.regs().gpr[kEax], 14u);
  EXPECT_EQ(cpu_.regs().gpr[kEdx], 2u);
}

TEST_F(CiscaCpuTest, OneOperandImulWidensSigned) {
  // Group 3 /5 (F7 E9 = imul ecx, F6 E9 = imul cl): edx:eax = eax * ecx
  // and ax = al * cl, signed; CF and OF report a product that does not
  // fit the low half.  Corrupted text decodes to these forms too.
  Asm a(kCode);
  a.mov_r_imm(kEax, static_cast<u32>(-3));
  a.mov_r_imm(kEcx, 5);
  a.emit_bytes({0xF7, 0xE9});
  a.mov_rr(kEbx, kEdx);
  a.mov_rr(kEsi, kEax);
  a.mov_r_imm(kEax, 0x40);
  a.mov_r_imm(kEcx, 0x04);
  a.emit_bytes({0xF6, 0xE9});  // 0x40 * 4 = 256: overflows al
  a.hlt();
  load(a);
  EXPECT_EQ(run().status, isa::StepStatus::kHalted);
  EXPECT_EQ(cpu_.regs().gpr[kEsi], static_cast<u32>(-15));
  EXPECT_EQ(cpu_.regs().gpr[kEbx], 0xFFFFFFFFu);
  EXPECT_EQ(cpu_.regs().gpr[kEax] & 0xFFFF, 0x100u);
  EXPECT_TRUE(test_bit(cpu_.regs().eflags, kFlagCF));
  EXPECT_TRUE(test_bit(cpu_.regs().eflags, kFlagOF));
}

TEST_F(CiscaCpuTest, BoundInRangeContinues) {
  Asm a(kCode);
  MemOperand m;
  m.disp = static_cast<i32>(kData);
  a.mov_rm_imm(m, 0);          // lower
  MemOperand m2 = m;
  m2.disp += 4;
  a.mov_rm_imm(m2, 100);       // upper
  a.mov_r_imm(kEax, 50);
  a.bound(kEax, m);
  a.hlt();
  load(a);
  EXPECT_EQ(run().status, isa::StepStatus::kHalted);
}

TEST_F(CiscaCpuTest, BoundOutOfRangeTraps) {
  Asm a(kCode);
  MemOperand m;
  m.disp = static_cast<i32>(kData);
  a.mov_rm_imm(m, 0);
  MemOperand m2 = m;
  m2.disp += 4;
  a.mov_rm_imm(m2, 100);
  a.mov_r_imm(kEax, 101);
  a.bound(kEax, m);
  load(a);
  EXPECT_EQ(trap_cause(run()), Cause::kBoundsTrap);
}

TEST_F(CiscaCpuTest, NtFlagMakesIretRaiseInvalidTss) {
  // The paper's Invalid TSS mechanism: EFLAGS.NT corrupted, next iret
  // attempts a nested-task backlink return.
  Asm a(kCode);
  a.iret();
  load(a);
  cpu_.regs().eflags |= 1u << kFlagNT;
  EXPECT_EQ(trap_cause(step()), Cause::kInvalidTss);
}

TEST_F(CiscaCpuTest, ClearedPeRaisesGeneralProtection) {
  // CR0.PE flip: protected mode lost; next fetch #GPs (Section 5.2).
  Asm a(kCode);
  a.nop();
  load(a);
  cpu_.regs().cr0 &= ~(1u << kCr0PE);
  EXPECT_EQ(trap_cause(step()), Cause::kGeneralProtection);
}

TEST_F(CiscaCpuTest, BadFsSelectorFaultsOnUse) {
  Asm a(kCode);
  MemOperand m;
  m.seg = SegOverride::kFs;
  m.disp = 0x10;
  a.mov_r_rm(kEax, m);
  load(a);
  cpu_.regs().fs = 0x1234;  // no such descriptor
  const auto r = run();
  EXPECT_EQ(trap_cause(r), Cause::kGeneralProtection);
  EXPECT_EQ(r.trap.aux, 0x1234u);
}

TEST_F(CiscaCpuTest, FsLimitExceededFaults) {
  Asm a(kCode);
  MemOperand m;
  m.seg = SegOverride::kFs;
  m.disp = 0x1000;  // beyond the 0x7F limit
  a.mov_r_rm(kEax, m);
  load(a);
  EXPECT_EQ(trap_cause(run()), Cause::kGeneralProtection);
}

TEST_F(CiscaCpuTest, Int80RaisesSyscallTrap) {
  Asm a(kCode);
  a.int_(0x80);
  load(a);
  const auto r = step();
  EXPECT_EQ(trap_cause(r), Cause::kSyscall);
  // Return address (pc after the int) is visible to the handler.
  EXPECT_EQ(r.trap.pc, kCode + 2);
}

TEST_F(CiscaCpuTest, InstructionBreakpointFiresBeforeExecution) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);
  a.mov_r_imm(kEbx, 2);
  a.hlt();
  load(a);
  cpu_.debug().arm_insn_bp(kCode + 5);  // second instruction
  EXPECT_EQ(step().status, isa::StepStatus::kOk);
  const auto bp = step();
  EXPECT_EQ(bp.status, isa::StepStatus::kInsnBp);
  EXPECT_EQ(cpu_.regs().gpr[kEbx], 0u);  // not yet executed
  EXPECT_EQ(step().status, isa::StepStatus::kOk);
  EXPECT_EQ(cpu_.regs().gpr[kEbx], 2u);
}

TEST_F(CiscaCpuTest, DataBreakpointReportsAfterAccess) {
  Asm a(kCode);
  MemOperand m;
  m.disp = static_cast<i32>(kData + 0x40);
  a.mov_rm_imm(m, 0x99);
  a.hlt();
  load(a);
  cpu_.debug().arm_data_bp(0, kData + 0x40, 4, true, true);
  const auto r = step();
  EXPECT_EQ(r.status, isa::StepStatus::kOk);
  ASSERT_EQ(r.num_data_hits, 1);
  EXPECT_TRUE(r.data_hits[0].is_write);
  // The access completed before the report.
  EXPECT_EQ(space_.vread32(kData + 0x40), 0x99u);
}

TEST_F(CiscaCpuTest, SnapshotRestoreRoundTripsRegisters) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 0x1111);
  a.push_r(kEax);
  a.hlt();
  load(a);
  const isa::CpuSnapshot snap = cpu_.snapshot();
  run();
  EXPECT_NE(cpu_.regs().gpr[kEax], 0u);
  cpu_.restore(snap);
  EXPECT_EQ(cpu_.regs().gpr[kEax], 0u);
  EXPECT_EQ(cpu_.regs().gpr[kEsp], kStackTop);
  EXPECT_EQ(cpu_.pc(), kCode);
}

TEST_F(CiscaCpuTest, CyclesAdvanceMonotonically) {
  Asm a(kCode);
  for (int i = 0; i < 10; ++i) a.nop();
  a.hlt();
  load(a);
  const Cycles before = cpu_.cycles();
  run();
  EXPECT_GT(cpu_.cycles(), before);
}

TEST_F(CiscaCpuTest, SysRegBankReadsAndWritesEsp) {
  isa::SystemRegisterBank& bank = cpu_.sysregs();
  const u32 esp_index = bank.index_of("ESP");
  EXPECT_EQ(bank.read(esp_index), kStackTop);
  bank.flip_bit(esp_index, 31);
  EXPECT_EQ(cpu_.regs().gpr[kEsp], kStackTop ^ 0x80000000u);
}

TEST_F(CiscaCpuTest, SysRegBankHasPaperTargets) {
  isa::SystemRegisterBank& bank = cpu_.sysregs();
  for (const char* name : {"EFLAGS", "CR0", "ESP", "EIP", "FS", "GS",
                           "IDTR_BASE", "DR7", "TR", "LDTR"}) {
    EXPECT_NO_THROW(bank.index_of(name)) << name;
  }
  EXPECT_GE(bank.count(), 20u);  // "approximately 20 in the P4"
}

TEST_F(CiscaCpuTest, ShiftsAndRotates) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 0x81);
  a.shift_r_imm(Op::kShl, kEax, 4);
  a.mov_r_imm(kEbx, 0x100);
  a.shift_r_imm(Op::kShr, kEbx, 4);
  a.mov_r_imm(kEdx, 0x80000000u);
  a.shift_r_imm(Op::kSar, kEdx, 31);
  a.hlt();
  load(a);
  run();
  EXPECT_EQ(cpu_.regs().gpr[kEax], 0x810u);
  EXPECT_EQ(cpu_.regs().gpr[kEbx], 0x10u);
  EXPECT_EQ(cpu_.regs().gpr[kEdx], 0xFFFFFFFFu);
}

TEST_F(CiscaCpuTest, StackLimitExtensionCatchesWildEsp) {
  // Ablation X1: the paper-Section-7 PUSH/POP checking extension.
  mem::AddressSpace space(256 * 1024, mem::Endian::kLittle);
  space.map_region("code", kCode, 4096,
                   {.read = true, .write = false, .execute = true});
  space.map_region("stack", kStackTop - 4096, 4096,
                   {.read = true, .write = true});
  CiscaCpu cpu(space, CiscaCpu::Options{.stack_limit_check = true});
  cpu.set_stack_bounds(kStackTop - 4096, kStackTop);
  Asm a(kCode);
  a.push_r(kEax);
  const std::vector<u8> bytes = a.finish();
  space.vwrite_bytes(kCode, bytes.data(), static_cast<u32>(bytes.size()));
  cpu.set_pc(kCode);
  cpu.regs().gpr[kEsp] = 0x50000000;  // wildly out of the stack range
  const auto r = cpu.step();
  ASSERT_EQ(r.status, isa::StepStatus::kTrap);
  EXPECT_EQ(static_cast<Cause>(r.trap.cause), Cause::kGeneralProtection);
}

// Semantics of the realistic-density additions: string ops with REP,
// pusha/popa, xlat, AAM's divide-by-zero, far transfers, flag ops — all
// reachable through re-aligned instruction streams during code campaigns.
class CiscaExtendedOpsTest : public CiscaCpuTest {};

TEST_F(CiscaExtendedOpsTest, RepMovsdCopiesBlocks) {
  Asm a(kCode);
  a.mov_r_imm(kEsi, kData);
  a.mov_r_imm(kEdi, kData + 0x100);
  a.mov_r_imm(kEcx, 8);
  a.emit_bytes({0xF3, 0xA5});  // rep movsd
  a.hlt();
  load(a);
  for (u32 i = 0; i < 8; ++i) space_.vwrite32(kData + i * 4, 0x1000 + i);
  run(2000);
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(space_.vread32(kData + 0x100 + i * 4), 0x1000 + i);
  }
  EXPECT_EQ(cpu_.regs().gpr[kEcx], 0u);
  EXPECT_EQ(cpu_.regs().gpr[kEsi], kData + 32);
}

TEST_F(CiscaExtendedOpsTest, RepStosbFillsMemory) {
  Asm a(kCode);
  a.mov_r_imm(kEdi, kData + 0x40);
  a.mov_r_imm(kEax, 0xAB);
  a.mov_r_imm(kEcx, 100);  // > the 16-per-step slice: exercises resume
  a.emit_bytes({0xF3, 0xAA});  // rep stosb
  a.hlt();
  load(a);
  run(2000);
  for (u32 i = 0; i < 100; ++i) {
    EXPECT_EQ(space_.vread8(kData + 0x40 + i), 0xAB);
  }
}

TEST_F(CiscaExtendedOpsTest, RepneScasbFindsByte) {
  Asm a(kCode);
  a.mov_r_imm(kEdi, kData);
  a.mov_r_imm(kEax, 0x77);
  a.mov_r_imm(kEcx, 64);
  a.emit_bytes({0xF2, 0xAE});  // repne scasb
  a.hlt();
  load(a);
  space_.vwrite8(kData + 10, 0x77);
  run(2000);
  // edi stops one past the match.
  EXPECT_EQ(cpu_.regs().gpr[kEdi], kData + 11);
}

TEST_F(CiscaExtendedOpsTest, DirectionFlagReversesStrings) {
  Asm a(kCode);
  a.emit_bytes({0xFD});  // std
  a.mov_r_imm(kEsi, kData + 16);
  a.emit_bytes({0xAC});  // lodsb
  a.hlt();
  load(a);
  space_.vwrite8(kData + 16, 0x5A);
  run(100);
  EXPECT_EQ(cpu_.regs().gpr[kEax] & 0xFF, 0x5Au);
  EXPECT_EQ(cpu_.regs().gpr[kEsi], kData + 15);  // decremented
}

TEST_F(CiscaExtendedOpsTest, PushaPopaRoundTripsRegisters) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);
  a.mov_r_imm(kEbx, 2);
  a.mov_r_imm(kEsi, 3);
  a.emit_bytes({0x60});  // pusha
  a.mov_r_imm(kEax, 99);
  a.mov_r_imm(kEbx, 99);
  a.mov_r_imm(kEsi, 99);
  a.emit_bytes({0x61});  // popa
  a.hlt();
  load(a);
  run(100);
  EXPECT_EQ(cpu_.regs().gpr[kEax], 1u);
  EXPECT_EQ(cpu_.regs().gpr[kEbx], 2u);
  EXPECT_EQ(cpu_.regs().gpr[kEsi], 3u);
  EXPECT_EQ(cpu_.regs().gpr[kEsp], kStackTop);  // balanced
}

TEST_F(CiscaExtendedOpsTest, XlatLooksUpTable) {
  Asm a(kCode);
  a.mov_r_imm(kEbx, kData);
  a.mov_r8_imm(0, 5);          // al = 5
  a.emit_bytes({0xD7});        // xlat
  a.hlt();
  load(a);
  space_.vwrite8(kData + 5, 0xEE);
  run(100);
  EXPECT_EQ(cpu_.regs().gpr[kEax] & 0xFF, 0xEEu);
}

TEST_F(CiscaExtendedOpsTest, AamZeroRaisesDivideError) {
  Asm a(kCode);
  a.emit_bytes({0xD4, 0x00});  // aam 0
  load(a);
  EXPECT_EQ(trap_cause(step()), Cause::kDivideError);
}

TEST_F(CiscaExtendedOpsTest, AamComputesDigits) {
  Asm a(kCode);
  a.mov_r_imm(kEax, 57);
  a.emit_bytes({0xD4, 0x0A});  // aam 10
  a.hlt();
  load(a);
  run(100);
  EXPECT_EQ(cpu_.regs().gpr[kEax] & 0xFFFF, 0x0507u);  // ah=5, al=7
}

TEST_F(CiscaExtendedOpsTest, FarTransfersRaiseGeneralProtection) {
  Asm a(kCode);
  a.emit_bytes({0xEA, 0, 0, 0, 0, 0, 0});  // ljmp garbage
  load(a);
  EXPECT_EQ(trap_cause(step()), Cause::kGeneralProtection);
}

TEST_F(CiscaExtendedOpsTest, FpuMemoryOperandFaultsOnBadAddress) {
  Asm a(kCode);
  a.mov_r_imm(kEbx, 0x40);  // near-NULL
  a.emit_bytes({0xD9, 0x03});  // fld dword [ebx]
  load(a);
  const auto r = run(10);
  EXPECT_EQ(trap_cause(r), Cause::kPageFault);
  EXPECT_EQ(r.trap.addr, 0x40u);
}

TEST_F(CiscaExtendedOpsTest, CliStopsDeliveringInterruptsFlagwise) {
  Asm a(kCode);
  a.emit_bytes({0xFA});  // cli
  a.hlt();
  load(a);
  run(100);
  EXPECT_FALSE(test_bit(cpu_.regs().eflags, kFlagIF));
}

TEST_F(CiscaExtendedOpsTest, EnterBuildsFrame) {
  Asm a(kCode);
  a.emit_bytes({0xC8, 0x20, 0x00, 0x00});  // enter 0x20, 0
  a.hlt();
  load(a);
  run(100);
  EXPECT_EQ(cpu_.regs().gpr[kEbp], kStackTop - 4);
  EXPECT_EQ(cpu_.regs().gpr[kEsp], kStackTop - 4 - 0x20);
}

TEST_F(CiscaExtendedOpsTest, Mov16PrefixPreservesHighHalf) {
  Asm a(kCode);
  MemOperand m;
  m.disp = static_cast<i32>(kData);
  a.mov_r_imm(kEax, 0xAABBCCDD);
  a.mov_rm_r16(m, kEax);       // 16-bit store
  a.mov_r_imm(kEcx, 0xFFFFFFFF);
  a.mov_r16_rm(kEcx, m);       // 16-bit load
  a.hlt();
  load(a);
  run(100);
  EXPECT_EQ(space_.vread16(kData), 0xCCDDu);
  EXPECT_EQ(cpu_.regs().gpr[kEcx], 0xFFFFCCDDu);  // high half preserved
}

}  // namespace
}  // namespace kfi::cisca
