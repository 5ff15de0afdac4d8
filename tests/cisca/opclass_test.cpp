// Functional-unit classification of cisca instructions, checked against
// hand-assembled encodings run through the real decoder — the same path
// the target generator uses to classify opclass-targeted code faults.
// (superblock_test.cpp proves a cached block cannot serve a stale class.)
#include <gtest/gtest.h>

#include "cisca/decode.hpp"

namespace kfi::cisca {
namespace {

/// Decode raw bytes as a single instruction.
Insn decode_bytes(std::initializer_list<u8> bytes) {
  FetchWindow w;
  w.pc = 0x1000;
  u8 i = 0;
  for (const u8 b : bytes) {
    w.bytes[i] = b;
    w.valid = ++i;
  }
  return decode(w).insn;
}

struct ClassedEncoding {
  std::initializer_list<u8> bytes;
  Op op;
  isa::OpClass cls;
};

TEST(CiscaOpClassTest, HandDecodedEncodingsClassify) {
  const ClassedEncoding cases[] = {
      // ALU: arithmetic, logic, shifts.
      {{0x01, 0xD8}, Op::kAdd, isa::OpClass::kAlu},        // add eax, ebx
      {{0x31, 0xC9}, Op::kXor, isa::OpClass::kAlu},        // xor ecx, ecx
      {{0x39, 0xC3}, Op::kCmp, isa::OpClass::kAlu},        // cmp ebx, eax
      {{0x40}, Op::kInc, isa::OpClass::kAlu},              // inc eax
      {{0xC1, 0xE0, 0x04}, Op::kShl, isa::OpClass::kAlu},  // shl eax, 4
      {{0x8D, 0x40, 0x04}, Op::kLea, isa::OpClass::kAlu},  // lea eax,4(eax)
      // Load/store: data movement, stack traffic, string ops.
      {{0xB8, 0x01, 0x00, 0x00, 0x00}, Op::kMov,
       isa::OpClass::kLoadStore},                          // mov eax, 1
      {{0x8B, 0x03}, Op::kMov, isa::OpClass::kLoadStore},  // mov eax,(ebx)
      {{0x55}, Op::kPush, isa::OpClass::kLoadStore},       // push ebp
      {{0x5D}, Op::kPop, isa::OpClass::kLoadStore},        // pop ebp
      {{0xA5}, Op::kMovs, isa::OpClass::kLoadStore},       // movsd
      {{0xC9}, Op::kLeave, isa::OpClass::kLoadStore},      // leave
      // Branch: control transfers.
      {{0xEB, 0xFE}, Op::kJmp, isa::OpClass::kBranch},     // jmp .-0
      {{0x74, 0x02}, Op::kJcc, isa::OpClass::kBranch},     // je +2
      {{0xE8, 0x00, 0x00, 0x00, 0x00}, Op::kCall,
       isa::OpClass::kBranch},                             // call +0
      {{0xC3}, Op::kRet, isa::OpClass::kBranch},           // ret
      // System: privileged state, traps, I/O.
      {{0xF4}, Op::kHlt, isa::OpClass::kSystem},           // hlt
      {{0xCD, 0x80}, Op::kInt, isa::OpClass::kSystem},     // int 0x80
      {{0xFA}, Op::kCli, isa::OpClass::kSystem},           // cli
      {{0x0F, 0x0B}, Op::kUd2, isa::OpClass::kSystem},     // ud2
      // Other: padding and undecodable bytes.
      {{0x90}, Op::kNop, isa::OpClass::kOther},            // nop
  };
  for (const auto& c : cases) {
    const Insn insn = decode_bytes(c.bytes);
    EXPECT_EQ(insn.op, c.op) << insn.to_string();
    EXPECT_EQ(opclass(insn.op), c.cls) << insn.to_string();
  }
}

TEST(CiscaOpClassTest, EveryOpHasAClassBelowNumClasses) {
  for (u32 raw = 0; raw <= static_cast<u32>(Op::kFwait); ++raw) {
    const auto cls = opclass(static_cast<Op>(raw));
    EXPECT_LT(static_cast<u32>(cls),
              static_cast<u32>(isa::OpClass::kNumClasses));
  }
}

}  // namespace
}  // namespace kfi::cisca
