// Decoder/encoder tests for the riscf (G4-like) ISA, including the paper's
// Figure 15 worked example (a single bit flip turning mflr into lhax) and
// the sparse-opcode-map property behind the G4's Illegal Instruction rate.
#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.hpp"
#include "riscf/encode.hpp"
#include "riscf/insn.hpp"

namespace kfi::riscf {
namespace {

u32 first_word(const std::vector<u8>& bytes) {
  return (static_cast<u32>(bytes[0]) << 24) | (static_cast<u32>(bytes[1]) << 16) |
         (static_cast<u32>(bytes[2]) << 8) | bytes[3];
}

u32 encode_one(const std::function<void(Asm&)>& emit) {
  Asm a(0x1000);
  emit(a);
  return first_word(a.finish());
}

TEST(RiscfDecodeTest, PaperFigure15MflrEncoding) {
  // The paper's sys_read() prologue: stwu r1,-32(r1); mflr r0 with the
  // published machine code 9421ffe0 / 7c0802a6.
  Asm a(0xC0048FAC);
  a.stwu(1, -32, 1);
  a.mflr(0);
  const std::vector<u8> bytes = a.finish();
  EXPECT_EQ(first_word(bytes), 0x9421FFE0u);
  const u32 mflr = (static_cast<u32>(bytes[4]) << 24) |
                   (static_cast<u32>(bytes[5]) << 16) |
                   (static_cast<u32>(bytes[6]) << 8) | bytes[7];
  EXPECT_EQ(mflr, 0x7C0802A6u);
}

TEST(RiscfDecodeTest, PaperFigure15BitFlipTurnsMflrIntoLhax) {
  // 0x7C0802A6 (mflr r0) ^ bit 3 = 0x7C0802AE (lhax r0,r8,r0): exactly
  // the paper's Figure 15 corruption.
  const Insn original = decode(0x7C0802A6u);
  EXPECT_EQ(original.op, Op::kMfspr);
  EXPECT_EQ(original.spr, 8u);  // LR
  const Insn corrupted = decode(0x7C0802A6u ^ (1u << 3));
  EXPECT_EQ(corrupted.op, Op::kLhax);
  EXPECT_EQ(corrupted.rt, 0);
  EXPECT_EQ(corrupted.ra, 8);
  EXPECT_EQ(corrupted.rb, 0);
}

TEST(RiscfDecodeTest, ZeroWordIsIllegal) {
  // BUG() in Linux/PPC 2.4 was an all-zero word; it must decode invalid.
  EXPECT_EQ(decode(0).op, Op::kInvalid);
}

TEST(RiscfDecodeTest, ScRequiresArchitectedBit) {
  EXPECT_EQ(decode(0x44000002u).op, Op::kSc);
  EXPECT_EQ(decode(0x44000000u).op, Op::kInvalid);
}

TEST(RiscfDecodeTest, BranchEncodings) {
  const u32 b_word = encode_one([](Asm& a) {
    const auto l = a.new_label();
    a.bind(l);
    a.b(l);
  });
  const Insn b_insn = decode(b_word);
  EXPECT_EQ(b_insn.op, Op::kB);
  EXPECT_EQ(b_insn.li, 0);
  EXPECT_FALSE(b_insn.lk);

  const Insn blr_insn = decode(encode_one([](Asm& a) { a.blr(); }));
  EXPECT_EQ(blr_insn.op, Op::kBclr);
  EXPECT_EQ(blr_insn.bo, 20);

  const u32 bne_word = encode_one([](Asm& a) {
    const auto l = a.new_label();
    a.bind(l);
    a.bne(l);
  });
  const Insn bne_insn = decode(bne_word);
  EXPECT_EQ(bne_insn.op, Op::kBc);
  EXPECT_EQ(bne_insn.bo, 4);
  EXPECT_EQ(bne_insn.bi, 2);
}

struct WordCase {
  std::string name;
  std::function<void(Asm&)> emit;
  Op expected;
};

// Print a case by its name so the test name gtest lists (and ctest
// registers) is the same on every run, not a dump of heap addresses.
void PrintTo(const WordCase& c, std::ostream* os) { *os << c.name; }

class RiscfRoundTripTest : public ::testing::TestWithParam<WordCase> {};

TEST_P(RiscfRoundTripTest, EncodeDecodeRoundTrips) {
  EXPECT_EQ(decode(encode_one(GetParam().emit)).op, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, RiscfRoundTripTest,
    ::testing::Values(
        WordCase{"addi", [](Asm& a) { a.addi(3, 4, -100); }, Op::kAddi},
        WordCase{"addis", [](Asm& a) { a.addis(3, 0, 0x7FFF); }, Op::kAddis},
        WordCase{"mulli", [](Asm& a) { a.mulli(5, 6, 24); }, Op::kMulli},
        WordCase{"cmpwi", [](Asm& a) { a.cmpwi(7, -1); }, Op::kCmpwi},
        WordCase{"cmplwi", [](Asm& a) { a.cmplwi(7, 10); }, Op::kCmplwi},
        WordCase{"ori", [](Asm& a) { a.ori(3, 3, 0xFFFF); }, Op::kOri},
        WordCase{"andi", [](Asm& a) { a.andi_rec(4, 5, 7); }, Op::kAndiRec},
        WordCase{"rlwinm", [](Asm& a) { a.rlwinm(3, 4, 2, 0, 29); },
                 Op::kRlwinm},
        WordCase{"lwz", [](Asm& a) { a.lwz(3, 8, 1); }, Op::kLwz},
        WordCase{"stwu", [](Asm& a) { a.stwu(1, -32, 1); }, Op::kStwu},
        WordCase{"lbz", [](Asm& a) { a.lbz(9, 3, 13); }, Op::kLbz},
        WordCase{"sth", [](Asm& a) { a.sth(9, 2, 13); }, Op::kSth},
        WordCase{"lha", [](Asm& a) { a.lha(9, 6, 13); }, Op::kLha},
        WordCase{"add", [](Asm& a) { a.add(3, 4, 5); }, Op::kAdd},
        WordCase{"subf", [](Asm& a) { a.subf(3, 4, 5); }, Op::kSubf},
        WordCase{"divw", [](Asm& a) { a.divw(3, 4, 5); }, Op::kDivw},
        WordCase{"divwu", [](Asm& a) { a.divwu(3, 4, 5); }, Op::kDivwu},
        WordCase{"and", [](Asm& a) { a.and_(3, 4, 5); }, Op::kAnd},
        WordCase{"or", [](Asm& a) { a.or_(3, 4, 5); }, Op::kOr},
        WordCase{"xor", [](Asm& a) { a.xor_(3, 4, 5); }, Op::kXor},
        WordCase{"slw", [](Asm& a) { a.slw(3, 4, 5); }, Op::kSlw},
        WordCase{"srawi", [](Asm& a) { a.srawi(3, 4, 6); }, Op::kSrawi},
        WordCase{"cmpw", [](Asm& a) { a.cmpw(3, 4); }, Op::kCmp},
        WordCase{"mfmsr", [](Asm& a) { a.mfmsr(3); }, Op::kMfmsr},
        WordCase{"mtmsr", [](Asm& a) { a.mtmsr(3); }, Op::kMtmsr},
        WordCase{"mfspr", [](Asm& a) { a.mfspr(3, kSprSprg2); }, Op::kMfspr},
        WordCase{"mtspr", [](Asm& a) { a.mtspr(kSprHid0, 3); }, Op::kMtspr},
        WordCase{"lwzx", [](Asm& a) { a.lwzx(3, 4, 5); }, Op::kLwzx},
        WordCase{"stbx", [](Asm& a) { a.stbx(3, 4, 5); }, Op::kStbx},
        WordCase{"tw", [](Asm& a) { a.trap(); }, Op::kTw},
        WordCase{"sc", [](Asm& a) { a.sc(); }, Op::kSc},
        WordCase{"sync", [](Asm& a) { a.sync(); }, Op::kSync},
        WordCase{"isync", [](Asm& a) { a.isync(); }, Op::kIsync},
        WordCase{"bctr", [](Asm& a) { a.bctr(); }, Op::kBcctr}),
    [](const auto& info) { return info.param.name; });

TEST(RiscfDecodeTest, SprFieldSplitEncoding) {
  // SPR numbers are split across two 5-bit fields; verify a large number.
  const Insn insn = decode(encode_one([](Asm& a) { a.mfspr(3, 1008); }));
  EXPECT_EQ(insn.op, Op::kMfspr);
  EXPECT_EQ(insn.spr, 1008u);
}

TEST(RiscfDecodeTest, RandomWordValidityMatchesRealPpcDensity) {
  // Roughly 70-80% of the primary opcode space is architected on a real
  // G4 (incl. FP and AltiVec); reserved encodings are illegal.  The map
  // must be sparse enough that bit flips often produce illegal encodings
  // (Figure 11: 41.5% of G4 code-error crashes) but not artificially so.
  Rng rng(5);
  u32 valid = 0;
  const u32 kTrials = 4000;
  for (u32 t = 0; t < kTrials; ++t) {
    if (decode(rng.next_u32()).op != Op::kInvalid) ++valid;
  }
  const double rate = static_cast<double>(valid) / kTrials;
  EXPECT_GT(rate, 0.45);
  EXPECT_LT(rate, 0.85);
}

TEST(RiscfDecodeTest, SingleBitFlipStaysOneInstruction) {
  // Fixed-width ISA: a flip can change WHAT an instruction is but never
  // how many bytes it occupies — the anti-Figure-14 property.
  Asm a(0x1000);
  a.addi(3, 3, 1);
  a.stw(3, 8, 1);
  const std::vector<u8> bytes = a.finish();
  EXPECT_EQ(bytes.size(), 8u);  // always exactly 4 bytes per instruction
  for (u32 bit = 0; bit < 32; ++bit) {
    const Insn flipped = decode(first_word(bytes) ^ (1u << bit));
    // Whatever it became, the next instruction is untouched.
    (void)flipped;
  }
  const u32 second = (static_cast<u32>(bytes[4]) << 24) |
                     (static_cast<u32>(bytes[5]) << 16) |
                     (static_cast<u32>(bytes[6]) << 8) | bytes[7];
  EXPECT_EQ(decode(second).op, Op::kStw);
}

TEST(RiscfDecodeTest, DisassemblyShowsPaperMnemonics) {
  EXPECT_NE(decode(0x7C0802A6u).to_string().find("mflr"), std::string::npos);
  EXPECT_NE(decode(0x7C0802AEu).to_string().find("lhax"), std::string::npos);
  const Insn lwz = decode(encode_one([](Asm& a) { a.lwz(11, 40, 31); }));
  EXPECT_NE(lwz.to_string().find("r11,40(r31)"), std::string::npos);
}

TEST(RiscfDecodeTest, Li32ComposesConstants) {
  for (const u32 v : {0u, 1u, 0x7FFFu, 0x8000u, 0xDEAD4EADu, 0xC0200000u}) {
    Asm a(0x1000);
    a.li32(3, v);
    const std::vector<u8> bytes = a.finish();
    // One or two instructions; decodes to addi or addis(+ori).
    EXPECT_LE(bytes.size(), 8u);
  }
}

}  // namespace
}  // namespace kfi::riscf
