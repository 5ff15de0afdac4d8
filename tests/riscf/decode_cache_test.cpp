// Invalidation contract of the riscf predecoded-instruction cache: a
// cached (already-executed) instruction word corrupted by the injector's
// bit flip or overwritten by a store the program itself executes must be
// re-decoded on the next fetch.  Results are compared against a
// cold-cache (cache disabled) CPU running the identical program.
#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "riscf/cpu.hpp"
#include "riscf/encode.hpp"

namespace kfi::riscf {
namespace {

constexpr Addr kCode = 0x10000;

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

  isa::StepResult run(u32 max_steps = 100) {
    for (u32 i = 0; i < max_steps; ++i) {
      const isa::StepResult r = cpu.step();
      if (r.status != isa::StepStatus::kOk) return r;
    }
    ADD_FAILURE() << "did not stop";
    return {};
  }
};

std::vector<u8> immediate_load_program() {
  Asm a(kCode);
  a.li(3, 1);  // addi r3, 0, 1: the simm field's low byte is kCode + 3
  a.sc();
  return a.finish();
}

TEST(RiscfDecodeCacheTest, InjectorFlipInCachedCodeIsReDecoded) {
  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(immediate_load_program());
    rig->run();
    ASSERT_EQ(rig->cpu.regs().gpr[3], 1u);
    // The injector's path: flip bit 1 of the big-endian simm byte (1 -> 3).
    rig->space.vflip_bit(kCode + 3, 1);
    rig->cpu.set_pc(kCode);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[3], 3u);
  EXPECT_EQ(warm.cpu.regs().gpr[3], cold.cpu.regs().gpr[3]);
  EXPECT_GE(warm.cpu.decode_cache_stats().invalidations, 1u);
  EXPECT_EQ(cold.cpu.decode_cache_stats().hits, 0u);
}

TEST(RiscfDecodeCacheTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `li r3, 1` (caching it), stores the encoding of
  // `li r3, 7` over it, and branches back; pass 2 must execute the
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
  EXPECT_GE(warm.cpu.decode_cache_stats().invalidations, 1u);
}

TEST(RiscfDecodeCacheTest, UnmodifiedCodeHitsOnReExecution) {
  Rig warm(true);
  warm.load(immediate_load_program());
  warm.run();
  const auto first = warm.cpu.decode_cache_stats();
  warm.cpu.set_pc(kCode);
  warm.run();
  const auto second = warm.cpu.decode_cache_stats();
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.invalidations, 0u);
}

TEST(RiscfDecodeCacheTest, CorruptedWordStillTrapsWithTheRightAux) {
  // A flip that lands on a reserved encoding must raise Illegal
  // Instruction carrying the corrupted word, cached or not (the paper's
  // dominant G4 text-error outcome).
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
}

}  // namespace
}  // namespace kfi::riscf
