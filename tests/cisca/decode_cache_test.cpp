// Invalidation contract of the cisca predecoded-instruction cache: once an
// instruction has been executed (and therefore cached), corrupting its
// bytes — via the injector's bit-flip path or via a store executed by the
// simulated program itself — must make the next execution re-decode.  Each
// scenario runs the identical program on a cold-cache (cache disabled) CPU
// and asserts bit-identical architectural results, plus cache counters
// proving the warm CPU actually hit and then invalidated.
#include <gtest/gtest.h>

#include "cisca/cpu.hpp"
#include "cisca/encode.hpp"
#include "mem/address_space.hpp"

namespace kfi::cisca {
namespace {

constexpr Addr kCode = 0x10000;

/// One CPU over its own writable+executable code page (2004-era MMUs had
/// no NX, and self-modifying code is exactly what this cache must survive).
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

  void run(u32 max_steps = 100) {
    for (u32 i = 0; i < max_steps; ++i) {
      if (cpu.step().status != isa::StepStatus::kOk) return;
    }
    ADD_FAILURE() << "did not stop";
  }
};

std::vector<u8> immediate_load_program() {
  Asm a(kCode);
  a.mov_r_imm(kEax, 1);  // B8 imm32: imm byte lives at kCode + 1
  a.hlt();
  return a.finish();
}

TEST(CiscaDecodeCacheTest, InjectorFlipInCachedCodeIsReDecoded) {
  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(immediate_load_program());
    rig->run();
    ASSERT_EQ(rig->cpu.regs().gpr[kEax], 1u);
    // The injector's path: flip bit 1 of the imm byte (1 -> 3).
    rig->space.vflip_bit(kCode + 1, 1);
    rig->cpu.set_pc(kCode);
    rig->run();
  }
  EXPECT_EQ(warm.cpu.regs().gpr[kEax], 3u);
  EXPECT_EQ(warm.cpu.regs().gpr[kEax], cold.cpu.regs().gpr[kEax]);
  const auto stats = warm.cpu.decode_cache_stats();
  EXPECT_GE(stats.invalidations, 1u);  // the flipped entry was caught stale
  EXPECT_EQ(cold.cpu.decode_cache_stats().hits, 0u);
}

TEST(CiscaDecodeCacheTest, SelfModifyingStoreIsReDecoded) {
  // Pass 1 executes `mov eax, 1` (caching it), patches its imm byte to 7
  // with an ordinary store, and loops; pass 2 must execute the patched
  // instruction.
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
  const auto stats = warm.cpu.decode_cache_stats();
  EXPECT_GE(stats.invalidations, 1u);
}

TEST(CiscaDecodeCacheTest, UnmodifiedCodeHitsOnReExecution) {
  Rig warm(true);
  warm.load(immediate_load_program());
  warm.run();
  const auto first = warm.cpu.decode_cache_stats();
  warm.cpu.set_pc(kCode);
  warm.run();
  const auto second = warm.cpu.decode_cache_stats();
  EXPECT_EQ(second.misses, first.misses);  // everything came from the cache
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.invalidations, 0u);
}

TEST(CiscaDecodeCacheTest, CacheToggleReportsState) {
  // The cache counts only while the fast paths are on: the cold CPU
  // decodes every instruction straight from memory and reports nothing.
  Rig warm(true), cold(false);
  for (Rig* rig : {&warm, &cold}) {
    rig->load(immediate_load_program());
    rig->run();
  }
  EXPECT_GT(warm.cpu.decode_cache_stats().misses, 0u);
  EXPECT_EQ(cold.cpu.decode_cache_stats().misses, 0u);
  EXPECT_EQ(cold.cpu.decode_cache_stats().hits, 0u);
}

}  // namespace
}  // namespace kfi::cisca
