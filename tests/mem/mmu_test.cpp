#include "mem/mmu.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace kfi::mem {
namespace {

PagePerms rw() { return {.read = true, .write = true}; }
PagePerms rx() { return {.read = true, .execute = true}; }

TEST(MmuTest, UnmappedAccessFaults) {
  Mmu mmu;
  const auto r = mmu.translate(0x1000, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, 0x1000u);
}

TEST(MmuTest, MappedPageTranslates) {
  Mmu mmu;
  mmu.map(0xC0000000u, 0x5000, 2, rw());
  const auto r = mmu.translate(0xC0000123u, 4, Access::kRead);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x5123u);
  const auto r2 = mmu.translate(0xC0001FF0u, 4, Access::kWrite);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.phys, 0x6FF0u);
}

TEST(MmuTest, PermissionFaults) {
  Mmu mmu;
  mmu.map(0x1000, 0x2000, 1, rx());
  EXPECT_TRUE(mmu.translate(0x1000, 4, Access::kRead).ok());
  EXPECT_TRUE(mmu.translate(0x1000, 4, Access::kExecute).ok());
  const auto w = mmu.translate(0x1000, 4, Access::kWrite);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.fault->kind, FaultKind::kNoWrite);
}

TEST(MmuTest, NoExecuteFault) {
  Mmu mmu;
  mmu.map(0x1000, 0x2000, 1, rw());
  const auto x = mmu.translate(0x1000, 4, Access::kExecute);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.fault->kind, FaultKind::kNoExecute);
}

TEST(MmuTest, BusRegionRaisesBusFault) {
  Mmu mmu;
  PagePerms bus;
  bus.bus = true;
  mmu.map(0xFE000000u, 0x3000, 1, bus);
  const auto r = mmu.translate(0xFE000010u, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kBusRegion);
}

TEST(MmuTest, PageCrossingAccessChecksBothPages) {
  Mmu mmu;
  mmu.map(0x1000, 0x4000, 1, rw());  // only one page mapped
  const auto r = mmu.translate(0x1FFE, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, 0x2001u);  // the first unmapped byte's page
}

TEST(MmuTest, PageCrossingAccessOkOnContiguousFrames) {
  Mmu mmu;
  mmu.map(0x1000, 0x4000, 2, rw());
  const auto r = mmu.translate(0x1FFE, 4, Access::kRead);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x4FFEu);
}

TEST(MmuTest, UnmapRemovesTranslation) {
  Mmu mmu;
  mmu.map(0x1000, 0x4000, 1, rw());
  EXPECT_TRUE(mmu.is_mapped(0x1000));
  mmu.unmap(0x1000, 1);
  EXPECT_FALSE(mmu.is_mapped(0x1000));
  EXPECT_FALSE(mmu.translate(0x1000, 1, Access::kRead).ok());
}

TEST(MmuTest, GuardPageBetweenMappingsFaults) {
  // The per-task kernel stacks are separated by unmapped guard pages; a
  // stack overrun must fault rather than silently spill.
  Mmu mmu;
  mmu.map(0x10000, 0x4000, 1, rw());
  mmu.map(0x12000, 0x5000, 1, rw());
  EXPECT_TRUE(mmu.translate(0x10000, 4, Access::kRead).ok());
  EXPECT_FALSE(mmu.translate(0x11000, 4, Access::kRead).ok());
  EXPECT_TRUE(mmu.translate(0x12000, 4, Access::kRead).ok());
}

// Page-table edge cases.  The table splits the 20-bit page number into a
// directory slot (vpn >> 10, 4 MiB of address space each) and a leaf
// index, so these pin behaviour at and across slot boundaries, in slots
// that never held a mapping, and at the top of the address space.

constexpr Addr kSlotBoundary = 0x00400000u;  // first page of directory slot 1
PagePerms ro() { return {.read = true}; }

TEST(MmuEdgeTest, MappingSpansADirectorySlotBoundary) {
  Mmu mmu;
  mmu.map(kSlotBoundary - 2 * kPageSize, 0x10000, 4, rw());
  EXPECT_FALSE(mmu.is_mapped(kSlotBoundary - 3 * kPageSize));
  for (u32 i = 0; i < 4; ++i) {
    const Addr va = kSlotBoundary - 2 * kPageSize + i * kPageSize + 0x10;
    EXPECT_TRUE(mmu.is_mapped(va)) << i;
    const auto r = mmu.translate(va, 4, Access::kWrite);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.phys, 0x10000u + i * kPageSize + 0x10) << i;
  }
  EXPECT_FALSE(mmu.is_mapped(kSlotBoundary + 2 * kPageSize));
}

TEST(MmuEdgeTest, PageCrossingAccessAcrossASlotBoundary) {
  Mmu mmu;
  mmu.map(kSlotBoundary - kPageSize, 0x4000, 1, rw());
  const Addr va = kSlotBoundary - 2;

  // The crossing page is unmapped: the fault names its first byte.
  auto r = mmu.translate(va, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, kSlotBoundary + 1);
  EXPECT_EQ(r.fault->access, Access::kRead);

  // Mapped on the adjacent frame, read-only: reads cross, writes fault on
  // the second page.
  mmu.map(kSlotBoundary, 0x5000, 1, ro());
  r = mmu.translate(va, 4, Access::kRead);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x4FFEu);
  r = mmu.translate(va, 4, Access::kWrite);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kNoWrite);
  EXPECT_EQ(r.fault->addr, kSlotBoundary + 1);

  // The first page is checked first.
  mmu.unmap(kSlotBoundary, 1);
  mmu.map(kSlotBoundary - kPageSize, 0x4000, 1, ro());
  r = mmu.translate(va, 4, Access::kWrite);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kNoWrite);
  EXPECT_EQ(r.fault->addr, va);

  // Mapped on a frame that is not the next one: a simulator invariant.
  mmu.map(kSlotBoundary, 0x9000, 1, ro());
  EXPECT_THROW(mmu.translate(va, 4, Access::kRead), InternalError);
}

TEST(MmuEdgeTest, BusPageFaultsBeforePermissionsOnEitherPage) {
  Mmu mmu;
  PagePerms bus = rw();
  bus.bus = true;
  mmu.map(0x1000, 0x4000, 1, rw());
  mmu.map(0x2000, 0x5000, 1, bus);
  const auto r = mmu.translate(0x1FFF, 2, Access::kExecute);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kNoExecute);  // first page first
  EXPECT_EQ(r.fault->addr, 0x1FFFu);
  const auto r2 = mmu.translate(0x1FFF, 2, Access::kRead);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.fault->kind, FaultKind::kBusRegion);
  EXPECT_EQ(r2.fault->addr, 0x2000u);
}

TEST(MmuEdgeTest, LookupsInANeverMappedSlot) {
  Mmu mmu;
  mmu.map(0xC0000000u, 0x4000, 1, rw());
  for (const Access access :
       {Access::kRead, Access::kWrite, Access::kExecute}) {
    const auto r = mmu.translate(0x80000123u, 4, access);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
    EXPECT_EQ(r.fault->addr, 0x80000123u);
    EXPECT_EQ(r.fault->access, access);
  }
  // The mapped slot's other pages are unmapped too.
  EXPECT_FALSE(mmu.translate(0xC0001000u, 1, Access::kRead).ok());
}

TEST(MmuEdgeTest, UnmapThenRemapWithDifferentPerms) {
  Mmu mmu;
  mmu.map(0x7000, 0x4000, 1, rw());
  mmu.unmap(0x7000, 1);
  EXPECT_FALSE(mmu.perms_of(0x7000).has_value());
  mmu.map(0x7000, 0x8000, 1, rx());
  const auto perms = mmu.perms_of(0x7ABC);
  ASSERT_TRUE(perms.has_value());
  EXPECT_TRUE(perms->read);
  EXPECT_FALSE(perms->write);
  EXPECT_TRUE(perms->execute);
  EXPECT_FALSE(perms->bus);
  const auto x = mmu.translate(0x7ABC, 4, Access::kExecute);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.phys, 0x8ABCu);
  const auto w = mmu.translate(0x7ABC, 4, Access::kWrite);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.fault->kind, FaultKind::kNoWrite);
}

TEST(MmuEdgeTest, PermsAndMappedOnEmptySlotsAndEntries) {
  Mmu mmu;
  EXPECT_FALSE(mmu.is_mapped(0));
  EXPECT_FALSE(mmu.is_mapped(0xFFFFFFFFu));
  EXPECT_FALSE(mmu.perms_of(0x12345678u).has_value());
  mmu.unmap(0x40000000u, 2);  // unmapping nothing is harmless
  EXPECT_FALSE(mmu.is_mapped(0x40000000u));
  PagePerms bus;
  bus.bus = true;
  mmu.map(0xFE000000u, 0x4000, 1, bus);
  EXPECT_FALSE(mmu.is_mapped(0xFE001000u));  // same slot, other entry
  EXPECT_FALSE(mmu.perms_of(0xFE001000u).has_value());
  const auto perms = mmu.perms_of(0xFE000FFFu);
  ASSERT_TRUE(perms.has_value());
  EXPECT_TRUE(perms->bus);
  EXPECT_FALSE(perms->read);
}

TEST(MmuEdgeTest, AccessAtTheTopWrapsToPageZero) {
  // A 4-byte access at 0xFFFFFFFE ends at 0x00000001: its second page is
  // page 0, checked like any other crossing page.
  Mmu mmu;
  auto r = mmu.translate(0xFFFFFFFEu, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, 0xFFFFFFFEu);

  mmu.map(0xFFFFF000u, 0x7000, 1, rw());
  r = mmu.translate(0xFFFFFFFEu, 4, Access::kRead);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kUnmapped);
  EXPECT_EQ(r.fault->addr, 0x00000001u);
  EXPECT_TRUE(mmu.translate(0xFFFFFFFCu, 4, Access::kRead).ok());

  mmu.map(0, 0x3000, 1, ro());
  r = mmu.translate(0xFFFFFFFEu, 2, Access::kWrite);
  ASSERT_TRUE(r.ok());  // a 2-byte access stays on the top page
  EXPECT_EQ(r.phys, 0x7FFEu);
  r = mmu.translate(0xFFFFFFFEu, 4, Access::kWrite);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault->kind, FaultKind::kNoWrite);
  EXPECT_EQ(r.fault->addr, 0x00000001u);
  EXPECT_THROW(mmu.translate(0xFFFFFFFEu, 4, Access::kRead), InternalError);
}

}  // namespace
}  // namespace kfi::mem
