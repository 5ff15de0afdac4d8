#include "mem/address_space.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace kfi::mem {
namespace {

TEST(AddressSpaceTest, MapRegionAllocatesFrames) {
  AddressSpace space(64 * 1024, Endian::kLittle);
  // Copies: the second map_region may reallocate the region table, which
  // would leave a reference to the first record dangling.
  const Region a = space.map_region("a", 0x10000, 4096, {.read = true});
  const Region b = space.map_region("b", 0x20000, 4096, {.read = true});
  EXPECT_EQ(a.size, 4096u);
  EXPECT_EQ(b.size, 4096u);
  // Distinct regions get distinct physical frames.
  space.vwrite8(0x10000, 1);
  EXPECT_EQ(space.vread8(0x20000), 0);
}

TEST(AddressSpaceTest, RegionLookupByAddressAndName) {
  AddressSpace space(64 * 1024, Endian::kBig);
  space.map_region("text", 0x1000, 8192, {.read = true, .execute = true});
  space.note_unmapped("null_page", 0, 4096);
  const Region* r = space.region_of(0x1FFF);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->name, "text");
  EXPECT_EQ(space.region_of(0x0)->name, "null_page");
  EXPECT_EQ(space.region_of(0x100000), nullptr);
  EXPECT_NE(space.region_named("text"), nullptr);
  EXPECT_EQ(space.region_named("absent"), nullptr);
}

TEST(AddressSpaceTest, EndianRespectingWordAccess) {
  AddressSpace le(64 * 1024, Endian::kLittle);
  le.map_region("d", 0x1000, 4096, {.read = true, .write = true});
  le.vwrite32(0x1000, 0x01020304u);
  EXPECT_EQ(le.vread8(0x1000), 0x04);

  AddressSpace be(64 * 1024, Endian::kBig);
  be.map_region("d", 0x1000, 4096, {.read = true, .write = true});
  be.vwrite32(0x1000, 0x01020304u);
  EXPECT_EQ(be.vread8(0x1000), 0x01);
}

TEST(AddressSpaceTest, VflipBitFlipsMemory) {
  AddressSpace space(64 * 1024, Endian::kLittle);
  space.map_region("d", 0x1000, 4096, {.read = true, .write = true});
  space.vwrite8(0x1234, 0x0F);
  space.vflip_bit(0x1234, 7);
  EXPECT_EQ(space.vread8(0x1234), 0x8F);
}

TEST(AddressSpaceTest, HostAccessCanWriteThroughWriteProtection) {
  // The loader writes the read-only text region through the host facade.
  AddressSpace space(64 * 1024, Endian::kLittle);
  space.map_region("text", 0x1000, 4096, {.read = true, .execute = true});
  space.vwrite8(0x1000, 0x90);
  EXPECT_EQ(space.vread8(0x1000), 0x90);
  // The CPU-visible translation still denies writes.
  EXPECT_FALSE(space.translate(0x1000, 1, Access::kWrite).ok());
}

TEST(AddressSpaceTest, RunsOutOfPhysicalMemory) {
  AddressSpace space(8 * 1024, Endian::kLittle);  // 2 frames (1 reserved)
  space.map_region("a", 0x1000, 4096, {.read = true});
  EXPECT_THROW(space.map_region("b", 0x10000, 8192, {.read = true}),
               InternalError);
}

TEST(AddressSpaceTest, BulkBytesRoundTrip) {
  AddressSpace space(64 * 1024, Endian::kBig);
  space.map_region("d", 0x2000, 8192, {.read = true, .write = true});
  std::vector<u8> data(100);
  for (u32 i = 0; i < 100; ++i) data[i] = static_cast<u8>(i ^ 0x5A);
  space.vwrite_bytes(0x2F00, data.data(), 100);
  std::vector<u8> out(100);
  space.vread_bytes(0x2F00, out.data(), 100);
  EXPECT_EQ(out, data);
}

TEST(AddressSpaceTest, HostAccessChecksMappingAndReadability) {
  // Host accessors ignore write and execute permissions, but the first
  // page must be mapped and readable; each refusal names its cause.
  AddressSpace space(64 * 1024, Endian::kLittle);
  space.map_region("xo", 0x1000, 4096, {.execute = true});
  space.map_region("wo", 0x2000, 4096, {.write = true});
  space.map_region("bus", 0x3000, 4096, {.read = true, .bus = true});
  const auto message = [&](Addr va) -> std::string {
    try {
      space.vread8(va);
    } catch (const InternalError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_NE(message(0x5004).find("host access to unmapped va 0x00005004"),
            std::string::npos);
  for (const Addr va : {0x1000u, 0x2FFFu, 0x3800u}) {
    EXPECT_NE(message(va).find("host access to unreadable page"),
              std::string::npos)
        << std::hex << va;
  }
}

TEST(AddressSpaceTest, HostAccessAcrossAPageReadsTheNextFrame) {
  // A word access that runs off a readable page into an unmapped or
  // unreadable one reads on into the next physical frame; into a readable
  // page on any other frame it is a simulator invariant failure.
  AddressSpace space(64 * 1024, Endian::kLittle);
  space.map_region("a", 0x1000, 4096, {.read = true, .write = true});
  space.map_region("b", 0x8000, 4096, {.read = true, .write = true});
  space.map_region("c", 0x9000, 4096, {.read = true, .write = true});
  space.vwrite32(0x1FFC, 0x11223344);  // frame 1
  space.vwrite32(0x8000, 0xAABBCCDD);  // frame 2, right after it
  EXPECT_EQ(space.vread32(0x1FFE), 0xCCDD1122u);  // 0x2000 is unmapped
  space.mmu().unmap(0x9000, 1);
  space.mmu().map(0x9000, 0x6000, 1, {.read = true});
  EXPECT_THROW(space.vread32(0x8FFE), InternalError);
}

}  // namespace
}  // namespace kfi::mem
