#include "mem/address_space.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace kfi::mem {

AddressSpace::AddressSpace(u32 phys_bytes, Endian endian)
    : phys_(phys_bytes), endian_(endian) {}

const Region& AddressSpace::map_region(const std::string& name, Addr base,
                                       u32 size, PagePerms perms) {
  KFI_CHECK((base & (kPageSize - 1)) == 0, "region base not page aligned");
  const u32 pages = (size + kPageSize - 1) / kPageSize;
  KFI_CHECK(pages > 0, "empty region");
  const u32 paddr = next_frame_ << kPageShift;
  KFI_CHECK((next_frame_ + pages) << kPageShift <= phys_.size(),
            "out of physical memory mapping region " + name);
  next_frame_ += pages;
  mmu_.map(base, paddr, pages, perms);
  regions_.push_back(Region{name, base, pages * kPageSize, perms});
  return regions_.back();
}

const Region& AddressSpace::note_unmapped(const std::string& name, Addr base,
                                          u32 size) {
  regions_.push_back(Region{name, base, size, PagePerms{}});
  return regions_.back();
}

u32 AddressSpace::must_translate(Addr va, u32 len) const {
  // Raw accessors are for trusted host-side code (loader, injector, kernel
  // glue); they bypass the write and execute permissions but still require
  // a mapping whose first page is readable.
  const auto page = mmu_.lookup(va);
  if (!page.has_value()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "host access to unmapped va 0x%08x", va);
    KFI_CHECK(false, buf);
  }
  KFI_CHECK(page->perms.read && !page->perms.bus,
            "host access to unreadable page");
  // A page-crossing access reads on into the next physical frame; a second
  // page that is readable must then be that frame (translate checks it).
  if ((((va + len - 1) ^ va) >> kPageShift) != 0) {
    (void)mmu_.translate(va, len, Access::kRead);
  }
  return page->frame_base | (va & kPageMask);
}

u8 AddressSpace::vread8(Addr va) const { return phys_.read8(must_translate(va, 1)); }
void AddressSpace::vwrite8(Addr va, u8 v) { phys_.write8(must_translate(va, 1), v); }
u16 AddressSpace::vread16(Addr va) const {
  return phys_.read16(must_translate(va, 2), endian_);
}
void AddressSpace::vwrite16(Addr va, u16 v) {
  phys_.write16(must_translate(va, 2), v, endian_);
}
u32 AddressSpace::vread32(Addr va) const {
  return phys_.read32(must_translate(va, 4), endian_);
}
void AddressSpace::vwrite32(Addr va, u32 v) {
  phys_.write32(must_translate(va, 4), v, endian_);
}

void AddressSpace::vwrite_bytes(Addr va, const u8* data, u32 len) {
  for (u32 i = 0; i < len; ++i) vwrite8(va + i, data[i]);
}

void AddressSpace::vread_bytes(Addr va, u8* out, u32 len) const {
  for (u32 i = 0; i < len; ++i) out[i] = vread8(va + i);
}

void AddressSpace::vflip_bit(Addr va, u32 bit) {
  phys_.flip_bit(must_translate(va, 1), bit);
}

const Region* AddressSpace::region_of(Addr va) const {
  for (const auto& r : regions_) {
    if (r.contains(va)) return &r;
  }
  return nullptr;
}

const Region* AddressSpace::region_named(const std::string& name) const {
  for (const auto& r : regions_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

}  // namespace kfi::mem
