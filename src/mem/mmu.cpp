#include "mem/mmu.hpp"

#include "common/error.hpp"

namespace kfi::mem {

const Mmu::Leaf Mmu::kEmptyLeaf{};

Mmu::Mmu() { dir_.fill(&kEmptyLeaf); }

u32& Mmu::writable_entry(u32 vpn) {
  std::unique_ptr<Leaf>& leaf = owned_[vpn >> kLeafBits];
  if (leaf == nullptr) {
    leaf = std::make_unique<Leaf>();
    dir_[vpn >> kLeafBits] = leaf.get();
  }
  return (*leaf)[vpn & (kLeafEntries - 1)];
}

void Mmu::map(Addr vaddr, u32 paddr, u32 pages, PagePerms perms) {
  KFI_CHECK((vaddr & (kPageSize - 1)) == 0, "map: vaddr not page aligned");
  KFI_CHECK((paddr & (kPageSize - 1)) == 0, "map: paddr not page aligned");
  const u32 first = vaddr >> kPageShift;
  KFI_CHECK(pages <= (1u << (32 - kPageShift)) - first,
            "map: range runs past the top of the address space");
  const u32 flags = kPresent | (perms.read ? kRead : 0) |
                    (perms.write ? kWrite : 0) |
                    (perms.execute ? kExecute : 0) | (perms.bus ? kBus : 0);
  for (u32 i = 0; i < pages; ++i) {
    writable_entry(first + i) = (paddr + (i << kPageShift)) | flags;
  }
}

void Mmu::unmap(Addr vaddr, u32 pages) {
  KFI_CHECK((vaddr & (kPageSize - 1)) == 0, "unmap: vaddr not page aligned");
  const u32 first = vaddr >> kPageShift;
  KFI_CHECK(pages <= (1u << (32 - kPageShift)) - first,
            "unmap: range runs past the top of the address space");
  for (u32 i = 0; i < pages; ++i) {
    const u32 vpn = first + i;
    if (owned_[vpn >> kLeafBits] != nullptr) writable_entry(vpn) = 0;
  }
}

MemFault Mmu::fault_of(u32 e, Addr addr, Access access) {
  if ((e & kPresent) == 0) return MemFault{FaultKind::kUnmapped, addr, access};
  if ((e & kBus) != 0) return MemFault{FaultKind::kBusRegion, addr, access};
  switch (access) {
    case Access::kRead: return MemFault{FaultKind::kNoRead, addr, access};
    case Access::kWrite: return MemFault{FaultKind::kNoWrite, addr, access};
    case Access::kExecute: break;
  }
  return MemFault{FaultKind::kNoExecute, addr, access};
}

void Mmu::check_adjacent(u32 e, u32 e2) {
  // Split accesses across non-contiguous frames are not needed by either
  // simulated kernel; require physical contiguity for simplicity.
  KFI_CHECK((e2 >> kPageShift) == (e >> kPageShift) + 1,
            "page-crossing access to non-adjacent frames");
}

std::optional<PageMapping> Mmu::lookup(Addr vaddr) const {
  const u32 e = entry(vaddr);
  if ((e & kPresent) == 0) return std::nullopt;
  return PageMapping{e & ~kPageMask,
                     PagePerms{.read = (e & kRead) != 0,
                               .write = (e & kWrite) != 0,
                               .execute = (e & kExecute) != 0,
                               .bus = (e & kBus) != 0}};
}

std::optional<PagePerms> Mmu::perms_of(Addr vaddr) const {
  const auto page = lookup(vaddr);
  if (!page.has_value()) return std::nullopt;
  return page->perms;
}

}  // namespace kfi::mem
