// Page-granular MMU shared by both simulated processors.
//
// Translation failures do not throw: they return a MemFault that the CPU
// models convert into their architectural exceptions — a page fault on the
// P4-like machine (classified by the Linux-like kernel as "NULL pointer"
// vs. "bad paging"), a DSI / "kernel access of bad area" on the G4-like
// machine, or a machine check when address translation is disabled via the
// MSR (one of the paper's observed G4 register-error effects).
//
// The page table is a two-level radix table over the 20-bit virtual page
// number: a 1024-slot directory indexed by vpn >> 10 whose slots point at
// 1024-entry leaves.  Every slot that was never mapped points at one
// shared, all-zero leaf, so a lookup is two dependent loads with no null
// check.  Each entry packs the frame and a permission mask into one word,
// so the permission test on the translate path is one AND and a compare.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "mem/phys_mem.hpp"

namespace kfi::mem {

// kPageSize / kPageShift live in phys_mem.hpp, next to the per-page write
// versions that share the same geometry.

enum class Access { kRead, kWrite, kExecute };

enum class FaultKind {
  kUnmapped,      // no translation for the page
  kNoRead,        // mapped but read permission missing
  kNoWrite,       // mapped but write-protected (e.g. kernel text)
  kNoExecute,     // mapped but not executable (e.g. data, stack)
  kBusRegion,     // processor-local bus / device region: raises machine check
  kTranslationOff // address translation disabled (MSR.IR/DR cleared)
};

struct MemFault {
  FaultKind kind;
  Addr addr;
  Access access;
};

struct PagePerms {
  bool read = false;
  bool write = false;
  bool execute = false;
  /// Region sits on the simulated processor-local bus; any access raises a
  /// machine-check-class fault (used for the G4 machine-check category).
  bool bus = false;
};

struct TranslateResult {
  /// Valid physical address when fault is empty.
  u32 phys = 0;
  std::optional<MemFault> fault;

  bool ok() const { return !fault.has_value(); }
};

/// One mapped page: where it lives and what it allows.
struct PageMapping {
  u32 frame_base = 0;  // physical address of the page's first byte
  PagePerms perms;
};

class Mmu {
 public:
  Mmu();
  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  /// Map `pages` consecutive virtual pages starting at `vaddr` (page
  /// aligned) to consecutive physical pages starting at `paddr`.
  void map(Addr vaddr, u32 paddr, u32 pages, PagePerms perms);

  /// Remove the translation for the pages (used for guard pages).
  void unmap(Addr vaddr, u32 pages);

  /// Translate one access of `len` bytes (len in {1,2,4}).  An access that
  /// crosses a page boundary is checked on both pages, the first one first.
  TranslateResult translate(Addr vaddr, u32 len, Access access) const {
    const u32 need = kPresent | access_bit(access);
    const u32 e = entry(vaddr);
    TranslateResult result;
    if ((e & (need | kBus)) != need) {
      result.fault = fault_of(e, vaddr, access);
      return result;
    }
    const Addr last = vaddr + len - 1;  // wraps to page 0 at the top
    if (((last ^ vaddr) >> kPageShift) != 0) {
      const u32 e2 = entry(last);
      if ((e2 & (need | kBus)) != need) {
        result.fault = fault_of(e2, last, access);
        return result;
      }
      check_adjacent(e, e2);
    }
    result.phys = (e & ~kPageMask) | (vaddr & kPageMask);
    return result;
  }

  bool is_mapped(Addr vaddr) const { return (entry(vaddr) & kPresent) != 0; }

  /// Look up the perms of the page containing vaddr (if mapped).
  std::optional<PagePerms> perms_of(Addr vaddr) const;

  /// The page containing vaddr, whatever its permissions (if mapped).
  std::optional<PageMapping> lookup(Addr vaddr) const;

 private:
  static constexpr u32 kLeafBits = 10;
  static constexpr u32 kLeafEntries = 1u << kLeafBits;
  static constexpr u32 kDirEntries = 1u << (32 - kPageShift - kLeafBits);
  // Entry layout: the frame's physical base in the high 20 bits, flags in
  // the low bits.  An all-zero entry is unmapped.
  static constexpr u32 kPresent = 1u << 0;
  static constexpr u32 kRead = 1u << 1;
  static constexpr u32 kWrite = 1u << 2;
  static constexpr u32 kExecute = 1u << 3;
  static constexpr u32 kBus = 1u << 4;

  using Leaf = std::array<u32, kLeafEntries>;
  // Shared by every unmapped directory slot of every Mmu; never written.
  static const Leaf kEmptyLeaf;

  static constexpr u32 access_bit(Access access) {
    return kRead << static_cast<u32>(access);
  }

  u32 entry(Addr vaddr) const {
    const u32 vpn = vaddr >> kPageShift;
    return (*dir_[vpn >> kLeafBits])[vpn & (kLeafEntries - 1)];
  }

  static MemFault fault_of(u32 e, Addr addr, Access access);
  static void check_adjacent(u32 e, u32 e2);

  /// The entry for `vpn`, giving its directory slot a leaf of its own
  /// first if it still shares the empty one.
  u32& writable_entry(u32 vpn);

  std::array<const Leaf*, kDirEntries> dir_;             // lookups
  std::array<std::unique_ptr<Leaf>, kDirEntries> owned_;  // non-empty leaves
};

}  // namespace kfi::mem
