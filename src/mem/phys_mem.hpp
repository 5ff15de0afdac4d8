// Simulated physical memory.
//
// A paged byte store standing in for the 256 MB of RAM on the paper's
// target machines (we default much smaller; the miniature kernel needs
// well under 2 MB).  Byte-addressed; multi-byte accessors exist in both
// endiannesses because the P4-like machine (cisca) is little-endian while
// the G4-like machine (riscf) is big-endian, exactly as the real
// processors were.
//
// Snapshots of physical memory are the simulation's substitute for the
// paper's "reboot the target system" step: restoring a snapshot returns the
// machine to a known-good state in microseconds instead of minutes.
//
// Three hot-loop services live here because every store in the system —
// workload stores executed by the CPU models, injected bit flips, kernel
// glue writes, snapshot restores — funnels through this class:
//
//   * Per-page write versions.  Each write bumps a monotonic counter for
//     the page(s) it touches.  The CPUs' superblock caches validate
//     blocks against these counters, so a store into cached code
//     (self-modification, an injected flip, a reboot) invalidates
//     exactly the stale blocks — a correctness
//     requirement in a framework whose whole point is corrupting code
//     bytes.
//
//   * Dirty-page fast reboot.  A snapshot taken via snapshot_shared()
//     becomes the restore "baseline"; restore() then brings back only the
//     pages whose version moved since the baseline was last in sync,
//     turning the per-injection reboot from O(memory size) into
//     O(pages written by the run).  Snapshots are shared immutable
//     buffers, so holding one (e.g. the boot snapshot) costs one copy
//     total, not one per holder.
//
//   * Copy-on-write page sharing.  Memory is a table of per-page read
//     pointers: a page either aliases an immutable shared buffer (a
//     snapshot, or the all-zero page) or a private 4 KiB copy owned by
//     this instance.  Writes materialize the private copy on first touch.
//     Restoring a shared snapshot re-points pages instead of copying
//     them, so N worker machines rebooting from one boot snapshot hold
//     ~1 memory image plus their private dirty pages — not N full
//     images.  `set_cow_enabled(false)` keeps every page private and
//     restores by memcpy (the pre-COW behavior); contents and version
//     counters are bit-identical either way.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace kfi::mem {

enum class Endian { kLittle, kBig };

/// Page geometry shared by the MMU and the dirty/version tracking.
constexpr u32 kPageSize = 4096;
constexpr u32 kPageShift = 12;
constexpr u32 kPageMask = kPageSize - 1;

class PhysicalMemory {
 public:
  /// Immutable shared snapshot buffer; one copy no matter how many holders.
  using Snapshot = std::vector<u8>;
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  explicit PhysicalMemory(u32 size_bytes);

  u32 size() const { return size_; }
  u32 num_pages() const { return static_cast<u32>(page_version_.size()); }

  /// Monotonic write counter of one page; bumped by every store into the
  /// page (including snapshot restores that rewrite it).  The decode and
  /// superblock caches use this to detect stale entries.
  u64 page_version(u32 page) const { return page_version_[page]; }

  /// Bytes backing one page: kPageSize except for a short last page.
  u32 page_bytes(u32 page) const {
    const u32 off = page << kPageShift;
    const u32 remain = size_ - off;
    return remain < kPageSize ? remain : kPageSize;
  }

  /// Read-only view of one page's page_bytes() bytes, valid until the
  /// next write or restore.  Reading through it bumps no version, so the
  /// spin-loop detector can copy and compare pages without disturbing
  /// the caches that validate against versions.
  const u8* page_data(u32 page) const { return read_pages_[page]; }

  /// Copy-on-write control.  Enabled by default; disabling materializes
  /// every page so all subsequent restores copy instead of re-pointing.
  void set_cow_enabled(bool on);
  bool cow_enabled() const { return cow_; }

  /// Pages with private backing storage allocated — the instance's
  /// resident footprint beyond shared snapshot buffers (COW observability
  /// for the campaign-scaling bench).
  u32 private_pages() const;

  u8 read8(u32 pa) const {
    check_range(pa, 1);
    return read_pages_[pa >> kPageShift][pa & kPageMask];
  }
  void write8(u32 pa, u8 value) {
    check_range(pa, 1);
    mark_written(pa, 1);
    writable(pa >> kPageShift)[pa & kPageMask] = value;
  }

  u16 read16(u32 pa, Endian endian) const {
    check_range(pa, 2);
    const u32 off = pa & kPageMask;
    if (off + 2 <= kPageSize) {
      const u8* p = read_pages_[pa >> kPageShift] + off;
      if (endian == Endian::kLittle) {
        return static_cast<u16>(p[0] | (p[1] << 8));
      }
      return static_cast<u16>((p[0] << 8) | p[1]);
    }
    return read_split16(pa, endian);
  }
  void write16(u32 pa, u16 value, Endian endian) {
    check_range(pa, 2);
    mark_written(pa, 2);
    const u32 off = pa & kPageMask;
    if (off + 2 <= kPageSize) {
      u8* p = writable(pa >> kPageShift) + off;
      if (endian == Endian::kLittle) {
        p[0] = static_cast<u8>(value);
        p[1] = static_cast<u8>(value >> 8);
      } else {
        p[0] = static_cast<u8>(value >> 8);
        p[1] = static_cast<u8>(value);
      }
      return;
    }
    write_split16(pa, value, endian);
  }

  u32 read32(u32 pa, Endian endian) const {
    check_range(pa, 4);
    const u32 off = pa & kPageMask;
    if (off + 4 <= kPageSize) {
      const u8* p = read_pages_[pa >> kPageShift] + off;
      if (endian == Endian::kLittle) {
        return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
               (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
      }
      return (static_cast<u32>(p[0]) << 24) | (static_cast<u32>(p[1]) << 16) |
             (static_cast<u32>(p[2]) << 8) | static_cast<u32>(p[3]);
    }
    return read_split32(pa, endian);
  }
  void write32(u32 pa, u32 value, Endian endian) {
    check_range(pa, 4);
    mark_written(pa, 4);
    const u32 off = pa & kPageMask;
    if (off + 4 <= kPageSize) {
      u8* p = writable(pa >> kPageShift) + off;
      if (endian == Endian::kLittle) {
        p[0] = static_cast<u8>(value);
        p[1] = static_cast<u8>(value >> 8);
        p[2] = static_cast<u8>(value >> 16);
        p[3] = static_cast<u8>(value >> 24);
      } else {
        p[0] = static_cast<u8>(value >> 24);
        p[1] = static_cast<u8>(value >> 16);
        p[2] = static_cast<u8>(value >> 8);
        p[3] = static_cast<u8>(value);
      }
      return;
    }
    write_split32(pa, value, endian);
  }

  /// Bulk copy helpers for loading kernel images.
  void write_bytes(u32 pa, const u8* data, u32 len);
  void read_bytes(u32 pa, u8* out, u32 len) const;

  /// Flip a single bit of physical memory (the paper's error model).
  void flip_bit(u32 pa, u32 bit);

  /// Whole-memory snapshot into a shared immutable buffer.  The snapshot
  /// becomes the fast-restore baseline: restore() of this exact snapshot
  /// brings back only pages written since.  With COW enabled, every page
  /// is re-pointed at the snapshot (contents unchanged, so no version
  /// bumps) and private storage is released — taking the boot snapshot is
  /// what drops a machine's resident footprint to the shared image.
  SnapshotPtr snapshot_shared();

  /// Restore ("reboot").  Dirty-page fast path when `snap` is the current
  /// baseline; falls back to a full adoption (re-establishing the
  /// baseline) for any other snapshot.  Either way the memory ends
  /// bit-identical to the snapshot and every brought-back page's version
  /// is bumped (cached decodes of the dirtied bytes are stale).
  void restore(const SnapshotPtr& snap);

  /// Restore by unconditional full copy/adoption — the pre-optimization
  /// behavior, kept as a cross-check knob so campaigns can prove the fast
  /// path is invisible to results.
  void restore_full(const SnapshotPtr& snap);

  /// Legacy by-value snapshot / restore (tests and one-off tools).
  std::vector<u8> snapshot() const;
  void restore(const std::vector<u8>& snap);

  // --- restore observability (for the reboot benches) ---
  u64 restores() const { return restores_; }
  u64 restore_pages_copied() const { return restore_pages_copied_; }
  u32 last_restore_pages() const { return last_restore_pages_; }

 private:
  void check_range(u32 pa, u32 len) const {
    KFI_CHECK(pa + len >= pa && pa + len <= size_,
              "physical access out of range");
  }

  /// Bump the write version of every page [pa, pa+len) touches.  len is
  /// at most a few bytes on the hot paths, so first/last covers it.
  void mark_written(u32 pa, u32 len) {
    const u32 first = pa >> kPageShift;
    const u32 last = (pa + len - 1) >> kPageShift;
    ++page_version_[first];
    if (last != first) ++page_version_[last];
  }

  /// The page's private writable copy, materialized on first write.
  u8* writable(u32 page) {
    u8* p = write_pages_[page];
    return p != nullptr ? p : materialize(page);
  }
  u8* materialize(u32 page);

  /// Point every page at `snap`'s buffer (contents must already match or
  /// be superseded intentionally).  Releases private storage when asked —
  /// that is what makes worker memory sublinear in worker count.
  void adopt_all(const SnapshotPtr& snap, bool release_storage);

  // Cross-page slow paths for the multi-byte accessors.
  u16 read_split16(u32 pa, Endian endian) const;
  u32 read_split32(u32 pa, Endian endian) const;
  void write_split16(u32 pa, u16 value, Endian endian);
  void write_split32(u32 pa, u32 value, Endian endian);

  /// Adopt-or-copy every page from `snap` and re-sync the baseline to it.
  void full_copy(const SnapshotPtr& snap);

  u32 size_ = 0;
  bool cow_ = true;
  /// Per-page read source: private copy, shared snapshot page, or the
  /// all-zero page.  write_pages_[p] is non-null iff the page is private.
  std::vector<const u8*> read_pages_;
  std::vector<u8*> write_pages_;
  /// Private backing storage, retained across re-points so hot dirty
  /// pages don't re-allocate every reboot.
  std::vector<std::unique_ptr<u8[]>> storage_;
  std::vector<u64> page_version_;

  /// Baseline for the dirty-page fast path: the last snapshot this memory
  /// was known bit-identical to, and the page versions at that moment.
  SnapshotPtr baseline_;
  std::vector<u64> baseline_version_;

  u64 restores_ = 0;
  u64 restore_pages_copied_ = 0;
  u32 last_restore_pages_ = 0;
};

}  // namespace kfi::mem
