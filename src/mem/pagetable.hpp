// Radix page tables living in simulated physical memory.
//
// The layout follows the hardware convention the paper's MMU requires: each
// table node occupies exactly one page-sized frame and holds 8-byte PTEs,
// so a table indexes (page_bits - 3) VA bits per level. Level count is
// derived from the VA width:
//
//   page 4 KiB  -> 9-bit indices, 3 levels for a 32-bit VA
//   page 64 KiB -> 13-bit indices, 2 levels
//   page 2 MiB  -> 18-bit indices, 1 level
//
// which gives the page-size experiments their walk-depth story. The
// hardware PageWalker reads the table bytes through the memory bus level by
// level and pays cycles for every level it does not skip through its walk
// cache.
//
// The software side (OS model) manipulates entries functionally in zero
// simulated time, and resolves a leaf PTE in O(1): a leaf-table directory,
// indexed by the VA bits above one leaf table's reach
// (va >> (page_bits + index_bits)), records the physical base of every leaf
// table the create walk in map() has reached. Interior tables are never
// freed, so the directory never goes stale; a lookup, an A/D update or an
// unmap is one directory read plus one PTE read, whatever the depth.
#pragma once

#include <optional>
#include <string>

#include "mem/frames.hpp"
#include "mem/physmem.hpp"
#include "util/index_table.hpp"
#include "util/units.hpp"

namespace vmsls::mem {

struct PageTableConfig {
  unsigned va_bits = 32;
  unsigned page_bits = 12;  // log2(page size)
};

/// Decoded page-table entry. The on-disk format packs `frame` into bits
/// [63:16] and flags into the low bits.
struct Pte {
  bool valid = false;
  bool writable = false;
  bool accessed = false;
  bool dirty = false;
  u64 frame = 0;

  static Pte decode(u64 raw) noexcept {
    Pte p;
    p.valid = (raw & kValidBit) != 0;
    p.writable = (raw & kWriteBit) != 0;
    p.accessed = (raw & kAccessedBit) != 0;
    p.dirty = (raw & kDirtyBit) != 0;
    p.frame = raw >> kFrameShift;
    return p;
  }

  u64 encode() const noexcept {
    u64 raw = frame << kFrameShift;
    if (valid) raw |= kValidBit;
    if (writable) raw |= kWriteBit;
    if (accessed) raw |= kAccessedBit;
    if (dirty) raw |= kDirtyBit;
    return raw;
  }

 private:
  static constexpr u64 kValidBit = 1ull << 0;
  static constexpr u64 kWriteBit = 1ull << 1;
  static constexpr u64 kAccessedBit = 1ull << 2;
  static constexpr u64 kDirtyBit = 1ull << 3;
  static constexpr unsigned kFrameShift = 16;
};

class PageTable {
 public:
  PageTable(PhysicalMemory& pm, FrameAllocator& frames, const PageTableConfig& cfg);

  const PageTableConfig& config() const noexcept { return cfg_; }
  unsigned levels() const noexcept { return levels_; }
  unsigned index_bits() const noexcept { return idx_bits_; }
  u64 page_bytes() const noexcept { return 1ull << cfg_.page_bits; }
  PhysAddr root_addr() const noexcept { return root_addr_; }

  /// Index into the level-`level` table for `va` (level 0 = root).
  u64 index_at(VirtAddr va, unsigned level) const noexcept;

  /// Physical address of the PTE for `va` within a table at `table_base`.
  PhysAddr pte_addr(PhysAddr table_base, unsigned level, VirtAddr va) const noexcept;

  /// Maps the page containing `va` to `frame`. Interior tables are created
  /// on demand (frames come from the allocator). Remapping an already valid
  /// page is an error — unmap first.
  void map(VirtAddr va, u64 frame, bool writable);

  /// Invalidates the leaf PTE. Interior tables are retained. Throws if the
  /// page was not mapped.
  void unmap(VirtAddr va);

  /// A resolved leaf PTE slot: where it lives and what it holds
  /// (`pte.valid` is false for an unmapped page whose leaf table exists).
  struct Leaf {
    PhysAddr addr = 0;
    Pte pte;
  };

  /// The leaf PTE slot for `va`; nullopt when no leaf table covers it.
  /// The walker aims its timed A/D write-back at `addr`.
  std::optional<Leaf> leaf(VirtAddr va) const {
    const auto addr = find_leaf_pte_addr(va);
    if (!addr) return std::nullopt;
    return Leaf{*addr, Pte::decode(pm_.read_u64(*addr))};
  }

  /// Functional lookup. Returns nullopt when the page is not mapped.
  std::optional<Pte> lookup(VirtAddr va) const {
    const auto l = leaf(va);
    if (!l || !l->pte.valid) return std::nullopt;
    return l->pte;
  }

  bool is_mapped(VirtAddr va) const { return lookup(va).has_value(); }

  /// Sets accessed (and optionally dirty) bits on the leaf PTE. Const: the
  /// mutation targets simulated memory contents, not table structure — the
  /// MMU and walker call this through their const table references on every
  /// translation, which is what arms the replacement policies. Returns true
  /// when a bit actually changed (the PTE was written), which is what the
  /// walker's timed A/D write-back charges for.
  bool set_accessed_dirty(VirtAddr va, bool dirty) const;

  /// The same on an already-resolved valid leaf, which is kept current.
  bool set_accessed_dirty(Leaf& leaf, bool dirty) const {
    Pte& pte = leaf.pte;
    if (pte.accessed && (pte.dirty || !dirty)) return false;  // already in the target state
    pte.accessed = true;
    pte.dirty = pte.dirty || dirty;
    pm_.write_u64(leaf.addr, pte.encode());
    return true;
  }

  /// unmap() of an already-resolved valid leaf.
  void unmap(const Leaf& leaf) { pm_.write_u64(leaf.addr, 0); }

  /// Rewrites the leaf PTE's write permission in place (fork downgrades a
  /// shared page to read-only; COW resolution re-enables write). Accessed
  /// and dirty bits are preserved. Throws if the page is not mapped.
  void set_writable(VirtAddr va, bool writable);

  /// Reads and clears the accessed bit (the CLOCK/aging sweep primitive).
  /// Returns false when the page is unmapped.
  bool test_and_clear_accessed(VirtAddr va) const { return test_and_clear(va, &Pte::accessed); }

  /// Reads and clears the dirty bit (the pageout daemon's cleaning
  /// primitive: once the writeback is issued the page is clean until the
  /// next write dirties it again). Returns false when the page is unmapped.
  bool test_and_clear_dirty(VirtAddr va) const { return test_and_clear(va, &Pte::dirty); }

  /// Number of interior table frames allocated so far (root included).
  u64 table_frames() const noexcept { return table_frames_; }

  /// Validates `va` fits in the configured VA width.
  void check_va(VirtAddr va) const {
    if ((va >> cfg_.va_bits) != 0) [[unlikely]]
      throw_va_out_of_range();
  }

 private:
  static constexpr PhysAddr kNoTable = ~0ull;

  /// Physical address of the leaf PTE for `va`. A leaf table the directory
  /// does not know yet is reached by the create walk, which allocates the
  /// missing interior tables and records the leaf table in the directory.
  PhysAddr create_leaf_pte_addr(VirtAddr va);

  /// Directory read: nullopt when no leaf table covers `va`.
  std::optional<PhysAddr> find_leaf_pte_addr(VirtAddr va) const {
    check_va(va);
    const PhysAddr table = leaf_tables_.get(dir_key(va));
    if (table == kNoTable) return std::nullopt;
    return table + ((va >> cfg_.page_bits) & ((1ull << idx_bits_) - 1)) * 8;
  }

  [[noreturn]] static void throw_va_out_of_range();

  /// The resolved leaf, which must be valid; `what` names the caller.
  Leaf mapped_leaf(VirtAddr va, const char* what) const;

  /// Reads and clears one flag of a mapped leaf PTE; false when unmapped.
  bool test_and_clear(VirtAddr va, bool Pte::*bit) const;

  u64 dir_key(VirtAddr va) const noexcept { return va >> dir_shift_; }

  PhysicalMemory& pm_;
  FrameAllocator& frames_;
  PageTableConfig cfg_;
  unsigned idx_bits_;
  unsigned levels_;
  unsigned dir_shift_;  // page_bits + index_bits: the VA bits one leaf table spans
  PhysAddr root_addr_;
  u64 table_frames_ = 0;
  IndexTable<PhysAddr> leaf_tables_{kNoTable};  // dir_key(va) -> leaf table base
};

}  // namespace vmsls::mem
