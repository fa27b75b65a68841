#include "mem/pagetable.hpp"

#include <stdexcept>

namespace vmsls::mem {

PageTable::PageTable(PhysicalMemory& pm, FrameAllocator& frames, const PageTableConfig& cfg)
    : pm_(pm), frames_(frames), cfg_(cfg) {
  require(cfg.page_bits >= 6 && cfg.page_bits <= 24, "page size must be 64 B .. 16 MiB");
  require(cfg.va_bits > cfg.page_bits && cfg.va_bits <= 48, "va_bits must exceed page_bits");
  require(frames.frame_bytes() == page_bytes(), "frame allocator granularity must equal page size");
  idx_bits_ = cfg.page_bits - 3;  // 8-byte PTEs, one table per frame
  const unsigned translated = cfg.va_bits - cfg.page_bits;
  levels_ = static_cast<unsigned>(ceil_div(translated, idx_bits_));
  dir_shift_ = cfg.page_bits + idx_bits_;
  const auto root_frame = frames_.alloc();
  if (!root_frame) throw std::runtime_error("PageTable: no frame for the root table");
  root_addr_ = frames_.frame_addr(*root_frame);
  pm_.clear(root_addr_, page_bytes());
  table_frames_ = 1;
  // A one-level table is its own leaf table and covers the whole VA range.
  if (levels_ == 1) leaf_tables_.at(0) = root_addr_;
}

void PageTable::throw_va_out_of_range() {
  throw std::out_of_range("virtual address exceeds configured VA width");
}

u64 PageTable::index_at(VirtAddr va, unsigned level) const noexcept {
  // Level 0 indexes the most significant translated bits.
  const unsigned shift = cfg_.page_bits + idx_bits_ * (levels_ - 1 - level);
  const u64 mask = (1ull << idx_bits_) - 1;
  return (va >> shift) & mask;
}

PhysAddr PageTable::pte_addr(PhysAddr table_base, unsigned level, VirtAddr va) const noexcept {
  return table_base + index_at(va, level) * 8;
}

PhysAddr PageTable::create_leaf_pte_addr(VirtAddr va) {
  if (const auto leaf = find_leaf_pte_addr(va)) return *leaf;
  PhysAddr base = root_addr_;
  for (unsigned level = 0; level + 1 < levels_; ++level) {
    const PhysAddr pa = pte_addr(base, level, va);
    Pte pte = Pte::decode(pm_.read_u64(pa));
    if (!pte.valid) {
      // Page-table nodes are wired memory: they are never paged out, so
      // exhaustion here is fatal rather than a pager event.
      const auto frame = frames_.alloc();
      if (!frame) throw std::runtime_error("PageTable: out of frames for an interior table");
      pm_.clear(frames_.frame_addr(*frame), page_bytes());
      ++table_frames_;
      pte = Pte{};
      pte.valid = true;
      pte.writable = true;  // interior nodes carry no permission semantics
      pte.frame = *frame;
      pm_.write_u64(pa, pte.encode());
    }
    base = frames_.frame_addr(pte.frame);
  }
  leaf_tables_.at(dir_key(va)) = base;
  return pte_addr(base, levels_ - 1, va);
}

PageTable::Leaf PageTable::mapped_leaf(VirtAddr va, const char* what) const {
  const auto l = leaf(va);
  if (!l || !l->pte.valid)
    throw std::logic_error(std::string("PageTable::") + what + ": page not mapped");
  return *l;
}

void PageTable::map(VirtAddr va, u64 frame, bool writable) {
  const PhysAddr leaf = create_leaf_pte_addr(va);
  if (Pte::decode(pm_.read_u64(leaf)).valid)
    throw std::logic_error("PageTable::map: page already mapped");
  Pte pte;
  pte.valid = true;
  pte.writable = writable;
  pte.frame = frame;
  pm_.write_u64(leaf, pte.encode());
}

void PageTable::unmap(VirtAddr va) { unmap(mapped_leaf(va, "unmap")); }

bool PageTable::set_accessed_dirty(VirtAddr va, bool dirty) const {
  auto l = leaf(va);
  return l && l->pte.valid && set_accessed_dirty(*l, dirty);
}

void PageTable::set_writable(VirtAddr va, bool writable) {
  Leaf l = mapped_leaf(va, "set_writable");
  l.pte.writable = writable;
  pm_.write_u64(l.addr, l.pte.encode());
}

bool PageTable::test_and_clear(VirtAddr va, bool Pte::*bit) const {
  auto l = leaf(va);
  if (!l || !l->pte.valid) return false;
  const bool was = l->pte.*bit;
  l->pte.*bit = false;
  pm_.write_u64(l->addr, l->pte.encode());
  return was;
}

}  // namespace vmsls::mem
