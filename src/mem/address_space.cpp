#include "mem/address_space.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace vmsls::mem {

AddressSpace::AddressSpace(PhysicalMemory& pm, FrameAllocator& frames, const PageTableConfig& cfg,
                           VirtAddr heap_base)
    : pm_(pm), frames_(frames), pt_(pm, frames, cfg), brk_(heap_base) {
  require(heap_base > 0, "heap must not start at the null page");
}

AddressSpace::~AddressSpace() {
  for (u64 i = 0; i < backing_.size(); ++i)
    if (u8* page = backing_.get(i)) pm_.give_page(page);
}

VirtAddr AddressSpace::alloc(u64 bytes, u64 align) {
  require(bytes > 0, "cannot allocate zero bytes");
  require(is_pow2(align), "alignment must be a power of two");
  brk_ = align_up(brk_, align);
  const VirtAddr va = brk_;
  brk_ += bytes;
  pt_.check_va(brk_ - 1);
  return va;
}

std::span<u8*> AddressSpace::slot(u64 vpn) {
  const u64 n = slot_chunks();
  backing_.at((vpn + 1) * n - 1);  // grows the table over the whole slot
  return {&backing_.at(vpn * n), n};
}

void AddressSpace::save_page(u64 vpn, PhysAddr pa, bool move) {
  const std::span<u8*> pages = slot(vpn);
  if (move) {
    pm_.swap_pages(pa, pages);
    return;
  }
  const u64 bytes = slot_page_bytes();
  for (u64 i = 0; i < pages.size(); ++i) {
    if (pages[i] == nullptr) pages[i] = pm_.take_page();
    pm_.read(pa + i * bytes, std::span<u8>(pages[i], bytes));
  }
  ++copied_pages_;
}

VirtAddr AddressSpace::mmap(BackingFile& file, u64 offset, u64 bytes, bool shared) {
  const u64 page = page_bytes();
  require(file.block_bytes() == page, "file block size must equal the page size");
  require(bytes > 0, "cannot mmap zero bytes");
  require((offset & (page - 1)) == 0, "mmap offset must be page-aligned");
  require(offset + bytes <= file.size_bytes(), "mmap range exceeds the file");
  const VirtAddr va = alloc(align_up(bytes, page), page);
  bind_file(va, bytes, file, offset, shared);
  return va;
}

void AddressSpace::bind_file(VirtAddr va, u64 bytes, BackingFile& file, u64 offset, bool shared) {
  const u64 page = page_bytes();
  require(file.block_bytes() == page, "file block size must equal the page size");
  require(bytes > 0, "cannot bind zero bytes");
  require((va & (page - 1)) == 0, "bind_file range must be page-aligned");
  require((offset & (page - 1)) == 0, "bind_file offset must be page-aligned");
  const u64 pages = align_up(bytes, page) / page;
  require(offset + pages * page <= file.size_bytes(), "bind_file range exceeds the file");
  const u64 first_vpn = va / page;
  for (u64 i = 0; i < pages; ++i)
    require(!file_page(first_vpn + i), "bind_file range overlaps an existing file region");
  // Capture current contents so the file becomes the canonical copy: a
  // resident frame's bytes win over a stale backing-store save, which wins
  // over the file's zero-fill.
  for (u64 i = 0; i < pages; ++i) {
    const u64 vpn = first_vpn + i;
    auto dst = file.block_data(offset / page + i);
    const auto pte = pt_.lookup(vpn * page);
    if (pte) pm_.read(frames_.frame_addr(pte->frame), dst);
    if (!has_backing(vpn)) continue;
    const u64 bytes = slot_page_bytes();
    const std::span<u8*> held = slot(vpn);
    for (u64 c = 0; c < held.size(); ++c) {
      if (!pte) std::memcpy(dst.data() + c * bytes, held[c], bytes);
      pm_.give_page(held[c]);
      held[c] = nullptr;
    }
  }
  FileRegion region{first_vpn, pages, &file, offset / page, shared};
  const auto pos = std::upper_bound(
      regions_.begin(), regions_.end(), region,
      [](const FileRegion& a, const FileRegion& b) { return a.first_vpn < b.first_vpn; });
  regions_.insert(pos, region);
}

std::optional<FilePageRef> AddressSpace::file_page(u64 vpn) const {
  if (regions_.empty()) return std::nullopt;  // anon-only workloads: no search
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), vpn,
      [](u64 v, const FileRegion& r) { return v < r.first_vpn; });
  if (it == regions_.begin()) return std::nullopt;
  const FileRegion& r = *std::prev(it);
  if (vpn >= r.first_vpn + r.pages) return std::nullopt;
  return FilePageRef{r.file, r.first_block + (vpn - r.first_vpn), r.shared};
}

void AddressSpace::sync_page(u64 vpn) {
  const auto pte = pt_.lookup(vpn * page_bytes());
  if (!pte) return;
  const PhysAddr pa = frames_.frame_addr(pte->frame);
  const auto fp = file_page(vpn);
  if (fp && fp->shared) {
    pm_.read(pa, fp->file->block_data(fp->block));
    ++copied_pages_;
  } else {
    // Anonymous page, or a private file page whose modifications must land
    // in the process-local copy — never in the shared file. The page stays
    // resident, so its bytes are copied.
    save_page(vpn, pa, /*move=*/false);
  }
}

u64 AddressSpace::map_page(VirtAddr va, bool writable) {
  const u64 page = page_bytes();
  const VirtAddr base = align_down(va, page);
  const u64 vpn = base / page;
  const auto fp = file_page(vpn);
  // A MAP_SHARED block another address space already holds resident is
  // mapped by reference: same frame, one more sharer, no fill (the frame's
  // bytes are the block's current truth — possibly newer than the file).
  if (share_ != nullptr && fp && fp->shared) {
    if (const auto shared = share_->lookup(fp->file->id(), fp->block)) {
      frames_.ref(*shared);
      pt_.map(base, *shared, writable);
      resident_vpns_.insert(vpn);
      ++demand_maps_;
      if (observer_) observer_->on_map(vpn, *shared);
      return *shared;
    }
  }
  // Under exhaustion, reclaim enough for the data frame plus any interior
  // table frames pt_.map may need to create below (at most levels - 1).
  auto frame = frames_.alloc();
  if (!frame && observer_ && observer_->reclaim(pt_.levels()) > 0) frame = frames_.alloc();
  if (!frame)
    throw std::runtime_error("AddressSpace: out of physical frames and nothing reclaimable");
  const PhysAddr pa = frames_.frame_addr(*frame);
  // Fill order: a saved anonymous/private copy wins over the file (it holds
  // the page's private modifications), the file wins over zero-fill. The
  // fresh frame is this space's alone, so a saved copy moves in whole.
  if (has_backing(vpn)) {
    const std::span<u8*> pages = slot(vpn);
    if (moves_pages()) {
      pm_.swap_pages(pa, pages);
    } else {
      pm_.write(pa, std::span<const u8>(pages[0], page));
      ++copied_pages_;
    }
  } else if (fp) {
    pm_.write(pa, fp->file->block_data(fp->block));
  } else {
    pm_.clear(pa, page);
  }
  pt_.map(base, *frame, writable);
  resident_vpns_.insert(vpn);
  ++demand_maps_;
  if (share_ != nullptr && fp && fp->shared) share_->insert(fp->file->id(), fp->block, *frame);
  if (observer_) observer_->on_map(vpn, *frame);
  return *frame;
}

void AddressSpace::populate(VirtAddr va, u64 bytes) {
  const u64 page = page_bytes();
  for (VirtAddr p = align_down(va, page); p < va + bytes; p += page)
    if (!pt_.is_mapped(p)) map_page(p);
}

u64 AddressSpace::evict(VirtAddr va, u64 bytes) {
  const u64 page = page_bytes();
  u64 evicted = 0;
  for (VirtAddr p = align_down(va, page); p < va + bytes; p += page) {
    const auto leaf = pt_.leaf(p);
    if (!leaf || !leaf->pte.valid) continue;
    const Pte& pte = leaf->pte;
    const PhysAddr pa = frames_.frame_addr(pte.frame);
    const u64 vpn = p / page;
    const auto fp = file_page(vpn);
    // A frame no other space maps is freed below, so its bytes can move.
    const bool move = moves_pages() && frames_.refcount(pte.frame) == 1;
    if (!fp) {
      // Anonymous: contents always survive in the backing store.
      save_page(vpn, pa, move);
    } else if (!fp->shared) {
      // Private file page: save the process-local copy once it diverges (or
      // has diverged before — a pageout-cleaned page is clean in the PTE but
      // its truth lives in the backing store, which must stay fresh).
      if (pte.dirty || has_backing(vpn)) save_page(vpn, pa, move);
    } else {
      // Shared file page: dirty writes back to the file; clean drops free.
      if (pte.dirty) pm_.read(pa, fp->file->block_data(fp->block));
    }
    pt_.unmap(*leaf);
    const u64 sharers_left = frames_.free(pte.frame);
    resident_vpns_.erase(vpn);
    if (share_ != nullptr && fp && fp->shared && sharers_left == 0)
      share_->erase(fp->file->id(), fp->block);
    ++evicted;
    if (observer_) observer_->on_unmap(vpn, pte.dirty, pte.frame, sharers_left);
  }
  return evicted;
}

u64 AddressSpace::fork_from(AddressSpace& parent) {
  require(&pm_ == &parent.pm_ && &frames_ == &parent.frames_,
          "fork_from requires both address spaces to live on one physical machine");
  require(resident_vpns_.empty() && regions_.empty() && backing_.size() == 0,
          "fork_from target must be a fresh address space");
  brk_ = parent.brk_;
  regions_ = parent.regions_;
  // Inherited swap/file-divergence copies, page by page.
  const u64 bytes = slot_page_bytes();
  for (u64 i = 0; i < parent.backing_.size(); ++i) {
    if (const u8* page = parent.backing_.get(i)) {
      u8* copy = pm_.take_page();
      std::memcpy(copy, page, bytes);
      backing_.at(i) = copy;
    }
  }
  const u64 page = page_bytes();
  u64 shared = 0;
  parent.resident_vpns_.for_each([&](u64 vpn) {
    const VirtAddr va = vpn * page;
    const auto pte = parent.pt_.lookup(va);
    require(pte.has_value(), "fork_from: resident page has no PTE");
    const auto fp = parent.file_page(vpn);
    const bool truly_shared = fp && fp->shared;  // MAP_SHARED: writes stay shared
    if (!truly_shared && pte->writable) parent.pt_.set_writable(va, false);
    frames_.ref(pte->frame);
    pt_.map(va, pte->frame, truly_shared ? pte->writable : false);
    resident_vpns_.insert(vpn);
    if (observer_) observer_->on_map(vpn, pte->frame);
    ++shared;
  });
  return shared;
}

AddressSpace::CowResult AddressSpace::cow_resolve(VirtAddr va) {
  const u64 page = page_bytes();
  const VirtAddr base = align_down(va, page);
  const u64 vpn = base / page;
  const auto pte = pt_.lookup(base);
  require(pte.has_value(), "cow_resolve of an unmapped page");
  if (pte->writable) return CowResult{false, pte->frame};  // a racer resolved first
  if (frames_.refcount(pte->frame) == 1) {
    // Sole mapping left (sharers evicted or already diverged): re-enable
    // write in place, no copy.
    pt_.set_writable(base, true);
    return CowResult{false, pte->frame};
  }
  auto frame = frames_.alloc();
  if (!frame && observer_ && observer_->reclaim(1) > 0) frame = frames_.alloc();
  if (!frame) throw std::runtime_error("AddressSpace: out of physical frames for a COW copy");
  pm_.copy(frames_.frame_addr(pte->frame), frames_.frame_addr(*frame), page);
  ++copied_pages_;
  pt_.unmap(base);
  pt_.map(base, *frame, /*writable=*/true);
  frames_.free(pte->frame);  // drop this space's reference on the shared frame
  if (observer_) observer_->on_cow(vpn, pte->frame, *frame);
  return CowResult{true, *frame};
}

void AddressSpace::pin(VirtAddr va) {
  if (pins_.at(va / page_bytes())++ == 0) ++pinned_pages_;
}

void AddressSpace::unpin(VirtAddr va) {
  const u64 vpn = va / page_bytes();
  require(pins_.get(vpn) != 0, "unpin of a page that holds no pins");
  if (--pins_.at(vpn) == 0) --pinned_pages_;
}

std::optional<PhysAddr> AddressSpace::translate(VirtAddr va) const {
  const auto pte = pt_.lookup(va);
  if (!pte) return std::nullopt;
  const u64 offset = va & (page_bytes() - 1);
  return frames_.frame_addr(pte->frame) + offset;
}

u64 AddressSpace::peek_u64(VirtAddr va) const {
  const auto pa = translate(va);
  require(pa.has_value(), "peek_u64 of a page that is not resident");
  return pm_.read_u64(*pa);
}

AddressSpace::Access AddressSpace::resolve(VirtAddr va, bool is_write, PhysAddr& pa) {
  auto leaf = pt_.leaf(va);
  if (!leaf || !leaf->pte.valid) return Access::kUnmapped;
  if (is_write && !leaf->pte.writable) return Access::kReadOnly;
  // Dirty truth matters beyond replacement once file regions exist: a
  // MAP_SHARED page persists to its file only when its dirty bit is set,
  // and a private file page diverges to swap on the same evidence — a
  // software store that skipped the bookkeeping would be silently lost at
  // eviction.
  if (observer_ || !regions_.empty()) pt_.set_accessed_dirty(*leaf, is_write);
  pa = frames_.frame_addr(leaf->pte.frame) + (va & (page_bytes() - 1));
  return Access::kHit;
}

PhysAddr AddressSpace::resolve_or_fault(VirtAddr va, bool is_write) {
  PhysAddr pa = 0;
  const Access found = resolve(va, is_write, pa);
  if (found == Access::kHit) return pa;
  if (found == Access::kUnmapped) {
    map_page(va);
  } else {
    // Software store to a COW mapping: break the share first (zero modeled
    // cost, like every software access). Hardware writes take the MMU
    // permission-fault path instead, where the pager charges the copy.
    cow_resolve(va);
  }
  require(resolve(va, is_write, pa) == Access::kHit, "software access did not resolve");
  return pa;
}

AddressSpace::Access AddressSpace::access_resident_u64(VirtAddr va, bool is_write, u64& value) {
  require((va & (page_bytes() - 1)) <= page_bytes() - sizeof(u64),
          "resident access must not cross a page");
  PhysAddr pa = 0;
  const Access found = resolve(va, is_write, pa);
  if (found == Access::kHit) {
    if (is_write)
      pm_.write_u64(pa, value);
    else
      value = pm_.read_u64(pa);
  }
  return found;
}

void AddressSpace::read(VirtAddr va, std::span<u8> out) {
  const u64 page = page_bytes();
  u64 done = 0;
  while (done < out.size()) {
    const VirtAddr a = va + done;
    const u64 n = std::min<u64>(page - (a & (page - 1)), out.size() - done);
    pm_.read(resolve_or_fault(a, /*is_write=*/false), out.subspan(done, n));
    done += n;
  }
}

void AddressSpace::write(VirtAddr va, std::span<const u8> data) {
  const u64 page = page_bytes();
  u64 done = 0;
  while (done < data.size()) {
    const VirtAddr a = va + done;
    const u64 n = std::min<u64>(page - (a & (page - 1)), data.size() - done);
    pm_.write(resolve_or_fault(a, /*is_write=*/true), data.subspan(done, n));
    done += n;
  }
}

}  // namespace vmsls::mem
