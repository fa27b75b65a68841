// Process address space: page tables + frame allocation + backing store.
//
// This is the OS model's functional view of virtual memory. All operations
// here complete in zero simulated time — the *costs* of OS paths (fault
// service, map latency) are charged by the runtime layer when it invokes
// them. The backing store plays the role of file/swap contents: pages that
// are evicted keep their bytes here, and demand-mapping restores them,
// which is how the residency-sweep experiments create cold pages with real
// content.
//
// A backing slot is one PhysicalMemory host page per 4 KiB chunk of a page
// (one page, partly used, below 4 KiB). A swap-in, and the eviction of a
// frame mapped only here, move the page: PhysicalMemory::swap_pages trades
// the frame's host pages with the slot's. Frames still shared with another
// space, pages under 4 KiB, sync_page, bind_file, fork_from, file fills,
// COW splits and DMA copy bytes instead. A page that is not resident always
// has its current bytes in its slot; a resident page's slot holds whatever
// the frame held before (nothing reads it until the next save).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "mem/backing_file.hpp"
#include "mem/frame_share.hpp"
#include "mem/frames.hpp"
#include "mem/pagetable.hpp"
#include "mem/physmem.hpp"
#include "util/index_table.hpp"

namespace vmsls::mem {

/// Resolution of a file-backed virtual page: which block of which file the
/// page reads from (and, for shared mappings, writes back to).
struct FilePageRef {
  BackingFile* file = nullptr;
  u64 block = 0;
  bool shared = false;
};

/// Watches residency changes in an address space. The pager daemon uses
/// this to keep its replacement policy in sync with *every* map/unmap —
/// including eager populates at load time and experiment-setup evictions —
/// not just the ones it initiates itself — and to reclaim frames when the
/// allocator runs dry.
class ResidencyObserver {
 public:
  virtual ~ResidencyObserver() = default;
  virtual void on_map(u64 vpn, u64 frame) = 0;
  /// `sharers_left` is the frame's remaining reference count after this
  /// unmap: 0 means the frame was actually reclaimed, >0 means another
  /// mapping (typically in a different address space) still holds it.
  virtual void on_unmap(u64 vpn, bool dirty, u64 frame, u64 sharers_left) = 0;
  /// A COW break replaced this space's mapping of `old_frame` with a
  /// freshly-copied private `new_frame`. Residency is unchanged; only the
  /// frame identity moved.
  virtual void on_cow(u64 vpn, u64 old_frame, u64 new_frame) = 0;
  /// Last-resort reclaim under frame exhaustion: asked for `frames` frames,
  /// returns the frames actually freed. map_page and cow_resolve retry the
  /// allocation once after calling it.
  virtual u64 reclaim(u64 frames) = 0;
};

class AddressSpace {
 public:
  AddressSpace(PhysicalMemory& pm, FrameAllocator& frames, const PageTableConfig& cfg,
               VirtAddr heap_base = 0x0001'0000);
  /// Returns the backing slots' host pages to `pm`, which must outlive it.
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  PageTable& page_table() noexcept { return pt_; }
  const PageTable& page_table() const noexcept { return pt_; }
  u64 page_bytes() const noexcept { return pt_.page_bytes(); }
  FrameAllocator& frames() noexcept { return frames_; }
  const FrameAllocator& frames() const noexcept { return frames_; }

  /// Reserves a virtual range (bump allocator); nothing is mapped yet.
  VirtAddr alloc(u64 bytes, u64 align = 16);

  /// mmap-style region: reserves a page-aligned virtual range whose pages
  /// resolve to `file` starting at `offset` (page-aligned, and the file must
  /// cover the whole range). Nothing is mapped — first touch faults the
  /// pages in lazily. `shared` picks MAP_SHARED semantics (dirty pages write
  /// back to the file); private mappings copy-on-evict into the anonymous
  /// backing store instead and the file stays pristine.
  VirtAddr mmap(BackingFile& file, u64 offset, u64 bytes, bool shared);

  /// Retrofits an already-allocated range [va, va+bytes) as file-backed:
  /// current contents (resident frames and saved backing-store copies) are
  /// captured into `file` at `offset`, which becomes the canonical copy.
  /// Used by experiments to turn an elaborated buffer into an mmap'd input
  /// without re-plumbing buffer allocation.
  void bind_file(VirtAddr va, u64 bytes, BackingFile& file, u64 offset, bool shared);

  /// File resolution for a vpn; nullopt for anonymous pages.
  std::optional<FilePageRef> file_page(u64 vpn) const;

  /// Persists a *resident* page's current bytes to where its lifecycle says
  /// they belong: the file block for dirty-shared file pages, the anonymous
  /// backing store otherwise. The pageout daemon calls this before cleaning
  /// a page so a later clean drop loses nothing. No-op if not resident.
  void sync_page(u64 vpn);

  /// Eagerly maps every page of [va, va+bytes) — pinned-buffer semantics.
  void populate(VirtAddr va, u64 bytes);

  /// Demand-maps the page containing `va`: allocates a frame, fills it from
  /// the backing store (or zero), installs the PTE. Returns the frame.
  u64 map_page(VirtAddr va, bool writable = true);

  /// Evicts pages overlapping [va, va+bytes): contents are saved to the
  /// backing store, PTEs invalidated, frames freed. Returns the number of
  /// pages evicted. Callers must shoot down TLBs afterwards.
  u64 evict(VirtAddr va, u64 bytes);

  /// Clones `parent`'s memory image into this (fresh) address space: the
  /// virtual layout (brk, file regions) and backing-store copies are
  /// inherited, and every resident parent page is mapped *by reference* —
  /// MAP_SHARED file pages stay writable (one frame, true sharing), while
  /// anonymous and private-file pages are downgraded to read-only in both
  /// spaces and copy on first write. Returns the number of pages shared.
  /// The caller must shoot down the parent's TLBs afterwards (write
  /// permissions were revoked); Process::fork does this.
  u64 fork_from(AddressSpace& parent);

  /// Outcome of a COW break: `copied` distinguishes a private-copy split
  /// (refcount was > 1 — `frame` is the new private frame) from a simple
  /// write-upgrade of a sole mapping (`frame` unchanged).
  struct CowResult {
    bool copied = false;
    u64 frame = 0;
  };

  /// Resolves a write fault on a read-only mapping: refcount 1 re-enables
  /// write in place; a shared frame is split — allocate, copy the page
  /// bytes, remap writable, drop one reference on the old frame. No-op for
  /// already-writable pages (a racing sharer resolved first). When a copy
  /// happens the caller must shoot down this process's TLBs for the page
  /// (the cached frame number went stale); Process::cow_break does this.
  CowResult cow_resolve(VirtAddr va);

  /// Frame backing a resident vpn; nullopt when not resident.
  std::optional<u64> frame_of(u64 vpn) const {
    const auto pte = pt_.lookup(vpn * page_bytes());
    return pte ? std::optional<u64>(pte->frame) : std::nullopt;
  }

  bool is_mapped(VirtAddr va) const { return pt_.is_mapped(va); }

  /// Functional translation; nullopt when unmapped.
  std::optional<PhysAddr> translate(VirtAddr va) const;

  /// The u64 at `va` of a resident page, read without setting the PTE's
  /// accessed bit (a checker's view, invisible to replacement). Throws when
  /// the page is not resident.
  u64 peek_u64(VirtAddr va) const;

  /// Software (CPU) data access. Touching an unmapped page maps it on
  /// demand, exactly like a software page fault with zero modeled cost.
  void read(VirtAddr va, std::span<u8> out);
  void write(VirtAddr va, std::span<const u8> data);

  /// What a software access found at its page: a usable mapping, no
  /// mapping, or a read-only mapping under a store.
  enum class Access { kHit, kUnmapped, kReadOnly };

  /// Software u64 access that never maps or splits a page. On a hit it
  /// loads into `value` (read) or stores `value` (write) exactly as
  /// read_u64 / write_u64 would; otherwise it changes nothing, and the
  /// caller runs the miss through its own fault path. The word must lie
  /// within one page.
  Access access_resident_u64(VirtAddr va, bool is_write, u64& value);

  template <typename T>
  T read_scalar(VirtAddr va) {
    T v{};
    read(va, std::span<u8>(reinterpret_cast<u8*>(&v), sizeof(T)));
    return v;
  }

  template <typename T>
  void write_scalar(VirtAddr va, T v) {
    write(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), sizeof(T)));
  }

  u64 read_u64(VirtAddr va) { return read_scalar<u64>(va); }
  void write_u64(VirtAddr va, u64 v) { write_scalar<u64>(va, v); }
  u64 read_u32(VirtAddr va) { return read_scalar<u32>(va); }
  void write_u32(VirtAddr va, u32 v) { write_scalar<u32>(va, v); }

  /// Pages currently resident (mapped leaf PTEs created through this API).
  u64 resident_pages() const noexcept { return resident_vpns_.size(); }
  u64 faults_serviced() const noexcept { return demand_maps_; }

  /// Whole pages this space copied on the host: fills from a saved copy,
  /// saves to one, COW splits and sync_page write-outs. A host-work count,
  /// kept out of the StatRegistry.
  u64 copied_pages() const noexcept { return copied_pages_; }

  /// Calls fn(vpn) for every resident page, in ascending order. `fn` must
  /// not map or unmap pages.
  template <typename Fn>
  void for_each_resident(Fn&& fn) const {
    resident_vpns_.for_each(fn);
  }

  /// True when the backing store holds saved contents for the page (it has
  /// been evicted at least once).
  bool has_backing(u64 vpn) const { return backing_.get(vpn * slot_chunks()) != nullptr; }

  /// Page-pin refcounts: a hardware port holds a pin across each in-flight
  /// access (translate -> bus completion), and replacement policies skip
  /// pinned pages — the kernel's page-lock-during-I/O discipline. Without
  /// it, a cross-process eviction could retarget the frame underneath a
  /// committed bus transaction. Pins are by vpn and may outlive residency
  /// (a faulting page is pinned before it maps).
  void pin(VirtAddr va);
  void unpin(VirtAddr va);
  bool is_pinned_vpn(u64 vpn) const { return pins_.get(vpn) != 0; }
  u64 pinned_pages() const noexcept { return pinned_pages_; }

  /// At most one observer; pass nullptr to detach. Without one, frame
  /// exhaustion throws.
  void set_residency_observer(ResidencyObserver* obs) noexcept { observer_ = obs; }

  /// Machine-wide shared-frame index (one per sls::Machine / bench rig):
  /// when set, demand maps of MAP_SHARED file pages resolve to the frame
  /// another address space already holds resident instead of filling a
  /// duplicate, and the last sharer's eviction retires the entry. Pass
  /// nullptr to detach.
  void set_share_index(FrameShareIndex* index) noexcept { share_ = index; }
  const FrameShareIndex* share_index() const noexcept { return share_; }

 private:
  struct FileRegion {
    u64 first_vpn = 0;
    u64 pages = 0;
    BackingFile* file = nullptr;
    u64 first_block = 0;
    bool shared = false;
  };

  /// Host pages per backing slot: one per chunk of a page, at least one.
  u64 slot_chunks() const noexcept {
    return std::max<u64>(1, page_bytes() / PhysicalMemory::kChunkBytes);
  }

  /// Bytes of a slot's host page a page uses.
  u64 slot_page_bytes() const noexcept {
    return std::min(page_bytes(), PhysicalMemory::kChunkBytes);
  }

  /// True when frames are whole chunks, so swap_pages can move them.
  bool moves_pages() const noexcept { return page_bytes() >= PhysicalMemory::kChunkBytes; }

  /// vpn's slot, growing the table to hold it; entries are null until the
  /// first save.
  std::span<u8*> slot(u64 vpn);

  /// Saves the resident frame at `pa` into vpn's slot: a move when `move`
  /// (the frame is about to be freed and no other space maps it), else a
  /// copy.
  void save_page(u64 vpn, PhysAddr pa, bool move);

  /// One software access's page: kHit sets `pa` to the physical address of
  /// `va` and, when an observer or a file region consumes them, the PTE's
  /// A (and, for a store, D) bits in place. One leaf-PTE read.
  Access resolve(VirtAddr va, bool is_write, PhysAddr& pa);

  /// resolve() for read/write: a miss is mapped in, and a store to a
  /// read-only page breaks its share, before the access resolves again.
  PhysAddr resolve_or_fault(VirtAddr va, bool is_write);

  PhysicalMemory& pm_;
  FrameAllocator& frames_;
  PageTable pt_;
  VirtAddr brk_;
  // vpn * slot_chunks() + i -> host page i of vpn's backing slot (swap, or
  // a private file page's divergent copy); null until the first save, and
  // never null again until bind_file drops the slot.
  IndexTable<u8*> backing_;
  std::vector<FileRegion> regions_;  // sorted by first_vpn, non-overlapping
  // vpn -> in-flight access count. A count that drops to 0 keeps its entry,
  // so pinning a page again (once per port access) never allocates.
  IndexTable<u32> pins_;
  u64 pinned_pages_ = 0;  // entries of pins_ with a nonzero count
  IndexBitmap resident_vpns_;  // ascending walk: deterministic policy seeding
  u64 demand_maps_ = 0;
  u64 copied_pages_ = 0;
  ResidencyObserver* observer_ = nullptr;
  FrameShareIndex* share_ = nullptr;
};

}  // namespace vmsls::mem
