// Functional physical memory backing store.
//
// Holds the *contents* of simulated DRAM. Timing is modeled separately by
// DramModel/MemoryBus; every component that completes a memory transaction
// reads or writes its data here at completion time.
//
// Storage model: a table of host pages, one pointer per 4 KiB chunk of
// simulated memory. A chunk without a host page reads as zeros; the first
// write to it takes a zeroed page. The table itself is one private
// anonymous MAP_NORESERVE mapping, so only the table pages that cover
// touched chunks are ever committed. Every access is one bounds check, one
// table load and one memcpy/memset per chunk it spans.
//
// The host pages come from a pool the memory owns: a free list of returned
// pages (linked through their first bytes, so returning one never
// allocates) in front of arenas reserved with MAP_NORESERVE (the first, of
// the memory's size, at construction; more of the same size as they fill),
// so a multi-GiB simulated DRAM costs host memory only for the pages handed
// out. Hosts that disable overcommit (vm.overcommit_memory=2) ignore
// MAP_NORESERVE and charge each arena against the commit limit.
//
// The pool also stocks the address spaces' backing stores: a backing slot
// is one host page per chunk of a simulated page (take_page/give_page), and
// swap_pages exchanges a whole-chunk frame's host pages with a slot's, which
// moves a page between DRAM and its slot without copying a byte.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace vmsls::mem {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(u64 size_bytes);
  ~PhysicalMemory();

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  u64 size() const noexcept { return size_; }

  /// Granularity of the host-page table: one host page per chunk.
  static constexpr u64 kChunkBytes = 4 * KiB;

  /// Reads `out.size()` bytes starting at `addr`. Untouched memory reads as
  /// zero. Throws std::out_of_range past the end of memory.
  void read(PhysAddr addr, std::span<u8> out) const {
    if (in_one_chunk(addr, out.size())) [[likely]] {
      if (const u8* p = table_[addr / kChunkBytes])
        std::memcpy(out.data(), p + addr % kChunkBytes, out.size());
      else
        std::memset(out.data(), 0, out.size());
      return;
    }
    read_chunks(addr, out);
  }

  void write(PhysAddr addr, std::span<const u8> data) {
    if (in_one_chunk(addr, data.size()) && !data.empty()) [[likely]] {
      std::memcpy(chunk(addr / kChunkBytes) + addr % kChunkBytes, data.data(), data.size());
      return;
    }
    write_chunks(addr, data);
  }

  /// Copies `bytes` from `src` to `dst` (ranges may overlap), as a read
  /// into a buffer followed by a write would, without the buffer.
  void copy(PhysAddr src, PhysAddr dst, u64 bytes);

  /// Typed helpers for naturally aligned scalar access.
  template <typename T>
  T read_scalar(PhysAddr addr) const {
    T v{};
    read(addr, std::span<u8>(reinterpret_cast<u8*>(&v), sizeof(T)));
    return v;
  }

  template <typename T>
  void write_scalar(PhysAddr addr, T v) {
    write(addr, std::span<const u8>(reinterpret_cast<const u8*>(&v), sizeof(T)));
  }

  u64 read_u64(PhysAddr addr) const { return read_scalar<u64>(addr); }
  void write_u64(PhysAddr addr, u64 v) { write_scalar<u64>(addr, v); }

  /// Zeroes a range. A whole chunk gives its host page back to the pool.
  void clear(PhysAddr addr, u64 bytes);

  /// Number of 4 KiB chunks that hold a host page: written since they were
  /// last cleared whole or swapped with an empty slot entry. Reads never
  /// count.
  std::size_t touched_chunks() const noexcept { return touched_; }

  /// Host pages handed out and not yet returned: the chunks' and every
  /// backing slot's.
  std::size_t pool_pages() const noexcept { return handed_out_; }

  /// A host page of kChunkBytes from the pool; its contents are unspecified.
  u8* take_page();

  /// Returns a host page from take_page (or one swap_pages placed in a
  /// slot) to the pool.
  void give_page(u8* page) noexcept {
    std::memcpy(page, &free_, sizeof free_);
    free_ = page;
    --handed_out_;
  }

  /// Exchanges the host pages of the whole-chunk range starting at `addr`
  /// (one chunk per `slot` entry, chunk-aligned) with `slot`'s: the range's
  /// bytes move into the slot and the slot's into the range, and no byte is
  /// copied. A null slot entry reads as zeros, like a chunk without a page;
  /// an entry that would come back null gets a zeroed page, so after a swap
  /// every slot entry holds a page.
  void swap_pages(PhysAddr addr, std::span<u8*> slot);

 private:
  void check_range(PhysAddr addr, u64 bytes) const {
    if (addr + bytes > size_ || addr + bytes < addr) [[unlikely]]
      throw_out_of_range(addr, bytes);
  }
  [[noreturn]] void throw_out_of_range(PhysAddr addr, u64 bytes) const;

  /// True when [addr, addr + bytes) lies inside memory and within one chunk
  /// (memory ends on a chunk boundary, so the chunk's start decides).
  bool in_one_chunk(PhysAddr addr, u64 bytes) const noexcept {
    return addr < size_ && bytes <= kChunkBytes - addr % kChunkBytes;
  }

  /// Chunk `c`'s host page, taking a zeroed one if it has none.
  u8* chunk(u64 c) {
    u8*& p = table_[c];
    if (p == nullptr) [[unlikely]] {
      p = take_zero_page();
      ++touched_;
    }
    return p;
  }

  u8* take_zero_page();
  /// read/write for every other range: checked, and split at chunk ends.
  void read_chunks(PhysAddr addr, std::span<u8> out) const;
  void write_chunks(PhysAddr addr, std::span<const u8> data);
  void map_arena();

  u64 size_;
  u8** table_ = nullptr;  ///< one host page (or null) per chunk
  u64 table_bytes_ = 0;
  std::size_t touched_ = 0;
  // The pool: returned pages first (each holds the next one's address),
  // then the unused tail of the newest arena, whose pages are still zero.
  u8* free_ = nullptr;
  std::vector<u8*> arenas_;
  u8* next_ = nullptr;
  u8* end_ = nullptr;
  std::size_t handed_out_ = 0;
};

}  // namespace vmsls::mem
