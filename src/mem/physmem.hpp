// Functional physical memory backing store.
//
// Holds the *contents* of simulated DRAM. Timing is modeled separately by
// DramModel/MemoryBus; every component that completes a memory transaction
// reads or writes its data here at completion time.
//
// Storage model: one private anonymous host mapping of the full memory size,
// made with MAP_NORESERVE. The host reserves `size()` bytes of address space
// but commits none of it up front; its kernel supplies a zero-filled page on
// the first write to each host page, and reads of never-written pages see
// zeros. A multi-GiB simulated DRAM therefore costs host memory only for the
// pages the simulation actually writes, and every access is one bounds check
// plus one memcpy/memset — no per-chunk lookup. A bitmap of written 4 KiB
// chunks backs touched_chunks(). Hosts that disable overcommit
// (vm.overcommit_memory=2) ignore MAP_NORESERVE and charge the full size
// against the commit limit for every instance.
//
// Saved bits: a second bitmap holds one "saved" bit per chunk, all clear at
// construction. mark_saved() sets them for whole chunks whose bytes the
// caller has just filled from a host-side copy; every write, copy
// or clear that lands in a chunk clears its bit again, whoever issues it —
// a software store, a bus or DMA completion, a page-table update. While
// saved() holds, the range is byte-identical to that copy, which is how the
// address space skips re-saving an unmodified page at eviction without
// trusting the simulated PTE dirty bit.
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

  /// Reads `out.size()` bytes starting at `addr`. Untouched memory reads as
  /// zero. Throws std::out_of_range past the end of memory.
  void read(PhysAddr addr, std::span<u8> out) const {
    check_range(addr, out.size());
    if (!out.empty()) std::memcpy(out.data(), base_ + addr, out.size());
  }

  void write(PhysAddr addr, std::span<const u8> data) {
    check_range(addr, data.size());
    if (data.empty()) return;
    mark_written(addr, data.size());
    std::memcpy(base_ + addr, data.data(), data.size());
  }

  /// Copies `bytes` from `src` to `dst` (ranges may overlap), as a read
  /// into a buffer followed by a write would, without the buffer.
  void copy(PhysAddr src, PhysAddr dst, u64 bytes) {
    check_range(src, bytes);
    check_range(dst, bytes);
    if (bytes == 0) return;
    mark_written(dst, bytes);
    std::memmove(base_ + dst, base_ + src, bytes);
  }

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

  /// Zeroes a range (releases nothing; just clears contents).
  void clear(PhysAddr addr, u64 bytes) {
    check_range(addr, bytes);
    if (bytes == 0) return;
    mark_written(addr, bytes);
    std::memset(base_ + addr, 0, bytes);
  }

  /// Number of 4 KiB chunks ever written or cleared (for tests / memory
  /// footprint introspection). Reads never count.
  std::size_t touched_chunks() const noexcept { return touched_; }

  /// Granularity of the written and saved bitmaps.
  static constexpr u64 kChunkBytes = 4 * KiB;

  /// Sets the saved bit of every chunk in [addr, addr + bytes): the range
  /// now matches a host-side copy. It must be whole chunks: nonzero,
  /// chunk-aligned at both ends.
  void mark_saved(PhysAddr addr, u64 bytes);

  /// True when every chunk of the whole-chunk range [addr, addr + bytes) is
  /// saved: nothing has written it since mark_saved.
  bool saved(PhysAddr addr, u64 bytes) const;

 private:
  void check_range(PhysAddr addr, u64 bytes) const {
    if (addr + bytes > size_ || addr + bytes < addr) [[unlikely]]
      throw_out_of_range(addr, bytes);
  }
  [[noreturn]] void throw_out_of_range(PhysAddr addr, u64 bytes) const;

  /// Sets the written bit and clears the saved bit of every chunk in
  /// [addr, addr + bytes), bytes > 0.
  void mark_written(PhysAddr addr, u64 bytes) {
    const u64 last = (addr + bytes - 1) / kChunkBytes;
    for (u64 c = addr / kChunkBytes; c <= last; ++c) {
      u64& word = written_[c / 64];
      const u64 bit = 1ull << (c % 64);
      if ((word & bit) == 0) {
        word |= bit;
        ++touched_;
      }
      saved_[c / 64] &= ~bit;
    }
  }

  /// Validates a whole-chunk range for the saved-bit calls.
  void check_chunks(PhysAddr addr, u64 bytes) const;

  u64 size_;
  u8* base_ = nullptr;
  std::vector<u64> written_;  ///< one bit per chunk
  std::vector<u64> saved_;    ///< one bit per chunk
  std::size_t touched_ = 0;
};

}  // namespace vmsls::mem
