#include "mem/physmem.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace vmsls::mem {

namespace {

/// A private anonymous mapping of `bytes` that commits nothing up front.
void* map_noreserve(u64 bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

}  // namespace

PhysicalMemory::PhysicalMemory(u64 size_bytes) : size_(size_bytes) {
  require(size_bytes > 0, "physical memory size must be nonzero");
  require(is_aligned(size_bytes, kChunkBytes), "physical memory size must be 4 KiB aligned");
  table_bytes_ = align_up(size_bytes / kChunkBytes * sizeof(u8*), kChunkBytes);
  table_ = static_cast<u8**>(map_noreserve(table_bytes_));
  try {
    map_arena();
  } catch (...) {
    ::munmap(table_, table_bytes_);
    throw;
  }
}

PhysicalMemory::~PhysicalMemory() {
  for (u8* arena : arenas_) ::munmap(arena, size_);
  ::munmap(table_, table_bytes_);
}

void PhysicalMemory::throw_out_of_range(PhysAddr addr, u64 bytes) const {
  throw std::out_of_range("physical access [" + std::to_string(addr) + ", +" +
                          std::to_string(bytes) + ") outside memory of size " +
                          std::to_string(size_));
}

void PhysicalMemory::map_arena() {
  arenas_.reserve(arenas_.size() + 1);
  next_ = static_cast<u8*>(map_noreserve(size_));
  end_ = next_ + size_;
  arenas_.push_back(next_);
}

u8* PhysicalMemory::take_page() {
  u8* p = free_;
  if (p != nullptr) {
    std::memcpy(&free_, p, sizeof free_);
  } else {
    if (next_ == end_) map_arena();
    p = next_;
    next_ += kChunkBytes;
  }
  ++handed_out_;
  return p;
}

u8* PhysicalMemory::take_zero_page() {
  if (free_ == nullptr) return take_page();  // an arena page nobody has written
  u8* p = take_page();
  std::memset(p, 0, kChunkBytes);
  return p;
}

void PhysicalMemory::read_chunks(PhysAddr addr, std::span<u8> out) const {
  check_range(addr, out.size());
  for (u64 done = 0; done < out.size();) {
    const u64 a = addr + done;
    const u64 n = std::min(kChunkBytes - a % kChunkBytes, out.size() - done);
    if (const u8* p = table_[a / kChunkBytes])
      std::memcpy(out.data() + done, p + a % kChunkBytes, n);
    else
      std::memset(out.data() + done, 0, n);
    done += n;
  }
}

void PhysicalMemory::write_chunks(PhysAddr addr, std::span<const u8> data) {
  check_range(addr, data.size());
  for (u64 done = 0; done < data.size();) {
    const u64 a = addr + done;
    const u64 n = std::min(kChunkBytes - a % kChunkBytes, data.size() - done);
    std::memcpy(chunk(a / kChunkBytes) + a % kChunkBytes, data.data() + done, n);
    done += n;
  }
}

void PhysicalMemory::copy(PhysAddr src, PhysAddr dst, u64 bytes) {
  check_range(src, bytes);
  check_range(dst, bytes);
  // Pieces cross no chunk boundary on either side. Walking them from the
  // top when dst lies above src reads every overlapping byte before it is
  // overwritten, as memmove does.
  const bool downward = dst > src;
  for (u64 done = 0; done < bytes;) {
    u64 s = 0, d = 0, n = 0;
    if (downward) {
      const u64 s_end = src + bytes - done, d_end = dst + bytes - done;
      n = std::min({bytes - done, (s_end - 1) % kChunkBytes + 1, (d_end - 1) % kChunkBytes + 1});
      s = s_end - n;
      d = d_end - n;
    } else {
      s = src + done;
      d = dst + done;
      n = std::min({bytes - done, kChunkBytes - s % kChunkBytes, kChunkBytes - d % kChunkBytes});
    }
    if (const u8* from = table_[s / kChunkBytes])
      std::memmove(chunk(d / kChunkBytes) + d % kChunkBytes, from + s % kChunkBytes, n);
    else if (u8* to = table_[d / kChunkBytes])
      std::memset(to + d % kChunkBytes, 0, n);
    done += n;
  }
}

void PhysicalMemory::clear(PhysAddr addr, u64 bytes) {
  check_range(addr, bytes);
  for (u64 done = 0; done < bytes;) {
    const u64 a = addr + done;
    const u64 n = std::min(kChunkBytes - a % kChunkBytes, bytes - done);
    u8*& p = table_[a / kChunkBytes];
    if (p != nullptr) {
      if (n == kChunkBytes) {
        give_page(p);
        p = nullptr;
        --touched_;
      } else {
        std::memset(p + a % kChunkBytes, 0, n);
      }
    }
    done += n;
  }
}

void PhysicalMemory::swap_pages(PhysAddr addr, std::span<u8*> slot) {
  require(is_aligned(addr, kChunkBytes), "swap_pages range must be chunk-aligned");
  check_range(addr, slot.size() * kChunkBytes);
  u8** chunks = table_ + addr / kChunkBytes;
  for (std::size_t i = 0; i < slot.size(); ++i) {
    std::swap(chunks[i], slot[i]);
    if (chunks[i] != nullptr) ++touched_;
    if (slot[i] != nullptr)
      --touched_;
    else
      slot[i] = take_zero_page();
  }
}

}  // namespace vmsls::mem
