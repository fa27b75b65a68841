#include "mem/physmem.hpp"

#include <sys/mman.h>

#include <new>
#include <stdexcept>
#include <string>

namespace vmsls::mem {

PhysicalMemory::PhysicalMemory(u64 size_bytes) : size_(size_bytes) {
  require(size_bytes > 0, "physical memory size must be nonzero");
  require(is_aligned(size_bytes, kChunkBytes), "physical memory size must be 4 KiB aligned");
  void* p = ::mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<u8*>(p);
  written_.assign(ceil_div(size_bytes / kChunkBytes, 64), 0);
}

PhysicalMemory::~PhysicalMemory() { ::munmap(base_, size_); }

void PhysicalMemory::throw_out_of_range(PhysAddr addr, u64 bytes) const {
  throw std::out_of_range("physical access [" + std::to_string(addr) + ", +" +
                          std::to_string(bytes) + ") outside memory of size " +
                          std::to_string(size_));
}

}  // namespace vmsls::mem
