#include "mem/frames.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vmsls::mem {

FrameAllocator::FrameAllocator(PhysAddr base, u64 frame_count, u64 frame_bytes)
    : base_(base), frame_bytes_(frame_bytes), total_(frame_count), free_count_(frame_count),
      refs_(frame_count, 0) {
  require(frame_bytes > 0 && is_pow2(frame_bytes), "frame size must be a power of two");
  require(is_aligned(base, frame_bytes), "frame region base must be frame aligned");
  require(frame_count > 0, "frame region must contain frames");
}

u64 FrameAllocator::index_of(u64 frame) const {
  const PhysAddr pa = frame * frame_bytes_;
  require(pa >= base_ && pa < base_ + total_ * frame_bytes_, "frame outside allocator region");
  return (pa - base_) / frame_bytes_;
}

std::optional<u64> FrameAllocator::alloc() {
  if (free_count_ == 0) return std::nullopt;
  // First free frame at or after the hint, wrapping once.
  const u32* refs = refs_.data();
  const auto first_free = [refs](u64 from, u64 to) {
    return static_cast<u64>(std::find(refs + from, refs + to, 0u) - refs);
  };
  const u64 hint = scan_hint_ < total_ ? scan_hint_ : 0;
  u64 idx = first_free(hint, total_);
  if (idx == total_) idx = first_free(0, hint);
  if (refs_[idx] != 0) throw std::runtime_error("FrameAllocator: inconsistent free count");
  refs_[idx] = 1;
  --free_count_;
  peak_used_ = std::max(peak_used_, total_ - free_count_);
  scan_hint_ = idx + 1;
  return (base_ + idx * frame_bytes_) / frame_bytes_;
}

std::optional<u64> FrameAllocator::alloc_contiguous(u64 count) {
  require(count > 0, "must allocate at least one frame");
  if (count > free_count_) return std::nullopt;
  u64 run = 0;
  for (u64 idx = 0; idx < total_; ++idx) {
    run = refs_[idx] != 0 ? 0 : run + 1;
    if (run == count) {
      const u64 first = idx + 1 - count;
      for (u64 j = first; j <= idx; ++j) refs_[j] = 1;
      free_count_ -= count;
      peak_used_ = std::max(peak_used_, total_ - free_count_);
      return (base_ + first * frame_bytes_) / frame_bytes_;
    }
  }
  return std::nullopt;
}

void FrameAllocator::ref(u64 frame) {
  const u64 idx = index_of(frame);
  require(refs_[idx] != 0, "ref of an unallocated frame");
  ++refs_[idx];
}

u64 FrameAllocator::free(u64 frame) {
  const u64 idx = index_of(frame);
  require(refs_[idx] != 0, "double free of physical frame");
  if (--refs_[idx] > 0) return refs_[idx];
  ++free_count_;
  scan_hint_ = idx;
  return 0;
}

void FrameAllocator::free_contiguous(u64 first_frame, u64 count) {
  for (u64 i = 0; i < count; ++i) {
    // Contiguous runs back pinned DMA buffers, which are never shared — a
    // straggling reference here would leave a hole in the run.
    require(refs_[index_of(first_frame + i)] == 1, "freeing a shared frame from a contiguous run");
    free(first_frame + i);
  }
}

bool FrameAllocator::is_allocated(u64 frame) const { return refs_[index_of(frame)] != 0; }

u64 FrameAllocator::refcount(u64 frame) const { return refs_[index_of(frame)]; }

}  // namespace vmsls::mem
