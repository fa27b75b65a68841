// Physical frame allocator.
//
// Manages page-sized frames inside a region of physical memory. Used by the
// OS model to back virtual pages and page-table nodes, and by the DMA
// baseline's pinned-buffer allocator (which needs contiguous runs).
#pragma once

#include <optional>
#include <vector>

#include "util/units.hpp"

namespace vmsls::mem {

class FrameAllocator {
 public:
  /// Frames cover [base, base + frame_count * frame_bytes) of physical
  /// memory. `base` must be frame-aligned.
  FrameAllocator(PhysAddr base, u64 frame_count, u64 frame_bytes);

  u64 frame_bytes() const noexcept { return frame_bytes_; }
  u64 total_frames() const noexcept { return total_; }
  u64 free_frames() const noexcept { return free_count_; }
  u64 used_frames() const noexcept { return total_ - free_count_; }

  /// High-water mark of used_frames() over the allocator's lifetime — how
  /// close an over-subscription scenario actually came to exhaustion.
  u64 peak_used_frames() const noexcept { return peak_used_; }

  /// Allocates one frame; returns its global frame number (physical address
  /// = frame * frame_bytes), or nullopt when exhausted. Exhaustion is a
  /// normal event under memory pressure — the pager reclaims and retries.
  std::optional<u64> alloc();

  /// Allocates `count` physically contiguous frames; returns the first
  /// frame number, or nullopt when no run exists. Used by the pinned-buffer
  /// baseline.
  std::optional<u64> alloc_contiguous(u64 count);

  /// Adds a sharer to an allocated frame (fork/COW sharing: one frame backs
  /// several page mappings). Each mapping releases with free(); the frame is
  /// only returned to the pool when the last reference drops.
  void ref(u64 frame);

  /// Releases one reference; frees the frame when it was the last. Returns
  /// the number of references remaining (0 = frame actually freed), so
  /// eviction paths can tell "sharer released" from "frame reclaimed".
  u64 free(u64 frame);
  void free_contiguous(u64 first_frame, u64 count);

  bool is_allocated(u64 frame) const;

  /// Current reference count (0 for unallocated frames).
  u64 refcount(u64 frame) const;

  PhysAddr frame_addr(u64 frame) const noexcept { return frame * frame_bytes_; }

 private:
  u64 index_of(u64 frame) const;

  PhysAddr base_;
  u64 frame_bytes_;
  u64 total_;
  u64 free_count_;
  std::vector<u32> refs_;  // sharer count per local frame index; 0 = free
  u64 scan_hint_ = 0;      // next index to try, keeps alloc O(1) amortized
  u64 peak_used_ = 0;
};

}  // namespace vmsls::mem
