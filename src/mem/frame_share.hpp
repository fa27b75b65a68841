// Machine-wide index of resident MAP_SHARED file pages.
//
// One physical frame backs every mapping of a shared file block, however
// many address spaces map it: the first process to fault the block in fills
// a frame and registers it here; later processes resolve their fault to the
// same frame (a "share hit" — no device read, no buffer-cache trip) and
// just take a reference. The last unmapping sharer retires the entry.
//
// The index is functional bookkeeping shared by every AddressSpace of a
// machine (an sls::Machine or a bench rig); the timing consequences — free
// share-hit faults, one writeback per frame — are charged by the pagers.
#pragma once

#include <optional>
#include <unordered_map>

#include "util/units.hpp"

namespace vmsls::mem {

class FrameShareIndex {
 public:
  /// Frame currently backing (file, block), if any sharer holds it resident.
  std::optional<u64> lookup(u32 file_id, u64 block) const {
    const auto it = frames_.find(pack(file_id, block));
    return it == frames_.end() ? std::nullopt : std::optional<u64>(it->second);
  }

  void insert(u32 file_id, u64 block, u64 frame) { frames_[pack(file_id, block)] = frame; }
  void erase(u32 file_id, u64 block) { frames_.erase(pack(file_id, block)); }

  u64 size() const noexcept { return static_cast<u64>(frames_.size()); }

 private:
  static u64 pack(u32 file_id, u64 block) noexcept {
    return (static_cast<u64>(file_id) << 40) | block;
  }

  std::unordered_map<u64, u64> frames_;
};

}  // namespace vmsls::mem
