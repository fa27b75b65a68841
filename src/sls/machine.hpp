// The machine hardware threads plug into: the one owner of every
// machine-wide part of the board.
//
// One physical memory and frame allocator, one DRAM + bus pair, one set of
// OS service cores, one file registry with the buffer cache ("bcache") in
// front of the file device, and one resident-frame index for MAP_SHARED
// pages. A memory-pressure FramePool ("pool") exists only when the machine
// is given a FramePoolConfig. The swap front ends are the machine's too:
// one shared scheduler ("swap") when `platform.pager.swap.shared` is set,
// otherwise a private "<pager>.swap" per pager, built when the pager asks.
//
// Every System elaborates onto a Machine: a ProcessGroup owns one for its
// N processes, and a standalone System owns a pool-less one for itself, so
// both entry points run the same build path.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/backing_file.hpp"
#include "mem/bus.hpp"
#include "mem/dram.hpp"
#include "mem/frame_share.hpp"
#include "mem/frames.hpp"
#include "mem/paging/buffer_cache.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "mem/physmem.hpp"
#include "rt/os.hpp"
#include "sls/platform.hpp"

namespace vmsls::sls {

class Machine {
 public:
  /// `platform` sizes every part (DRAM, bus, OS cores, page size, file
  /// cache, shared swap device); `pool_cfg` adds the FramePool.
  Machine(sim::Simulator& sim, const PlatformSpec& platform,
          const std::optional<paging::FramePoolConfig>& pool_cfg = std::nullopt);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Simulator& simulator() noexcept { return sim_; }
  const PlatformSpec& platform() const noexcept { return platform_; }
  u64 page_bytes() const noexcept { return frames_.frame_bytes(); }

  mem::PhysicalMemory& memory() noexcept { return pm_; }
  mem::FrameAllocator& frames() noexcept { return frames_; }
  mem::MemoryBus& bus() noexcept { return bus_; }
  rt::OsModel& os() noexcept { return os_; }
  mem::FileStore& files() noexcept { return files_; }
  paging::BufferCache& buffer_cache() noexcept { return bcache_; }
  mem::FrameShareIndex& share_index() noexcept { return share_; }

  /// The memory-pressure arbiter; nullptr when built without a pool config.
  paging::FramePool* pool() noexcept { return pool_.get(); }

  /// The machine-wide swap front end ("one flash part, N pagers"); nullptr
  /// unless the platform sets `pager.swap.shared`.
  paging::SwapScheduler* shared_swap() noexcept { return shared_swap_.get(); }

  /// Refuses process `who` when its platform disagrees with the machine's on
  /// a setting only the machine reads (page size, the file cache, whether
  /// swap is shared, and the shared device's timing and dispatch), naming
  /// the field: the process would silently run on the machine's value.
  void require_member(const PlatformSpec& member, const std::string& who) const;

  /// The swap front end pager `pager` pages against: the shared device, or
  /// else a new private scheduler "<pager>.swap" built from `cfg`. The
  /// machine owns it either way.
  paging::SwapScheduler& swap_for(const std::string& pager, const paging::SwapConfig& cfg);

 private:
  sim::Simulator& sim_;
  PlatformSpec platform_;
  mem::PhysicalMemory pm_;
  mem::FrameAllocator frames_;
  mem::DramModel dram_;
  mem::MemoryBus bus_;
  rt::OsModel os_;
  std::unique_ptr<paging::FramePool> pool_;
  std::unique_ptr<paging::SwapScheduler> shared_swap_;
  mem::FileStore files_;
  paging::BufferCache bcache_;
  mem::FrameShareIndex share_;
  std::vector<std::unique_ptr<paging::SwapScheduler>> private_swaps_;
};

}  // namespace vmsls::sls
