// Shared test fixtures: a small but complete memory system, a key owner
// for replacement-policy unit tests, and a hand-built pager with its own
// swap and file front ends.
#pragma once

#include <memory>
#include <set>
#include <string>

#include "mem/address_space.hpp"
#include "mem/bus.hpp"
#include "mem/dram.hpp"
#include "mem/frames.hpp"
#include "mem/paging/pager.hpp"
#include "mem/paging/replacement.hpp"
#include "mem/physmem.hpp"
#include "mem/walker.hpp"
#include "rt/process.hpp"
#include "sim/simulator.hpp"

namespace vmsls::test {

/// `prefix` followed by `i` ("p3"). Built with +=: GCC 12 at -O3 warns
/// falsely (-Wrestrict) on the inlined `"p" + std::to_string(i)`.
inline std::string numbered(std::string prefix, u64 i) {
  prefix += std::to_string(i);
  return prefix;
}

/// Simulator + physical memory + DRAM/bus models + one address space, wired
/// with 4 KiB pages over 64 MiB. Enough substrate for most unit tests.
struct MemorySystem {
  static constexpr u64 kMemBytes = 64 * MiB;

  sim::Simulator sim;
  mem::PhysicalMemory pm{kMemBytes};
  mem::FrameAllocator frames{0, kMemBytes / (4 * KiB), 4 * KiB};
  mem::DramModel dram;
  mem::MemoryBus bus;
  mem::AddressSpace as;

  explicit MemorySystem(mem::PageTableConfig pt_cfg = {})
      : dram(make_dram_cfg(), sim.stats(), "dram"),
        bus(sim, dram, mem::BusConfig{}, "bus"),
        as(pm, make_frames(pt_cfg), pt_cfg) {}

  /// Drains the event queue; returns events executed.
  u64 run_all() { return sim.drain(); }

 private:
  static mem::DramConfig make_dram_cfg() {
    mem::DramConfig cfg;
    cfg.size_bytes = kMemBytes;
    return cfg;
  }
  // Rebuild the frame allocator at the page size the page-table config
  // demands (tests parameterize over page sizes).
  mem::FrameAllocator& make_frames(const mem::PageTableConfig& cfg) {
    const u64 page = 1ull << cfg.page_bits;
    frames = mem::FrameAllocator(0, kMemBytes / page, page);
    return frames;
  }
};

/// Key owner for replacement-policy unit tests. Keys are vpns of `pt`, and
/// the policy test-and-clears their PTE accessed bits (an unmapped key
/// reads as unreferenced); `pins` and `landings` hold the pinned and the
/// speculative keys. As in the pager, a referenced landing stops being
/// speculative. While `frozen` holds, every answer is false and nothing
/// changes, so CLOCK nominates its hand.
struct KeyOwner final : paging::KeyOwner {
  explicit KeyOwner(const mem::PageTable& table) : pt(table) {}

  bool test_and_clear_accessed(u64 key) override {
    if (frozen || !pt.test_and_clear_accessed(key << pt.config().page_bits)) return false;
    landings.erase(key);
    return true;
  }
  bool pinned(u64 key) const override { return !frozen && pins.contains(key); }
  bool speculative(u64 key) const override { return !frozen && landings.contains(key); }
  bool any_speculative() const override { return !frozen && !landings.empty(); }

  const mem::PageTable& pt;
  std::set<u64> pins;
  std::set<u64> landings;
  bool frozen = false;
};

/// A hand-built Pager together with the swap scheduler and file cache it
/// borrows, named "<name>.swap" and "<name>.bcache" so every stat stays
/// under the pager's name. Handled like a std::unique_ptr<paging::Pager>;
/// the pager goes before its devices.
class PagerPtr {
 public:
  PagerPtr() = default;
  PagerPtr(sim::Simulator& sim, rt::Process& process, const paging::PagerConfig& cfg,
           const std::string& name)
      : rig_(std::make_unique<Rig>(sim, process, cfg, name)) {}

  paging::Pager* get() const noexcept { return rig_ ? &rig_->pager : nullptr; }
  paging::Pager* operator->() const noexcept { return get(); }
  paging::Pager& operator*() const noexcept { return *get(); }

 private:
  struct Rig {
    Rig(sim::Simulator& sim, rt::Process& process, const paging::PagerConfig& cfg,
        const std::string& name)
        : swap(sim, cfg.swap, process.address_space().page_bytes(), name + ".swap"),
          bcache(sim, cfg.bcache, process.address_space().page_bytes(), name + ".bcache"),
          pager(sim, process, cfg, name, swap, bcache) {}
    paging::SwapScheduler swap;
    paging::BufferCache bcache;
    paging::Pager pager;
  };
  std::unique_ptr<Rig> rig_;
};

}  // namespace vmsls::test
