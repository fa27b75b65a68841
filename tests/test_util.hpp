// Shared test fixtures: a small but complete memory system.
#pragma once

#include "mem/address_space.hpp"
#include "mem/bus.hpp"
#include "mem/dram.hpp"
#include "mem/frames.hpp"
#include "mem/physmem.hpp"
#include "mem/walker.hpp"
#include "sim/simulator.hpp"

namespace vmsls::test {

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

}  // namespace vmsls::test
