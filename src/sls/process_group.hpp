// Multi-process over-subscription harness.
//
// Builds the machine-wide substrate — one physical memory, one frame
// allocator, one DRAM + bus pair, one set of OS service cores, and one
// memory-pressure FramePool — and elaborates several SystemImages onto it
// as separate processes. Each process keeps its own address space, page
// tables, walker, fault handler, pager, and swap device; physical frames,
// bus bandwidth, and OS cores are contended across all of them. This is
// the configuration the over-subscription experiments (fig10) run: the
// aggregate working set exceeds the frame budget, so the pagers fight.
//
// Determinism: construction order fixes member ids and stat names; the
// run loop steps the one shared simulator, so event order is the usual
// (time, insertion-order) contract across all processes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sls/system.hpp"

namespace vmsls::sls {

class ProcessGroup {
 public:
  /// `platform` sizes the shared substrate (DRAM, bus, OS cores, page
  /// size); per-image platforms configure each process's threads, TLBs,
  /// and pager. The page size must agree across all images.
  ProcessGroup(sim::Simulator& sim, const PlatformSpec& platform,
               const paging::FramePoolConfig& pool_cfg);

  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  /// Elaborates `image` as process `instance` (stat prefix "<instance>.").
  /// Instance names must be unique; attach order fixes pool member ids.
  System& add_process(const SystemImage& image, const std::string& instance);

  /// A pager-only member: an address space, process and pager on the
  /// group's own platform, with no threads — what driver-fed rigs
  /// (sls::EpisodeDriver) page against. It counts as halted.
  System& add_process(const std::string& instance);

  /// Adds pager-only member `instance` and forks `parent` into it: every
  /// resident parent page is mapped into the child by reference (COW for
  /// anonymous pages, see rt::Process::fork).
  System& fork(System& parent, const std::string& instance);

  System& process(std::size_t i) { return *systems_.at(i); }
  std::size_t size() const noexcept { return systems_.size(); }

  /// Every member's pager in member order (members without one skipped) —
  /// the set a paging::MachineLedger snapshots.
  std::vector<const paging::Pager*> pagers() const {
    std::vector<const paging::Pager*> out;
    for (const auto& s : systems_) if (s->pager() != nullptr) out.push_back(s->pager());
    return out;
  }

  /// The substrate-sizing platform the group was built with (page size,
  /// DRAM, telemetry, traffic knobs) — what a serving driver layers on.
  const PlatformSpec& platform() const noexcept { return platform_; }

  sim::Simulator& simulator() noexcept { return sim_; }
  paging::FramePool& pool() noexcept { return *pool_; }
  mem::FrameAllocator& frames() noexcept { return *frames_; }
  rt::OsModel& os() noexcept { return *os_; }
  mem::MemoryBus& bus() noexcept { return *bus_; }

  /// The group-wide swap front end ("one flash part, N pagers"), present
  /// when the platform sets `pager.swap.shared`; nullptr when each process
  /// pages against a private device.
  paging::SwapScheduler* shared_swap() noexcept { return swap_.get(); }

  /// Machine-wide file registry and block cache — always present: every
  /// member process mmaps regions of the same files, and their pagers share
  /// one buffer cache (process B's read hits on the block process A
  /// faulted in — the shared-library effect).
  mem::FileStore& files() noexcept { return *files_; }
  paging::BufferCache& buffer_cache() noexcept { return *bcache_; }

  /// Machine-wide resident-frame index for MAP_SHARED pages — what lets
  /// process B's fault map the very frame process A faulted in (dedup)
  /// instead of filling a duplicate copy of the same file block.
  mem::FrameShareIndex& share_index() noexcept { return *share_; }

  /// The group's pressure time-series sampler, present when the platform
  /// sets `telemetry.period > 0`; probes cover the pool, the frame
  /// allocator, the shared swap queue (per class), and every process added
  /// so far. start_all() arms it.
  sim::TelemetrySampler* telemetry() noexcept { return telemetry_.get(); }

  void start_all();
  bool all_halted() const noexcept;

  /// Runs until every started thread in every process halts (pager-only
  /// members count as halted). Throws on deadlock or when `max_cycles`
  /// elapse. Returns cycles elapsed.
  Cycles run_to_completion(Cycles max_cycles = 4'000'000'000ull);

  /// The end-of-phase gate: Simulator::drain within `max_cycles`, then
  /// paging::check_machine over every member pager and the pool. Throws on
  /// a stuck queue or a violated identity. Every rig that drives a pager
  /// ends its runs here. Returns cycles elapsed.
  Cycles drain(Cycles max_cycles = 1'000'000'000ull);

 private:
  sim::Simulator& sim_;
  PlatformSpec platform_;
  std::unique_ptr<mem::PhysicalMemory> pm_;
  std::unique_ptr<mem::FrameAllocator> frames_;
  std::unique_ptr<mem::DramModel> dram_;
  std::unique_ptr<mem::MemoryBus> bus_;
  std::unique_ptr<rt::OsModel> os_;
  std::unique_ptr<paging::FramePool> pool_;
  std::unique_ptr<paging::SwapScheduler> swap_;
  std::unique_ptr<mem::FileStore> files_;
  std::unique_ptr<paging::BufferCache> bcache_;
  std::unique_ptr<mem::FrameShareIndex> share_;
  std::unique_ptr<sim::TelemetrySampler> telemetry_;
  std::vector<std::unique_ptr<System>> systems_;
  std::vector<std::string> instances_;
};

}  // namespace vmsls::sls
