// Multi-process over-subscription harness.
//
// Owns one sls::Machine with a memory-pressure FramePool and elaborates
// several SystemImages onto it as separate processes. Each process keeps
// its own address space, page tables, walker, fault handler, and pager;
// physical frames, bus bandwidth, OS cores, the file tier and — when the
// platform sets `pager.swap.shared` — the swap device are contended across
// all of them. This is the configuration the over-subscription experiments
// (fig10) run: the aggregate working set exceeds the frame budget, so the
// pagers fight.
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
  /// `platform` sizes the machine (DRAM, bus, OS cores, page size, file
  /// cache, shared swap device); per-image platforms configure each
  /// process's threads, TLBs, and pager. An image that disagrees with
  /// `platform` on a setting only the machine reads is refused
  /// (Machine::require_member).
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

  /// Whole pages every member's address space has copied so far
  /// (mem::AddressSpace::copied_pages): host work, not simulated time.
  u64 copied_pages() const {
    u64 n = 0;
    for (const auto& s : systems_) n += s->address_space().copied_pages();
    return n;
  }

  /// The machine-sizing platform the group was built with (page size,
  /// DRAM, telemetry, traffic knobs) — what a serving driver layers on.
  const PlatformSpec& platform() const noexcept { return machine_.platform(); }

  sim::Simulator& simulator() noexcept { return machine_.simulator(); }
  paging::FramePool& pool() noexcept { return *machine_.pool(); }
  mem::FrameAllocator& frames() noexcept { return machine_.frames(); }
  rt::OsModel& os() noexcept { return machine_.os(); }
  mem::MemoryBus& bus() noexcept { return machine_.bus(); }

  /// The machine-wide swap front end ("one flash part, N pagers"), present
  /// when the platform sets `pager.swap.shared`; nullptr when each process
  /// pages against a private device.
  paging::SwapScheduler* shared_swap() noexcept { return machine_.shared_swap(); }

  /// Machine-wide file registry and block cache: every member process
  /// mmaps regions of the same files, and their pagers share one buffer
  /// cache (process B's read hits on the block process A faulted in — the
  /// shared-library effect).
  mem::FileStore& files() noexcept { return machine_.files(); }
  paging::BufferCache& buffer_cache() noexcept { return machine_.buffer_cache(); }

  /// Machine-wide resident-frame index for MAP_SHARED pages — what lets
  /// process B's fault map the very frame process A faulted in (dedup)
  /// instead of filling a duplicate copy of the same file block.
  mem::FrameShareIndex& share_index() noexcept { return machine_.share_index(); }

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
  Machine machine_;
  std::unique_ptr<sim::TelemetrySampler> telemetry_;
  std::vector<std::unique_ptr<System>> systems_;
  std::vector<std::string> instances_;
};

}  // namespace vmsls::sls
