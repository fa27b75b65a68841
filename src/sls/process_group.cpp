#include "sls/process_group.hpp"

#include <algorithm>
#include <stdexcept>

#include "mem/paging/ledger.hpp"

namespace vmsls::sls {

ProcessGroup::ProcessGroup(sim::Simulator& sim, const PlatformSpec& platform,
                           const paging::FramePoolConfig& pool_cfg)
    : sim_(sim), platform_(platform) {
  const u64 page = 1ull << platform_.page_table.page_bits;
  pm_ = std::make_unique<mem::PhysicalMemory>(platform_.dram.size_bytes);
  frames_ = std::make_unique<mem::FrameAllocator>(0, platform_.dram.size_bytes / page, page);
  dram_ = std::make_unique<mem::DramModel>(platform_.dram, sim_.stats(), "dram");
  bus_ = std::make_unique<mem::MemoryBus>(sim_, *dram_, platform_.bus, "bus");
  os_ = std::make_unique<rt::OsModel>(sim_, platform_.os, "os");
  pool_ = std::make_unique<paging::FramePool>(sim_, pool_cfg, "pool");
  // One flash part for the whole group: member pagers register as owners
  // of this scheduler instead of instantiating private devices, so their
  // swap traffic queues against each other like bus traffic does.
  if (platform_.pager.swap.shared)
    swap_ = std::make_unique<paging::SwapScheduler>(sim_, platform_.pager.swap, page, "swap");
  // One file tier for the whole group, unconditionally: files are
  // meaningful only machine-wide (the same bytes mapped by every process),
  // and the buffer cache in front of the file device is what turns that
  // sharing into cross-process read hits.
  files_ = std::make_unique<mem::FileStore>(page);
  bcache_ = std::make_unique<paging::BufferCache>(sim_, platform_.pager.bcache, page, "bcache");
  // Resident-frame index for MAP_SHARED pages: the sharing layer above the
  // buffer cache — a hit here costs no device read *and no frame*.
  share_ = std::make_unique<mem::FrameShareIndex>();
  if (platform_.telemetry.period > 0) {
    telemetry_ = std::make_unique<sim::TelemetrySampler>(sim_, platform_.telemetry.period);
    telemetry_->trace_counters = platform_.telemetry.trace_counters;
    telemetry_->add_probe("pool.resident",
                          [this] { return static_cast<double>(pool_->resident_pages()); });
    telemetry_->add_probe("pool.pending",
                          [this] { return static_cast<double>(pool_->pending_pages()); });
    telemetry_->add_probe("frames.free",
                          [this] { return static_cast<double>(frames_->free_frames()); });
    if (swap_ != nullptr) {
      using paging::SwapReqClass;
      telemetry_->add_probe("swap.q_demand_read", [this] {
        return static_cast<double>(swap_->queue_depth_class(SwapReqClass::kDemandRead));
      });
      telemetry_->add_probe("swap.q_demand_write", [this] {
        return static_cast<double>(swap_->queue_depth_class(SwapReqClass::kDemandWrite));
      });
      telemetry_->add_probe("swap.q_prefetch_read", [this] {
        return static_cast<double>(swap_->queue_depth_class(SwapReqClass::kPrefetchRead));
      });
      telemetry_->add_probe("swap.q_writeback", [this] {
        return static_cast<double>(swap_->queue_depth_class(SwapReqClass::kWriteback));
      });
    }
    telemetry_->add_probe("bcache.cached",
                          [this] { return static_cast<double>(bcache_->cached_blocks()); });
    telemetry_->add_probe("bcache.dirty",
                          [this] { return static_cast<double>(bcache_->dirty_blocks()); });
    telemetry_->add_probe("bcache.queue",
                          [this] { return static_cast<double>(bcache_->queue_depth()); });
  }
}

System& ProcessGroup::add_process(const SystemImage& image, const std::string& instance) {
  require(!instance.empty(), "process instance name must be non-empty");
  require(std::find(instances_.begin(), instances_.end(), instance) == instances_.end(),
          "duplicate process instance name '" + instance + "'");
  require(image.platform().page_table.page_bits == platform_.page_table.page_bits,
          "process page size does not match the group substrate");
  SharedSubstrate shared;
  shared.pm = pm_.get();
  shared.frames = frames_.get();
  shared.dram = dram_.get();
  shared.bus = bus_.get();
  shared.os = os_.get();
  shared.pool = pool_.get();
  shared.swap = swap_.get();
  shared.files = files_.get();
  shared.bcache = bcache_.get();
  shared.share = share_.get();
  systems_.push_back(image.elaborate(sim_, shared, instance));
  instances_.push_back(instance);
  System& sys = *systems_.back();
  if (telemetry_ != nullptr) {
    // Per-process pressure columns. Counter/histogram references are
    // registry-stable, and sys outlives the group, so the lambdas are safe.
    const std::string inst = sys.instance();  // includes the trailing '.'
    mem::AddressSpace& as = sys.address_space();
    telemetry_->add_probe(inst + "resident",
                          [&as] { return static_cast<double>(as.resident_pages()); });
    const Counter& faults = sim_.stats().counter(inst + "faults.faults");
    telemetry_->add_rate_probe(inst + "fault_rate",
                               [&faults] { return static_cast<double>(faults.value()); });
    if (paging::Pager* pager = sys.pager(); pager != nullptr) {
      telemetry_->add_probe(inst + "prefetch_acc", [pager] {
        const u64 issued = std::max<u64>(1, pager->prefetches());
        return static_cast<double>(pager->prefetch_useful() + pager->prefetch_late()) /
               static_cast<double>(issued);
      });
    }
  }
  return sys;
}

System& ProcessGroup::add_process(const std::string& instance) {
  // Built here, not by SynthesisFlow, which rejects an application with no
  // threads: no threads, buffers or OS objects leave only the pager.
  SystemImage image;
  image.app_.name = "proc";
  image.platform_ = platform_;
  image.netlist_ = std::make_shared<Netlist>("proc_top");
  return add_process(image, instance);
}

System& ProcessGroup::fork(System& parent, const std::string& instance) {
  System& child = add_process(instance);
  parent.process().fork(child.process());
  return child;
}

void ProcessGroup::start_all() {
  for (auto& s : systems_) s->start_all();
  if (telemetry_ != nullptr && !telemetry_->armed()) telemetry_->start();
}

bool ProcessGroup::all_halted() const noexcept {
  for (const auto& s : systems_)
    if (!s->all_halted()) return false;
  return true;
}

Cycles ProcessGroup::run_to_completion(Cycles max_cycles) {
  require(!systems_.empty(), "process group has no processes");
  const Cycles t0 = sim_.now();
  if (!sim_.run_until([this] { return all_halted(); }, max_cycles)) {
    std::string blocked;
    for (const auto& s : systems_) blocked += s->running_thread_names();
    throw std::runtime_error("deadlock: event queue empty with threads blocked:" + blocked);
  }
  return sim_.now() - t0;
}

Cycles ProcessGroup::drain(Cycles max_cycles) {
  const Cycles t0 = sim_.now();
  sim_.drain(max_cycles);
  paging::require_balanced(paging::check_machine(pagers(), pool_.get()), "ProcessGroup::drain");
  return sim_.now() - t0;
}

}  // namespace vmsls::sls
