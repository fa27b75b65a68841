#include "sls/process_group.hpp"

#include <algorithm>
#include <stdexcept>

#include "mem/paging/ledger.hpp"

namespace vmsls::sls {

ProcessGroup::ProcessGroup(sim::Simulator& sim, const PlatformSpec& platform,
                           const paging::FramePoolConfig& pool_cfg)
    : machine_(sim, platform, pool_cfg) {
  if (platform.telemetry.period > 0) {
    telemetry_ = std::make_unique<sim::TelemetrySampler>(sim, platform.telemetry.period);
    paging::FramePool& pool = *machine_.pool();
    telemetry_->add_probe("pool.resident",
                          [&pool] { return static_cast<double>(pool.resident_pages()); });
    telemetry_->add_probe("pool.pending",
                          [&pool] { return static_cast<double>(pool.pending_pages()); });
    mem::FrameAllocator& frames = machine_.frames();
    telemetry_->add_probe("frames.free",
                          [&frames] { return static_cast<double>(frames.free_frames()); });
    if (paging::SwapScheduler* swap = machine_.shared_swap(); swap != nullptr) {
      using paging::SwapReqClass;
      for (const SwapReqClass cls : {SwapReqClass::kDemandRead, SwapReqClass::kDemandWrite,
                                     SwapReqClass::kPrefetchRead, SwapReqClass::kWriteback})
        telemetry_->add_probe(std::string("swap.q_") + paging::swap_req_class_name(cls),
                              [swap, cls] {
                                return static_cast<double>(swap->queue_depth_class(cls));
                              });
    }
    paging::BufferCache& bcache = machine_.buffer_cache();
    telemetry_->add_probe("bcache.cached",
                          [&bcache] { return static_cast<double>(bcache.cached_blocks()); });
    telemetry_->add_probe("bcache.dirty",
                          [&bcache] { return static_cast<double>(bcache.dirty_blocks()); });
    telemetry_->add_probe("bcache.queue",
                          [&bcache] { return static_cast<double>(bcache.queue_depth()); });
  }
}

System& ProcessGroup::add_process(const SystemImage& image, const std::string& instance) {
  require(!instance.empty(), "process instance name must be non-empty");
  require(std::find(instances_.begin(), instances_.end(), instance) == instances_.end(),
          "duplicate process instance name '" + instance + "'");
  systems_.push_back(std::make_unique<System>(machine_, image, instance));
  instances_.push_back(instance);
  System& sys = *systems_.back();
  if (telemetry_ != nullptr) {
    // Per-process pressure columns. Counter/histogram references are
    // registry-stable, and sys outlives the group, so the lambdas are safe.
    const std::string inst = sys.instance();  // includes the trailing '.'
    mem::AddressSpace& as = sys.address_space();
    telemetry_->add_probe(inst + "resident",
                          [&as] { return static_cast<double>(as.resident_pages()); });
    const Counter& faults = simulator().stats().counter(inst + "faults.faults");
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
  image.platform_ = platform();
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
  sim::Simulator& sim = simulator();
  const Cycles t0 = sim.now();
  if (!sim.run_until([this] { return all_halted(); }, max_cycles)) {
    std::string blocked;
    for (const auto& s : systems_) blocked += s->running_thread_names();
    throw std::runtime_error("deadlock: event queue empty with threads blocked:" + blocked);
  }
  return sim.now() - t0;
}

Cycles ProcessGroup::drain(Cycles max_cycles) {
  sim::Simulator& sim = simulator();
  const Cycles t0 = sim.now();
  sim.drain(max_cycles);
  paging::require_balanced(paging::check_machine(pagers(), machine_.pool()),
                           "ProcessGroup::drain");
  return sim.now() - t0;
}

}  // namespace vmsls::sls
