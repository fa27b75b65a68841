#include "sls/machine.hpp"

namespace vmsls::sls {

namespace {
u64 page_bytes_of(const PlatformSpec& platform) {
  return 1ull << platform.page_table.page_bits;
}
}  // namespace

Machine::Machine(sim::Simulator& sim, const PlatformSpec& platform,
                 const std::optional<paging::FramePoolConfig>& pool_cfg)
    : sim_(sim),
      platform_(platform),
      pm_(platform_.dram.size_bytes),
      frames_(0, platform_.dram.size_bytes / page_bytes_of(platform_), page_bytes_of(platform_)),
      dram_(platform_.dram, sim_.stats(), "dram"),
      bus_(sim_, dram_, platform_.bus, "bus"),
      os_(sim_, platform_.os, "os"),
      pool_(pool_cfg ? std::make_unique<paging::FramePool>(sim_, *pool_cfg, "pool") : nullptr),
      // One flash part for the whole machine: pagers register as owners of
      // this scheduler, so their swap traffic queues against each other like
      // bus traffic does.
      shared_swap_(platform_.pager.swap.shared
                       ? std::make_unique<paging::SwapScheduler>(sim_, platform_.pager.swap,
                                                                 page_bytes(), "swap")
                       : nullptr),
      // Files are meaningful only machine-wide (the same bytes mapped by
      // every process), and the buffer cache in front of the file device is
      // what turns that sharing into cross-process read hits.
      files_(page_bytes()),
      bcache_(sim_, platform_.pager.bcache, page_bytes(), "bcache") {}

void Machine::require_member(const PlatformSpec& member, const std::string& who) const {
#define VMSLS_MACHINE_FIELD(field)                                                 \
  require(member.field == platform_.field,                                         \
          who + ": " #field " differs from the machine's, the only one in effect")
  VMSLS_MACHINE_FIELD(page_table.page_bits);
  VMSLS_MACHINE_FIELD(pager.bcache.capacity_blocks);
  VMSLS_MACHINE_FIELD(pager.bcache.read_latency);
  VMSLS_MACHINE_FIELD(pager.bcache.write_latency);
  VMSLS_MACHINE_FIELD(pager.bcache.bytes_per_cycle);
  VMSLS_MACHINE_FIELD(pager.bcache.flush_interval);
  VMSLS_MACHINE_FIELD(pager.bcache.flush_batch);
  VMSLS_MACHINE_FIELD(pager.bcache.write_starvation_limit);
  VMSLS_MACHINE_FIELD(pager.swap.shared);
  if (shared_swap_ != nullptr) {
    // One device for every pager: only readahead stays per pager.
    VMSLS_MACHINE_FIELD(pager.swap.read_latency);
    VMSLS_MACHINE_FIELD(pager.swap.write_latency);
    VMSLS_MACHINE_FIELD(pager.swap.bytes_per_cycle);
    VMSLS_MACHINE_FIELD(pager.swap.slot_limit);
    VMSLS_MACHINE_FIELD(pager.swap.sched);
    VMSLS_MACHINE_FIELD(pager.swap.cluster_pages);
    VMSLS_MACHINE_FIELD(pager.swap.writeback_starvation_limit);
  }
#undef VMSLS_MACHINE_FIELD
}

paging::SwapScheduler& Machine::swap_for(const std::string& pager,
                                         const paging::SwapConfig& cfg) {
  if (shared_swap_ != nullptr) return *shared_swap_;
  private_swaps_.push_back(
      std::make_unique<paging::SwapScheduler>(sim_, cfg, page_bytes(), pager + ".swap"));
  return *private_swaps_.back();
}

}  // namespace vmsls::sls
