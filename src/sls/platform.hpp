// Platform specification — the synthesis target.
//
// Bundles the FPGA part's resource budget with the configuration of every
// system component the flow instantiates: DRAM and bus timing, page-table
// geometry, the shared walker, per-thread TLB defaults, OS latencies, and
// the host CPU model. Presets approximate Zynq-7000 SoCs.
#pragma once

#include <string>

#include "cpu/cpu.hpp"
#include "dma/dma_engine.hpp"
#include "dma/offload.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "mem/bus.hpp"
#include "mem/dram.hpp"
#include "mem/pagetable.hpp"
#include "mem/paging/pager.hpp"
#include "mem/tlb.hpp"
#include "mem/walker.hpp"
#include "rt/os.hpp"
#include "sim/arrival.hpp"
#include "sim/telemetry.hpp"
#include "sls/resources.hpp"

namespace vmsls::sls {

/// Serving-mode (open-system) traffic knobs — consumed by sls::TrafficDriver.
/// Defined here (not in traffic.hpp) so PlatformSpec can carry the config
/// without the platform header depending on the driver layer above it.
struct TrafficConfig {
  /// Arrival-process shape: distribution, rate (mean_gap), seed, and the
  /// burst/lull modulator (see sim/arrival.hpp).
  sim::ArrivalConfig arrival{};
  u64 requests = 0;          ///< arrivals per run; 0 disables serving mode
  u64 queue_capacity = 16;   ///< bounded admission queue; overflow rejects
  u64 episode_touches = 32;  ///< page touches per request episode
  u64 arena_pages = 64;      ///< per-worker arena the episodes touch
  Cycles touch_cost = 20;    ///< compute cycles charged per touch
  double write_ratio = 0.25; ///< fraction of touches that store (dirty pages)
  /// Comma-separated episode patterns cycled across requests. Each name
  /// selects the access shape of the matching workload generator family:
  /// "saxpy"/"vecadd" = sequential sweep, "matmul" = strided, "hash_join"/
  /// "histogram" = uniform random, "pointer_chase"/"bfs" = dependent chase.
  std::string mix = "saxpy,hash_join,pointer_chase,matmul";
};

struct PlatformSpec {
  std::string name = "zynq7020";
  ResourceBudget budget{};
  unsigned max_hw_threads = 8;

  mem::DramConfig dram{};
  mem::BusConfig bus{};
  mem::PageTableConfig page_table{};
  mem::WalkerConfig walker{};
  mem::TlbConfig default_tlb{};
  hwt::HwPortConfig default_port{};
  hwt::CostModel hw_cost{};            // fabric datapath costs
  rt::OsConfig os{};
  cpu::CpuConfig cpu{};
  /// Memory-pressure model: frame budget, replacement policy, swap-device
  /// timing, and the shared swap I/O knobs (`pager.swap.shared` for one
  /// device per Machine, `pager.swap.sched` for the request-queue
  /// dispatch policy, `pager.swap.readahead` for swap-in clustering
  /// prefetch). frame_budget == 0 (the default) disables the pager
  /// entirely.
  paging::PagerConfig pager{};
  /// Copy-based offload baseline (elaborated when SynthesisOptions
  /// include_dma is set): DMA engine burst geometry and the driver's copy
  /// mode/costs. `offload.mode` is the DSE's offload-mode axis.
  dma::DmaConfig dma{};
  dma::OffloadConfig offload{};
  /// Periodic pressure telemetry (see sim/telemetry.hpp): a ProcessGroup
  /// with `telemetry.period > 0` samples pool residency, free frames, swap
  /// queue depths, and per-process fault/prefetch pressure every period
  /// cycles. 0 (the default) elides the sampler entirely.
  sim::TelemetryConfig telemetry{};
  /// Open-arrival serving mode (see sls/traffic.hpp): request rate, bounded
  /// admission queue, and episode shape for TrafficDriver runs.
  /// `traffic.requests == 0` (the default) means no serving plane.
  TrafficConfig traffic{};

  Addr ctrl_base = 0x4000'0000;  // control-register window (metadata only)
  u64 ctrl_stride = 0x1000;
};

/// Mid-size part: xc7z020 (Zedboard class).
inline PlatformSpec zynq7020() {
  PlatformSpec p;
  p.name = "zynq7020";
  p.budget = ResourceBudget{53200, 106400, 630.0, 220};
  p.max_hw_threads = 8;
  return p;
}

/// Large part: xc7z045 (ZC706 class).
inline PlatformSpec zynq7045() {
  PlatformSpec p;
  p.name = "zynq7045";
  p.budget = ResourceBudget{218600, 437200, 2385.0, 900};
  p.max_hw_threads = 16;
  p.dram.size_bytes = 1024 * MiB;
  return p;
}

}  // namespace vmsls::sls
