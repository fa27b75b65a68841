// Host-side microbenchmarks for the paging fault path.
//
// Not paper data: these measure how fast the host retires the pager's hot
// loops — demand faults with clean evictions, dirty evictions paying the
// writeback path, the swap scheduler's enqueue/dispatch/slot-allocator
// cycle, and clustered readahead — next to bench_micro_core's engine
// numbers. The sections drive the Pager/SwapScheduler directly (no MMU or
// walker in the loop): items/s is faults (or swap ops) retired per host
// second, the number that bounds every over-subscription sweep in bench/.
//
// Writes BENCH_paging.json (same schema as BENCH_engine.json). Its swap-in
// and prefetch count checks gate under ctest (smoke_micro_paging); its
// host rates are informational.

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "bench_util.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "sim/simulator.hpp"
#include "sls/episode.hpp"
#include "sls/process_group.hpp"
#include "util/table.hpp"

namespace {

using namespace vmsls;

using bench::measure;
using bench::Rate;

/// One pager-only ProcessGroup member over a small physical memory — the
/// fault path without the MMU/walker front end (an sls::EpisodeDriver issues
/// the faults and plays the OS tail by mapping the page in once it is ready).
struct FaultRig {
  sim::Simulator sim;
  sls::ProcessGroup group;
  sls::System& sys;
  mem::AddressSpace& as;
  paging::Pager& pager;
  sls::EpisodeDriver episodes{sim};
  VirtAddr base = 0;
  u64 pages = 0;

  FaultRig(u64 pages_, u64 budget, const paging::SwapConfig& swap)
      : group(sim, platform(budget, swap), paging::FramePoolConfig{}),
        sys(group.add_process("p0")),
        as(sys.address_space()),
        pager(*sys.pager()),
        pages(pages_) {
    episodes.add_worker(as, sys.process(), pager);
    base = as.alloc(pages * page(), page());
    // Materialize every page with distinct data (maps them all; budget is
    // only enforced on the fault path, so setup may exceed it).
    for (u64 p = 0; p < pages; ++p)
      for (u64 w = 0; w < 4; ++w) as.write_u64(va(p) + w * 8, p * 1000 + w);
  }

  static sls::PlatformSpec platform(u64 budget, const paging::SwapConfig& swap) {
    sls::PlatformSpec p;
    p.dram.size_bytes = 32 * MiB;
    p.pager.frame_budget = budget;
    p.pager.policy = paging::PolicyKind::kClock;
    p.pager.swap = swap;
    return p;
  }

  u64 page() const { return as.page_bytes(); }
  VirtAddr va(u64 p) const { return base + p * page(); }

  void clear_dirty_bits() {
    for (u64 p = 0; p < pages; ++p) as.page_table().test_and_clear_dirty(va(p));
  }

  void evict_all() { sys.process().evict(base, pages * page()); }

  /// Chains `count` demand faults on pages `first, first+stride, ...`
  /// (wrapping modulo `pages`), each issued from the previous fault's ready
  /// callback — the shape of a hardware thread missing page after page.
  /// `dirty` makes each touch a store, so the page's next eviction pays the
  /// writeback path.
  void fault_chain(u64 count, u64 first, u64 stride, bool dirty) {
    auto& touches = episodes.touches(0);
    touches.clear();
    for (u64 i = 0; i < count; ++i)
      touches.push_back({va((first + i * stride) % pages), dirty, i + 1});
    bool done = false;
    episodes.start(0, 0, [&done] { done = true; });
    group.drain(bench::kDrainCycles);
    if (!done) throw std::runtime_error("micro_paging: fault chain stalled");
    if (episodes.read_faults(0) != count)
      throw std::runtime_error("micro_paging: a chained page was still resident");
  }
};

/// Demand-fault loop under budget pressure with clean evictions: every
/// fault picks a victim (CLOCK sweep over `budget` tracked pages), shoots
/// it down, and pays a swap-in — the fault path's pure bookkeeping cost.
Rate bench_fault_clean(u64 pages, u64 budget, u64 rounds) {
  const u64 faults = pages * rounds;
  Cycles covered = 0;
  Rate r = measure(faults, [&] {
    FaultRig rig(pages, budget, bench::fast_swap());
    rig.clear_dirty_bits();
    rig.evict_all();
    rig.fault_chain(faults, 0, 1, /*dirty=*/false);
    if (rig.pager.swap_ins() != faults)
      throw std::runtime_error("micro_paging: clean-fault swap-in count mismatch");
    covered = rig.sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Same loop with write faults: every eviction finds the victim dirty and
/// suspends on an async writeback before the swap-in — the fault path's
/// most expensive shape (evict + write + read per fault).
Rate bench_fault_dirty(u64 pages, u64 budget, u64 rounds) {
  const u64 faults = pages * rounds;
  Cycles covered = 0;
  Rate r = measure(faults, [&] {
    FaultRig rig(pages, budget, bench::fast_swap());
    rig.evict_all();  // setup writes left every page dirty
    rig.fault_chain(faults, 0, 1, /*dirty=*/true);
    if (rig.pager.writebacks() == 0)
      throw std::runtime_error("micro_paging: dirty-fault loop paid no writebacks");
    covered = rig.sim.now();
  });
  r.cycles = covered;
  return r;
}

/// The swap scheduler's own hot loop, no pager: bursts of writeback-class
/// writes then batched demand reads on the same vpns — enqueue, dispatch
/// selection, slot allocate/free, and clustered read merging, with the
/// queue kept at realistic (short) depths.
Rate bench_swap_enqueue(u64 n, paging::SwapSchedPolicy policy) {
  constexpr u64 kBurst = 16;
  const u64 ops = 2 * n;  // one write + one read per vpn
  Cycles covered = 0;
  Rate r = measure(ops, [&] {
    sim::Simulator sim;
    sls::PlatformSpec plat = FaultRig::platform(0, bench::fast_swap());
    plat.pager.swap.sched = policy;
    plat.pager.swap.shared = true;  // the group's one swap part, no member attached
    sls::ProcessGroup group(sim, plat, paging::FramePoolConfig{});
    paging::SwapScheduler& sched = *group.shared_swap();
    const unsigned owner = sched.register_owner("swap");
    u64 done = 0;
    for (u64 i = 0; i < n; i += kBurst) {
      sched.batched([&] {
        for (u64 j = 0; j < kBurst; ++j)
          sched.write(owner, i + j, paging::SwapReqClass::kWriteback, [&done] { ++done; });
      });
      sim.drain(bench::kDrainCycles);
      // Contiguous vpns share a cluster region: the burst dispatches as one
      // clustered device read.
      sched.batched([&] {
        for (u64 j = 0; j < kBurst; ++j)
          sched.read(owner, i + j, paging::SwapReqClass::kDemandRead, [&done] { ++done; });
      });
      sim.drain(bench::kDrainCycles);
    }
    if (done != ops) throw std::runtime_error("micro_paging: swap op count mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Clustered readahead: no budget pressure, every (ra+1)-th page demand
/// faults and pulls its `ra` slot neighbors as prefetch-class reads in the
/// same clustered device operation — the speculative landing/settling path.
Rate bench_readahead(u64 pages, unsigned ra) {
  const u64 stride = ra + 1;
  const u64 demand = pages / stride;
  paging::SwapConfig cfg0 = bench::fast_swap();
  cfg0.sched = paging::SwapSchedPolicy::kPriority;
  cfg0.readahead = ra;
  // Readahead clips at cluster-region boundaries (neighbors never cross a
  // 64-slot region, and regions are keyed by absolute vpn), so the expected
  // prefetch count per demand fault is the depth clipped to the slots left
  // in the faulting vpn's region. Probe a rig for the deterministic base
  // vpn; every repetition allocates the identical layout.
  const u64 vpn0 = [&] {
    FaultRig probe(pages, pages, cfg0);
    return probe.base / probe.page();
  }();
  u64 expected_prefetch = 0;
  for (u64 i = 0; i < demand; ++i)
    expected_prefetch += std::min<u64>(ra, 63 - (vpn0 + i * stride) % 64);
  const u64 items = demand + expected_prefetch;
  Cycles covered = 0;
  Rate r = measure(items, [&] {
    FaultRig rig(pages, /*budget=*/pages, cfg0);
    rig.clear_dirty_bits();
    rig.evict_all();  // in-vpn-order eviction clusters the swap slots
    rig.fault_chain(demand, 0, stride, /*dirty=*/false);
    if (rig.pager.swap_ins() != demand)
      throw std::runtime_error("micro_paging: readahead demand swap-in count mismatch");
    if (rig.pager.prefetches() != expected_prefetch)
      throw std::runtime_error("micro_paging: readahead prefetch count mismatch (got " +
                               std::to_string(rig.pager.prefetches()) + ", want " +
                               std::to_string(expected_prefetch) + ")");
    covered = rig.sim.now();
  });
  r.cycles = covered;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, "micro_paging", 0, [](const bench::Cli&) {
    bench::EngineBenchReport report;
    Table table({"section", "items/s", "host ms", "items"});
    auto row = [&](const std::string& name, const Rate& r) {
      table.add_row({name, Table::num(r.items_per_sec, 0), Table::num(r.host_ms, 1),
                     Table::num(r.items)});
      report.add(name, r.cycles, r.items, {}, 0, r.host_ms);
    };

    row("paging_fault_clean_2k", bench_fault_clean(2048, 1024, 2));
    row("paging_fault_dirty_2k", bench_fault_dirty(2048, 1024, 2));
    row("paging_swap_enqueue_fifo_4k", bench_swap_enqueue(4096, paging::SwapSchedPolicy::kFifo));
    row("paging_swap_enqueue_prio_4k",
        bench_swap_enqueue(4096, paging::SwapSchedPolicy::kPriority));
    row("paging_readahead_ra8_4k", bench_readahead(4096, 8));

    table.print(std::cout, "Paging fault-path microbenchmarks");
    report.write_json("BENCH_paging.json");
    std::cout << "wrote BENCH_paging.json\n";
  });
}
