// Table 2 — Latency breakdown of a hardware-thread memory access.
//
// Three regimes of the same pointer-chase kernel:
//   TLB hit       : footprint within TLB reach (pinned)
//   TLB miss+walk : footprint far beyond TLB reach (pinned)
//   page fault    : working set evicted, every page demand-faults
//
// Reported per-access means come from the engine's memory-latency
// histogram; the walk and fault columns come from the walker/fault-handler
// histograms. Expected shape: hit ~ bus+DRAM only; walk adds ~2 memory
// round trips; fault costs thousands of cycles of OS path.

#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {
bench::RunResult run_case(u64 nodes, bool evict, unsigned tlb_entries) {
  workloads::WorkloadParams p;
  p.n = nodes;
  const auto wl = workloads::make_pointer_chase(p);
  // Pin the TLB geometry so reach is controlled by the experiment.
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  app.threads[0].tlb_override = mem::TlbConfig{}.with_entries(tlb_entries);

  bench::RunOptions opt;
  if (evict) opt.pre_run = bench::evict_all_buffers;
  return bench::run_workload(wl, app, opt);
}
}  // namespace

int main() {
  Table table({"regime", "accesses", "tlb hit %", "walks", "faults", "mean access cyc",
               "mean walk cyc", "mean fault cyc"});

  auto row = [&](const std::string& name, const bench::RunResult& r) {
    const double hits = r.stat("hwt.worker.mmu.tlb.hits");
    const double misses = r.stat("hwt.worker.mmu.tlb.misses");
    table.add_row({name, Table::num(static_cast<u64>(hits + misses)),
                   Table::num(100.0 * hits / (hits + misses), 1),
                   Table::num(static_cast<u64>(r.stat("walker.walks"))),
                   Table::num(static_cast<u64>(r.stat("faults.faults"))),
                   Table::num(r.stat("hwt.worker.mem_latency.mean"), 1),
                   Table::num(r.stat("walker.walk_latency.mean"), 1),
                   Table::num(r.stat("faults.latency.mean"), 1)});
  };

  // 128 nodes x 32 B = 1 page: everything TLB-hits after the first touch.
  row("tlb hit", run_case(128, false, 64));
  // 64k nodes = 512 pages against a 4-entry TLB: almost every access walks.
  row("tlb miss + walk", run_case(65536, false, 4));
  // Evicted working set: each page's first touch takes the full OS path.
  row("page fault", run_case(8192, true, 64));

  table.print(std::cout, "Table 2: memory-access latency breakdown (fabric cycles)");
  return 0;
}
