// Ablation A1 — Page-walk cache size sweep (0 entries = off).
//
// Pointer chasing across far more pages than the TLB holds makes every
// access walk. The walk cache short-circuits the interior levels for
// recently used leaf tables. Expected: with 512 pages under one leaf-table
// region, the cache removes ~2/3 of walker DRAM reads and a matching slice
// of runtime.

#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {
bench::RunResult run_case(unsigned cache_entries) {
  workloads::WorkloadParams p;
  p.n = 65536;  // 2 MiB of nodes = 512 pages
  auto wl = workloads::make_pointer_chase(p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  mem::TlbConfig tiny;
  tiny.entries = 4;
  tiny.ways = 4;
  app.threads[0].tlb_override = tiny;  // force walks

  bench::RunOptions opt;
  opt.platform.walker.walk_cache_entries = cache_entries;
  return bench::run_workload(wl, app, opt);
}
}  // namespace

int main() {
  Table table({"walk cache", "cycles", "walks", "walker DRAM reads", "reads/walk",
               "mean walk cyc"});
  for (const auto& [entries, label] : std::vector<std::pair<unsigned, std::string>>{
           {0, "off"}, {4, "4 entries"}, {16, "16 entries"}, {64, "64 entries"}}) {
    const auto r = run_case(entries);
    const double walks = r.stat("walker.walks");
    const double reads = r.stat("walker.mem_reads");
    table.add_row({label, Table::num(r.cycles), Table::num(static_cast<u64>(walks)),
                   Table::num(static_cast<u64>(reads)), Table::num(reads / walks, 2),
                   Table::num(r.stat("walker.walk_latency.mean"), 1)});
  }
  table.print(std::cout, "Ablation A1: page-walk cache (pointer chase, 512 pages, 4-entry TLB)");
  return 0;
}
