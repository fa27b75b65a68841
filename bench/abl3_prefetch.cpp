// Ablation A3 — next-page TLB prefetch.
//
// A demand miss on page N also walks page N+1 in the background. Expected:
// sequential streams (element-wise saxpy with a deliberately tiny TLB) hide
// most compulsory misses; random access (pointer chase) neither gains nor
// regresses much — the wrong-path walks only occupy the walker.

#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {
bench::RunResult run_case(const std::string& workload, u64 n, unsigned tlb_entries,
                          bool prefetch) {
  workloads::WorkloadParams p;
  p.n = n;
  auto wl = workloads::make_workload(workload, p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  app.threads[0].tlb_override = mem::TlbConfig{.ways = 2}.with_entries(tlb_entries);
  app.threads[0].prefetch_next_page = prefetch;
  return bench::run_workload(wl, app);
}
}  // namespace

int main() {
  Table table(
      {"workload", "tlb", "prefetch", "cycles", "tlb misses", "prefetch fills", "speedup"});
  for (const std::string name : {"saxpy", "pointer_chase"}) {
    const u64 n = 16384;
    for (unsigned tlb : {2u, 8u}) {
      const auto off = run_case(name, n, tlb, false);
      const auto on = run_case(name, n, tlb, true);
      auto row = [&](const std::string& label, const bench::RunResult& r, double speedup) {
        table.add_row({name, Table::num(static_cast<u64>(tlb)), label, Table::num(r.cycles),
                       Table::num(static_cast<u64>(r.stat("hwt.worker.mmu.tlb.misses"))),
                       Table::num(static_cast<u64>(r.stat("hwt.worker.mmu.prefetch_fills"))),
                       Table::num(speedup, 2)});
      };
      row("off", off, 1.0);
      row("on", on, static_cast<double>(off.cycles) / static_cast<double>(on.cycles));
    }
  }
  table.print(std::cout, "Ablation A3: next-page TLB prefetch");
  return 0;
}
