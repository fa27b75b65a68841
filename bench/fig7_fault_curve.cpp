// Figure 7 — Demand paging: runtime vs fraction of working set resident.
//
// conv2d's image is partially evicted before the run; the hardware thread
// demand-faults the cold pages as its row bursts reach them. Expected
// shape: runtime decays to the pinned case as residency approaches 100%;
// each fault costs the full OS path but sequential access amortizes it to
// one fault per page. Gate: slowdown is non-increasing in residency.

#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

int main() {
  workloads::WorkloadParams p;
  p.n = 64;  // 64x64 image, 32 KiB in + 32 KiB out
  const auto wl = workloads::make_conv2d(p);

  Table table({"resident %", "cycles", "faults", "mean fault cyc", "slowdown vs pinned"});
  Cycles pinned_cycles = 0;
  Cycles prev_cycles = 0;

  for (unsigned resident : {100u, 75u, 50u, 25u, 0u}) {
    bench::RunOptions opt;
    opt.pinned_buffers = (resident == 100);
    opt.pre_run = [resident](sls::System& system) {
      if (resident == 100) return;
      auto& as = system.address_space();
      const u64 page = as.page_bytes();
      for (const auto& buf : system.image().app().buffers) {
        const VirtAddr base = system.buffer(buf.name);
        const u64 pages = ceil_div(buf.bytes, page);
        const u64 keep = pages * resident / 100;
        // Evict the tail fraction; the kernel reaches it mid-run.
        if (keep < pages)
          system.process().evict(base + keep * page, (pages - keep) * page);
      }
    };
    const auto r = bench::run_workload(wl, opt);
    // Rows run from most to least resident, so cycles may only grow.
    bench::shape_gate(r.cycles >= prev_cycles,
                      "fig7 " + std::to_string(resident) +
                          "% resident runs faster than the row above it");
    prev_cycles = r.cycles;
    if (resident == 100) pinned_cycles = r.cycles;
    table.add_row({Table::num(static_cast<u64>(resident)), Table::num(r.cycles),
                   Table::num(static_cast<u64>(r.stat("faults.faults"))),
                   Table::num(r.stat("faults.latency.mean"), 1),
                   Table::num(static_cast<double>(r.cycles) /
                                  static_cast<double>(pinned_cycles),
                              2)});
  }

  table.print(std::cout, "Figure 7: demand-paging residency sweep (conv2d 64x64)");
  return 0;
}
