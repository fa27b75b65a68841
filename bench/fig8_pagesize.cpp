// Figure 8 — Page size vs demand-paging behavior.
//
// The same cold conv2d run across page sizes. Larger pages mean fewer
// faults and shallower walks (the radix tree loses levels) but each fault
// copies a whole page in and each TLB entry covers more; tiny pages fault
// constantly. Expected shape: a sweet spot in the middle — the classic
// page-size trade-off the MMU design must navigate. Gate: walker reads and
// pinned cycles are non-increasing in page size.

#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

int main() {
  workloads::WorkloadParams p;
  p.n = 64;  // 32 KiB in + 32 KiB out
  const auto wl = workloads::make_conv2d(p);

  Table table({"page size", "walk levels", "cycles (cold)", "faults", "mean fault cyc",
               "walker reads", "cycles (pinned)"});

  std::optional<std::pair<double, Cycles>> prev;  // walker reads, pinned cycles
  for (const auto& [bits, label] : std::vector<std::pair<unsigned, std::string>>{
           {12, "4 KiB"}, {14, "16 KiB"}, {16, "64 KiB"}, {21, "2 MiB"}}) {
    sls::PlatformSpec plat = sls::zynq7020();
    plat.page_table.page_bits = bits;

    bench::RunOptions cold;
    cold.platform = plat;
    cold.pinned_buffers = false;
    cold.pre_run = bench::evict_all_buffers;
    const auto r = bench::run_workload(wl, cold);

    bench::RunOptions pinned;
    pinned.platform = plat;
    const auto rp = bench::run_workload(wl, pinned);
    const double walker_reads = r.stat("walker.mem_reads");
    bench::shape_gate(!prev || (walker_reads <= prev->first && rp.cycles <= prev->second),
                      "fig8 " + label + " pages raised walker reads or pinned cycles");
    prev = {walker_reads, rp.cycles};

    // Walk depth from the geometry: ceil((32 - page_bits) / (page_bits-3)).
    const unsigned levels =
        static_cast<unsigned>(ceil_div(32u - bits, static_cast<u64>(bits) - 3));
    table.add_row({label, Table::num(static_cast<u64>(levels)), Table::num(r.cycles),
                   Table::num(static_cast<u64>(r.stat("faults.faults"))),
                   Table::num(r.stat("faults.latency.mean"), 1),
                   Table::num(static_cast<u64>(walker_reads)),
                   Table::num(rp.cycles)});
  }

  table.print(std::cout, "Figure 8: page-size trade-off under demand paging (conv2d 64x64)");
  return 0;
}
