// Figure 4 — TLB geometry sweep.
//
// Runtime and hit rate as the per-thread TLB grows, for a streaming kernel
// (matmul row tiles: high spatial locality) and a pointer-chasing kernel
// (random page order: reach-bound). Second series: page size shifts the
// knee — larger pages cover the same footprint with fewer entries.
// Expected shape: hit rate saturates once TLB reach >= working set; the
// pointer chase needs the full footprint, matmul needs only a few entries.
// Gates: in 4a cycles never rise and hit % never falls as entries grow; in
// 4b a larger page never lowers the hit % at the same entry count.

#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {
struct Point {
  Cycles cycles;
  double hit_rate;
};

Point run_point(const std::string& workload, u64 n, unsigned tlb_entries, unsigned page_bits) {
  workloads::WorkloadParams p;
  p.n = n;
  auto wl = workloads::make_workload(workload, p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  app.threads[0].tlb_override = mem::TlbConfig{}.with_entries(tlb_entries);

  bench::RunOptions opt;
  opt.platform.page_table.page_bits = page_bits;
  double hit_rate = 0;
  opt.post_run = [&hit_rate](sls::System& system, sim::Simulator&) {
    hit_rate = system.mmu("worker").tlb().hit_rate();
  };
  const Cycles cycles = bench::run_workload(wl, app, opt).cycles;
  return Point{cycles, hit_rate};
}
}  // namespace

int main() {
  const std::vector<unsigned> entries = {1, 2, 4, 8, 16, 32, 64};

  {
    Table table({"tlb entries", "matmul cycles", "matmul hit %", "ptr-chase cycles",
                 "ptr-chase hit %"});
    const auto gate = [](const char* kernel, unsigned e, const Point& cur,
                         std::optional<Point>& prev) {
      bench::shape_gate(!prev || (cur.cycles <= prev->cycles && cur.hit_rate >= prev->hit_rate),
                        std::string("fig4a ") + kernel + " at " + std::to_string(e) +
                            " entries: more entries raised cycles or lowered hit %");
      prev = cur;
    };
    std::optional<Point> prev_mm, prev_pc;
    for (unsigned e : entries) {
      const Point mm = run_point("matmul", 32, e, 12);
      const Point pc = run_point("pointer_chase", 8192, e, 12);  // 64-page footprint
      gate("matmul", e, mm, prev_mm);
      gate("ptr-chase", e, pc, prev_pc);
      table.add_row({Table::num(static_cast<u64>(e)), Table::num(mm.cycles),
                     Table::num(mm.hit_rate * 100.0, 2), Table::num(pc.cycles),
                     Table::num(pc.hit_rate * 100.0, 2)});
    }
    table.print(std::cout, "Figure 4a: runtime and TLB hit rate vs TLB entries (4 KiB pages)");
  }

  {
    Table table({"page size", "entries", "ptr-chase cycles", "hit %"});
    std::map<unsigned, double> prev_hit;  // entries -> hit rate at the previous page size
    for (const auto& [bits, label] :
         std::vector<std::pair<unsigned, std::string>>{{12, "4 KiB"}, {16, "64 KiB"},
                                                       {21, "2 MiB"}}) {
      for (unsigned e : {4u, 16u}) {
        const Point pc = run_point("pointer_chase", 8192, e, bits);
        bench::shape_gate(!prev_hit.contains(e) || pc.hit_rate >= prev_hit[e],
                          "fig4b " + label + " with " + std::to_string(e) +
                              " entries: a larger page lowered the hit %");
        prev_hit[e] = pc.hit_rate;
        table.add_row({label, Table::num(static_cast<u64>(e)), Table::num(pc.cycles),
                       Table::num(pc.hit_rate * 100.0, 2)});
      }
    }
    table.print(std::cout, "Figure 4b: page size shifts the TLB-reach knee (pointer chase)");
  }
  return 0;
}
