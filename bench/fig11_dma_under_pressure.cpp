// Figure 11 — DMA offload under memory pressure: the paper's SVM-vs-DMA
// comparison (fig. 5 axis) swept across residency budgets (fig. 9 axis).
//
// The seed refused to elaborate the DMA baseline whenever a pager budget
// was set, so the headline comparison silently excluded exactly the regime
// where translation-based sharing should shine. With pinned scatter-gather
// transfers and budget-aware admission, all three flows now run cold-start
// at 100% -> 25% residency:
//
//   SVM       — the hardware thread demand-faults user pages in place.
//   kCpuCopy  — driver memcpy; every missing user page faults through the
//               pager (swap time charged) before its line crosses the bus.
//   kSgDma    — scatter-gather DMA over pinned user pages; runs whose pin
//               demand exceeds the quota are chunked and queue behind pin
//               releases (offload.chunked_runs / offload.pin_stalls).
//
// Deterministic: workload data, policy seeds, and event order are fixed.

#include <iostream>
#include <map>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "mem/paging/replacement.hpp"
#include "sls/report_writer.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {

u64 working_set_pages(const workloads::Workload& wl, u64 page) {
  u64 pages = 0;
  for (const auto& buf : wl.buffers) pages += ceil_div(buf.bytes, page);
  return pages;
}

/// One operating point, for either flow: the pager budget and copy mode,
/// and a cold start — every user page leaves through the swap device, so
/// the SVM thread demand-faults and the copy phases pay the full fault +
/// swap-in path under the budget.
bench::RunOptions cold_under_pressure(u64 budget, dma::CopyMode mode) {
  bench::RunOptions opt;
  opt.pinned_buffers = false;
  opt.platform.pager.frame_budget = budget;
  opt.platform.pager.policy = paging::PolicyKind::kClock;
  opt.platform.pager.policy_seed = 7;
  opt.platform.offload.mode = mode;
  opt.pre_run = bench::evict_all_buffers;
  return opt;
}

void sweep(const workloads::Workload& wl, const std::vector<std::string>& in,
           const std::vector<std::string>& out, const bench::OffloadArgs& make_args) {
  const u64 page = 4 * KiB;
  const u64 total_pages = working_set_pages(wl, page);

  Table table({"resident %", "frames", "flow", "cycles", "swap ins", "pin stalls",
               "chunked runs", "vs SVM"});
  for (unsigned resident : {100u, 75u, 50u, 25u}) {
    const u64 budget = std::max<u64>(2, total_pages * resident / 100);
    const auto svm = bench::run_workload(wl, cold_under_pressure(budget, dma::CopyMode::kSgDma));
    table.add_row({Table::num(static_cast<u64>(resident)), Table::num(budget), "svm",
                   Table::num(svm.cycles),
                   Table::num(static_cast<u64>(svm.stat("pager.swap_ins"))), "-", "-",
                   Table::num(1.0, 2)});
    for (const auto mode : {dma::CopyMode::kCpuCopy, dma::CopyMode::kSgDma}) {
      bench::RunOptions opt = cold_under_pressure(budget, mode);
      if (resident == 25 && mode == dma::CopyMode::kSgDma)
        opt.post_run = [&wl](sls::System&, sim::Simulator& sim) {
          std::cout << "[" << wl.name << ", 25% residency, sg_dma] ";
          sls::write_offload_summary(std::cout, sim.stats());
          std::cout << "[" << wl.name << ", 25% residency, sg_dma] ";
          sls::write_pager_summary(std::cout, sim.stats());
        };
      const auto r = bench::run_offload(wl, in, out, make_args, opt);
      table.add_row({Table::num(static_cast<u64>(resident)), Table::num(budget),
                     dma::copy_mode_name(mode), Table::num(r.cycles),
                     Table::num(static_cast<u64>(r.stat("pager.swap_ins"))),
                     Table::num(static_cast<u64>(r.stat("offload.pin_stalls"))),
                     Table::num(static_cast<u64>(r.stat("offload.chunked_runs"))),
                     Table::num(static_cast<double>(r.cycles) / static_cast<double>(svm.cycles),
                                2)});
    }
  }
  table.print(std::cout, "Figure 11: DMA offload under memory pressure (" + wl.name + ", " +
                             Table::num(total_pages) + " working-set pages)");
  std::cout << "\n";
}

}  // namespace

int main() {
  {
    workloads::WorkloadParams p;
    p.n = 2048;   // probe keys: 4 streamed key pages + 4 streamed out pages
    p.aux = 448;  // build tuples -> 2048 slots -> 8 table pages
    const auto wl = workloads::make_hash_join(p);
    // seed_args = {table_va, keys_va, out_va, probes, mask}: scalars carry
    // over, buffer bases move to the pinned copies.
    sweep(wl, {"table", "keys"}, {"out"},
          [](sls::System&, const std::map<std::string, dma::PinnedBuffer>& pinned,
             const std::vector<i64>& seed) {
            return std::vector<i64>{static_cast<i64>(pinned.at("table").pa),
                                    static_cast<i64>(pinned.at("keys").pa),
                                    static_cast<i64>(pinned.at("out").pa), seed[3], seed[4]};
          });
  }
  {
    workloads::WorkloadParams p;
    p.n = 2048;  // random cycle over the node pages
    const auto wl = workloads::make_pointer_chase(p);
    const u64 node_bytes = wl.buffers.front().bytes / p.n;
    // The copy-based flow must marshal embedded pointers: node next-fields
    // hold virtual addresses, which the driver rewrites to pinned physical
    // addresses after copy-in (zero simulated time — flattering the DMA
    // baseline, as fig. 5 does for its argument rewriting).
    // seed_args = {start_node_va, n}.
    sweep(wl, {"nodes"}, {},
          [p, node_bytes](sls::System& sys,
                          const std::map<std::string, dma::PinnedBuffer>& pinned,
                          const std::vector<i64>& seed) {
            const auto& buf = pinned.at("nodes");
            const VirtAddr base = sys.buffer("nodes");
            auto& pm = sys.physical_memory();
            for (u64 i = 0; i < p.n; ++i) {
              u64 next_va = 0;
              pm.read(buf.pa + i * node_bytes,
                      std::span<u8>(reinterpret_cast<u8*>(&next_va), sizeof(next_va)));
              const u64 next_pa = buf.pa + (next_va - base);
              pm.write(buf.pa + i * node_bytes, std::span<const u8>(
                                                    reinterpret_cast<const u8*>(&next_pa),
                                                    sizeof(next_pa)));
            }
            const u64 off = static_cast<u64>(seed[0]) - base;
            return std::vector<i64>{static_cast<i64>(buf.pa + off), seed[1]};
          });
  }
  return 0;
}
