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

sls::PlatformSpec pressured_platform(u64 budget, dma::CopyMode mode) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.frame_budget = budget;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = 7;
  plat.offload.mode = mode;
  return plat;
}

struct OffloadRun {
  Cycles cycles = 0;
  std::map<std::string, double> stats;

  double stat(const std::string& name) const {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
  }
};

/// Args for the physically-addressed kernel, built from the pinned bases
/// and the virtual-address args the workload's setup pushed (`seed_args`).
using ArgBuilder = std::function<std::vector<i64>(
    sls::System&, const std::map<std::string, dma::PinnedBuffer>&, const std::vector<i64>&)>;
/// Optional functional fix-up of pinned-buffer contents after copy-in
/// (pointer marshalling); charged zero time, which flatters the DMA flow.
using Fixup = std::function<void(sls::System&, const std::map<std::string, dma::PinnedBuffer>&)>;

/// The copy-based offload flow under a pager budget: cold-start the user
/// buffers into swap, copy in (faulting + pinning through the pager), run
/// the kernel physically addressed, copy out. Asserts the queue drains and
/// every pin is released.
OffloadRun run_offload_under_pressure(const workloads::Workload& wl,
                                      const std::vector<std::string>& in,
                                      const std::vector<std::string>& out, u64 budget,
                                      dma::CopyMode mode, const ArgBuilder& make_args,
                                      const Fixup& fixup = nullptr,
                                      const std::function<void(sim::Simulator&)>& post = nullptr) {
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware,
                                          sls::Addressing::kPhysical, /*pinned_buffers=*/false);
  sls::SynthesisOptions opts;
  opts.include_dma = true;
  sls::SynthesisFlow flow(pressured_platform(budget, mode), opts);
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);

  // The workload pushed virtual-address args; remember them (offsets and
  // scalar parameters survive the move to pinned memory), then drain.
  auto& args = system->process().mailbox(system->image().app().mailbox_index("args"));
  std::vector<i64> seed_args;
  i64 drained = 0;
  while (args.try_get(drained)) seed_args.push_back(drained);

  // Cold start: every user page leaves through the swap device, so the copy
  // phases pay the full fault + swap-in path under the budget.
  for (const auto& buf : app.buffers)
    system->process().evict(system->buffer(buf.name), buf.bytes);

  std::map<std::string, dma::PinnedBuffer> pinned;
  for (const auto& buf : app.buffers) pinned[buf.name] = system->offload().alloc_pinned(buf.bytes);

  const Cycles t0 = sim.now();
  bench::copy_buffers(*system, pinned, in, /*to_pinned=*/true);

  if (fixup) fixup(*system, pinned);
  for (i64 a : make_args(*system, pinned, seed_args)) args.put(a, [] {});
  system->start_all();
  system->run_to_completion();

  bench::copy_buffers(*system, pinned, out, /*to_pinned=*/false);

  OffloadRun r;
  r.cycles = sim.now() - t0;
  if (!wl.verify(*system))
    throw std::runtime_error(wl.name + ": DMA-under-pressure verification failed");
  // The acceptance gates: the event queue must drain (no orphaned waiter or
  // daemon) and every transfer pin must be released.
  sim.drain(bench::kDrainCycles);
  if (system->address_space().pinned_pages() != 0)
    throw std::runtime_error(wl.name + ": offload pins leaked");
  r.stats = sim.stats().snapshot();
  if (post) post(sim);
  return r;
}

/// The SVM flow at the same operating point (fig. 9's recipe).
bench::RunResult run_svm_under_pressure(const workloads::Workload& wl, u64 budget) {
  bench::RunOptions opt;
  opt.pinned_buffers = false;
  opt.platform = pressured_platform(budget, dma::CopyMode::kSgDma);
  opt.pre_run = bench::evict_all_buffers;
  return bench::run_workload(wl, opt);
}

void sweep(const workloads::Workload& wl, const std::vector<std::string>& in,
           const std::vector<std::string>& out, const ArgBuilder& make_args,
           const Fixup& fixup = nullptr) {
  const u64 page = 4 * KiB;
  const u64 total_pages = working_set_pages(wl, page);

  Table table({"resident %", "frames", "flow", "cycles", "swap ins", "pin stalls",
               "chunked runs", "vs SVM"});
  for (unsigned resident : {100u, 75u, 50u, 25u}) {
    const u64 budget = std::max<u64>(2, total_pages * resident / 100);
    const auto svm = run_svm_under_pressure(wl, budget);
    table.add_row({Table::num(static_cast<u64>(resident)), Table::num(budget), "svm",
                   Table::num(svm.cycles),
                   Table::num(static_cast<u64>(svm.stat("pager.swap_ins"))), "-", "-",
                   Table::num(1.0, 2)});
    for (const auto mode : {dma::CopyMode::kCpuCopy, dma::CopyMode::kSgDma}) {
      const bool last_cell = resident == 25 && mode == dma::CopyMode::kSgDma;
      std::function<void(sim::Simulator&)> post;
      if (last_cell)
        post = [&wl](sim::Simulator& sim) {
          std::cout << "[" << wl.name << ", 25% residency, sg_dma] ";
          sls::write_offload_summary(std::cout, sim.stats());
          std::cout << "[" << wl.name << ", 25% residency, sg_dma] ";
          sls::write_pager_summary(std::cout, sim.stats());
        };
      const auto r = run_offload_under_pressure(wl, in, out, budget, mode, make_args, fixup, post);
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
    auto fixup = [p, node_bytes](sls::System& sys,
                                 const std::map<std::string, dma::PinnedBuffer>& pinned) {
      const auto& buf = pinned.at("nodes");
      const VirtAddr base = sys.buffer("nodes");
      auto& pm = sys.physical_memory();
      for (u64 i = 0; i < p.n; ++i) {
        u64 next_va = 0;
        pm.read(buf.pa + i * node_bytes,
                std::span<u8>(reinterpret_cast<u8*>(&next_va), sizeof(next_va)));
        const u64 next_pa = buf.pa + (next_va - base);
        pm.write(buf.pa + i * node_bytes,
                 std::span<const u8>(reinterpret_cast<const u8*>(&next_pa), sizeof(next_pa)));
      }
    };
    // seed_args = {start_node_va, n}.
    sweep(wl, {"nodes"}, {},
          [node_bytes](sls::System& sys, const std::map<std::string, dma::PinnedBuffer>& pinned,
                       const std::vector<i64>& seed) {
            const u64 off = static_cast<u64>(seed[0]) - sys.buffer("nodes");
            return std::vector<i64>{static_cast<i64>(pinned.at("nodes").pa + off), seed[1]};
          },
          fixup);
  }
  return 0;
}
