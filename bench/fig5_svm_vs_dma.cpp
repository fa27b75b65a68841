// Figure 5 — Virtual-memory hardware threads vs copy-based DMA offload.
//
// The paper's headline comparison, swept over working-set size:
//
//   streaming (saxpy, burst kernel): every byte is used exactly once, so
//     the copy-based flow pays pin + copy-in(x,y) + copy-out(y) on top of
//     the same compute; SVM touches user pages in place. Expected: SVM
//     wins by a roughly constant factor (the copies), shrinking slightly
//     as burst compute grows.
//
//   sparse (hash-join probe): the accelerator touches a few slots of a
//     large table, but the copy-based flow must ship the WHOLE table.
//     Expected: the SVM advantage grows with table size.
//
// A third column runs SVM cold (demand-faulting every page) — the honest
// comparison when the data is not yet resident.

#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

int main() {
  {
    Table table({"working set", "n", "SVM cycles", "SVM cold cycles", "DMA cycles",
                 "DMA/SVM", "DMA/SVM cold"});
    for (u64 n : {1024u, 4096u, 16384u, 65536u, 262144u}) {
      workloads::WorkloadParams p;
      p.n = n;
      p.tile = 256;
      const auto wl = workloads::make_saxpy_burst(p);

      const auto svm = bench::run_workload(wl);
      bench::RunOptions cold;
      cold.pinned_buffers = false;
      cold.pre_run = bench::evict_all_buffers;
      const auto svm_cold = bench::run_workload(wl, cold);

      const Cycles dma = bench::run_offload(
          wl, {"x", "y"}, {"y"}, [&](sls::System&, const auto& pinned, const auto&) {
            return std::vector<i64>{static_cast<i64>(pinned.at("x").pa),
                                    static_cast<i64>(pinned.at("y").pa), 7, static_cast<i64>(n)};
          }).cycles;

      table.add_row({format_bytes(2 * n * 8), Table::num(n), Table::num(svm.cycles),
                     Table::num(svm_cold.cycles), Table::num(dma),
                     Table::num(static_cast<double>(dma) / static_cast<double>(svm.cycles), 2),
                     Table::num(static_cast<double>(dma) / static_cast<double>(svm_cold.cycles),
                                2)});
    }
    table.print(std::cout, "Figure 5a: streaming (saxpy) — SVM vs copy-based DMA offload");
  }

  {
    // Fixed probe count against a growing table: the accelerator touches a
    // bounded set of slots while the copy-based flow must ship everything.
    constexpr u64 kProbes = 2048;
    Table table({"table size", "probes", "SVM cycles", "DMA cycles", "DMA/SVM"});
    for (u64 build : {1024u, 4096u, 16384u, 65536u}) {
      workloads::WorkloadParams p;
      p.n = kProbes;
      p.aux = build;
      const auto wl = workloads::make_hash_join(p);
      const auto svm = bench::run_workload(wl);

      u64 slots = 4;
      while (slots < 4 * build) slots <<= 1;
      const u64 mask = slots - 1;
      const Cycles dma = bench::run_offload(
          wl, {"table", "keys"}, {"out"}, [&](sls::System&, const auto& pinned, const auto&) {
            return std::vector<i64>{static_cast<i64>(pinned.at("table").pa),
                                    static_cast<i64>(pinned.at("keys").pa),
                                    static_cast<i64>(pinned.at("out").pa),
                                    static_cast<i64>(kProbes), static_cast<i64>(mask)};
          }).cycles;

      table.add_row({format_bytes(slots * 16), Table::num(kProbes), Table::num(svm.cycles),
                     Table::num(dma),
                     Table::num(static_cast<double>(dma) / static_cast<double>(svm.cycles), 2)});
    }
    table.print(std::cout, "Figure 5b: sparse (hash-join probe) — SVM advantage grows with size");
  }
  return 0;
}
