// Figure 3 — Speedup of hardware threads over software.
//
// Every workload runs three ways on the same simulated SoC: as a software
// thread on the CPU model, as a virtual-memory hardware thread (the paper's
// design), and — where the kernel is expressible with physical addressing —
// the numbers for the SVM thread already include all translation overhead.
// Expected shape: compute-dense kernels (matmul, conv2d) win large; burst
// streaming wins moderately; pointer-heavy kernels win least (translation
// bound) but remain usable, which is the paper's point. Gate: each
// `_burst` kernel's speedup beats its plain kernel's.

#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

int main() {
  Table table({"kernel", "n", "SW cycles", "HW(SVM) cycles", "speedup", "tlb hit %",
               "HW stall %"});
  std::map<std::string, double> speedups;

  for (const auto& name : workloads::workload_names()) {
    workloads::WorkloadParams p;
    p.tile = 256;
    if (name == "matmul")
      p.n = 48;
    else if (name == "conv2d")
      p.n = 64;
    else if (name == "histogram")
      p.n = 256 * KiB;
    else
      p.n = 16384;

    const auto wl = workloads::make_workload(name, p);

    bench::RunOptions sw;
    sw.kind = sls::ThreadKind::kSoftware;
    const auto sw_result = bench::run_workload(wl, sw);

    bench::RunOptions hw;
    hw.kind = sls::ThreadKind::kHardware;
    const auto hw_result = bench::run_workload(wl, hw);

    const double hits = hw_result.stat("hwt.worker.mmu.tlb.hits");
    const double misses = hw_result.stat("hwt.worker.mmu.tlb.misses");
    const double mem_waits = hw_result.stat("hwt.worker.mem_latency.mean") *
                             hw_result.stat("hwt.worker.mem_latency.count");
    const double speedup =
        static_cast<double>(sw_result.cycles) / static_cast<double>(hw_result.cycles);
    speedups[name] = speedup;
    table.add_row(
        {name, Table::num(p.n), Table::num(sw_result.cycles), Table::num(hw_result.cycles),
         Table::num(speedup, 2),
         Table::num(hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0, 1),
         Table::num(100.0 * mem_waits / static_cast<double>(hw_result.cycles), 1)});
  }

  constexpr std::string_view kBurst = "_burst";
  for (const auto& [name, speedup] : speedups) {
    if (!name.ends_with(kBurst)) continue;
    const std::string plain = name.substr(0, name.size() - kBurst.size());
    bench::shape_gate(speedup > speedups.at(plain),
                      "fig3 " + name + " speedup " + std::to_string(speedup) +
                          " does not beat " + plain + "'s " + std::to_string(speedups.at(plain)));
  }

  table.print(std::cout,
              "Figure 3: speedup of virtual-memory hardware threads over software (zynq7020)");
  return 0;
}
