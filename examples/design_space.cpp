// Design-space exploration: TLB sizing under a resource budget.
//
// Sweeps the hash-join thread's TLB size, synthesizing each candidate and
// *measuring* it on the simulator — the flow's answer to "how much TLB does
// this kernel need?". Prints the explored frontier and the chosen point.

#include <iostream>

#include "sls/dse.hpp"
#include "sls/system.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

using namespace vmsls;

int main() {
  workloads::WorkloadParams params;
  params.n = 2048;
  const auto wl = workloads::make_hash_join(params);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  // Let the explorer control geometry rather than the footprint hint.
  app.threads[0].footprint_hint_bytes = 0;

  sls::DesignSpaceExplorer dse(sls::zynq7020());
  const auto evaluate = [&wl](const sls::SystemImage& image) -> Cycles {
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    wl.setup(*system);
    system->start_all();
    const Cycles c = system->run_to_completion();
    if (!wl.verify(*system)) throw std::runtime_error("DSE candidate computed wrong results");
    return c;
  };

  const auto result = dse.explore_tlb(app, "worker", {4, 8, 16, 32, 64, 128}, evaluate);

  Table table({"tlb_entries", "LUTs", "fits", "cycles"});
  for (const auto& c : result.candidates)
    table.add_row({Table::num(static_cast<u64>(c.tlb_entries)),
                   Table::num(c.image.report().total.luts), c.fits ? "yes" : "no",
                   c.measured ? Table::num(c.cycles) : "-"});
  table.print(std::cout, "TLB design space for hash_join (" + std::to_string(params.n) + " keys)");

  if (result.best >= 0)
    std::cout << "chosen: " << result.candidates[static_cast<std::size_t>(result.best)].tlb_entries
              << " entries\n";
  return result.best >= 0 ? 0 : 1;
}
