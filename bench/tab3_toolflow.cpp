// Table 3 — Toolflow statistics.
//
// Synthesis cost and generated-artifact sizes per application: host
// wall-clock per pass, netlist instances/nets, address-map entries, and
// resource-estimate totals. Expected shape: cost grows linearly with
// thread count and stays in the milliseconds — system-level synthesis is
// cheap next to the (out-of-scope) RTL implementation run.
// Stdout holds the deterministic columns (bench/golden/tab3_toolflow.txt);
// host microseconds per pass go to stderr.

#include <iostream>

#include "bench_util.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {
sls::AppSpec multi_thread_app(unsigned hw_threads) {
  workloads::WorkloadParams p;
  p.n = 1024;
  sls::AppSpec app;
  app.name = "scale" + std::to_string(hw_threads);
  app.add_mailbox("args", 16);
  app.add_mailbox("done", 16);
  for (unsigned t = 0; t < hw_threads; ++t) {
    const auto wl = workloads::make_workload(
        workloads::workload_names()[t % workloads::workload_names().size()], p);
    for (const auto& buf : wl.buffers)
      app.add_buffer("t" + std::to_string(t) + "_" + buf.name, buf.bytes);
    app.add_hw_thread("t" + std::to_string(t), wl.kernel, {"args", "done"});
  }
  return app;
}
}  // namespace

int main() {
  Table table({"app", "HW threads", "instances", "nets", "addr-map", "LUT total"});
  Table host({"app", "synthesis us", "validate us", "iface-synth us", "estimate us", "emit us"});

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto app = multi_thread_app(threads);
    sls::SynthesisFlow flow(sls::zynq7045());  // big part fits 8 threads
    const auto image = flow.synthesize(app);
    const auto& rep = image.report();

    double total = 0, validate = 0, iface = 0, estimate = 0, emit = 0;
    for (const auto& t : rep.pass_timings) {
      total += t.microseconds;
      if (t.pass == "validate") validate = t.microseconds;
      if (t.pass == "interface-synthesis") iface = t.microseconds;
      if (t.pass == "estimate") estimate = t.microseconds;
      if (t.pass == "emit") emit = t.microseconds;
    }
    table.add_row({app.name, Table::num(static_cast<u64>(threads)),
                   Table::num(rep.netlist_instances), Table::num(rep.netlist_nets),
                   Table::num(static_cast<u64>(rep.address_map.size())),
                   Table::num(rep.total.luts)});
    host.add_row({app.name, Table::num(total, 1), Table::num(validate, 1), Table::num(iface, 1),
                  Table::num(estimate, 1), Table::num(emit, 1)});
  }

  table.print(std::cout, "Table 3: toolflow statistics (generated artifacts)");
  host.print(std::cerr, "Table 3: synthesis passes (host wall-clock)");
  return 0;
}
