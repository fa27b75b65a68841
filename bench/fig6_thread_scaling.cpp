// Figure 6 — Scaling with the number of hardware threads.
//
// T threads work on disjoint slices through private TLBs but one shared
// walker and one shared memory bus. Two series:
//   histogram  — compute-bound: scales nearly linearly to 8 threads;
//   saxpy      — bandwidth-bound streaming: the shared bus saturates and
//                throughput flattens, the knee the paper's interconnect
//                sizing discussion is about.

#include <iostream>

#include "bench_util.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {
struct ScalingPoint {
  Cycles makespan = 0;
  double walker_wait_mean = 0;
  double bus_wait_mean = 0;
  double bus_busy_frac = 0;
};

ScalingPoint run_threads(const std::string& workload, unsigned threads, u64 n_per_thread) {
  workloads::WorkloadParams p;
  p.n = n_per_thread;
  p.tile = 256;

  sls::AppSpec app;
  app.name = "scal" + std::to_string(threads);
  std::vector<workloads::Workload> wls;
  for (unsigned t = 0; t < threads; ++t) {
    wls.push_back(workloads::make_workload(workload, p));
    app.add_mailbox("args" + std::to_string(t), 8);
    app.add_mailbox("done" + std::to_string(t), 4);
    for (const auto& buf : wls.back().buffers)
      app.add_buffer("t" + std::to_string(t) + "_" + buf.name, buf.bytes);
    app.add_hw_thread("t" + std::to_string(t), wls.back().kernel,
                      {"args" + std::to_string(t), "done" + std::to_string(t)});
  }

  sls::SynthesisFlow flow(sls::zynq7045());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);

  // Each thread's output buffer and the contents it must hold afterwards.
  std::vector<std::pair<VirtAddr, std::vector<i64>>> expected;
  Rng rng(7);
  for (unsigned t = 0; t < threads; ++t) {
    auto& args = system->process().mailbox(app.mailbox_index("args" + std::to_string(t)));
    const std::string prefix = "t" + std::to_string(t) + "_";
    if (workload == "histogram") {
      std::vector<u8> data(n_per_thread);
      for (auto& b : data) b = static_cast<u8>(rng.below(256));
      const VirtAddr va = system->buffer(prefix + "data");
      system->address_space().write(va, std::span<const u8>(data.data(), data.size()));
      std::vector<i64> bins(256, 0);
      for (u8 b : data) ++bins[b];
      expected.emplace_back(system->buffer(prefix + "hist"), std::move(bins));
      args.put(static_cast<i64>(va), [] {});
      args.put(static_cast<i64>(system->buffer(prefix + "hist")), [] {});
      args.put(static_cast<i64>(n_per_thread), [] {});
    } else {  // saxpy_burst: x, y, alpha, n; afterwards y = y + alpha * x
      const i64 alpha = 7;
      std::vector<i64> x, y;
      for (auto* values : {&x, &y})
        for (u64 i = 0; i < n_per_thread; ++i)
          values->push_back(static_cast<i64>(rng.below(1u << 16)));
      workloads::write_i64(*system, system->buffer(prefix + "x"), x);
      workloads::write_i64(*system, system->buffer(prefix + "y"), y);
      for (u64 i = 0; i < n_per_thread; ++i) y[i] += alpha * x[i];
      expected.emplace_back(system->buffer(prefix + "y"), std::move(y));
      args.put(static_cast<i64>(system->buffer(prefix + "x")), [] {});
      args.put(static_cast<i64>(system->buffer(prefix + "y")), [] {});
      args.put(alpha, [] {});
      args.put(static_cast<i64>(n_per_thread), [] {});
    }
  }

  system->start_all();
  ScalingPoint point;
  point.makespan = system->run_to_completion();
  point.walker_wait_mean = sim.stats().histograms().at("walker.queue_wait").mean();
  point.bus_wait_mean = sim.stats().histograms().at("bus.queue_wait").mean();
  point.bus_busy_frac =
      static_cast<double>(system->bus().busy_cycles()) / static_cast<double>(sim.now());
  for (unsigned t = 0; t < threads; ++t) {
    i64 processed = 0;
    auto& done = system->process().mailbox(app.mailbox_index("done" + std::to_string(t)));
    const auto& [out, want] = expected[t];
    if (!done.try_get(processed) || static_cast<u64>(processed) != n_per_thread ||
        workloads::read_i64(*system, out, want.size()) != want)
      throw std::runtime_error("fig6: " + workload + " thread t" + std::to_string(t) +
                               " produced a wrong result");
  }
  return point;
}

void sweep(const std::string& workload, u64 n_per_thread, const std::string& title) {
  Table table({"threads", "makespan", "speedup vs 1", "bus busy %", "bus wait", "walker wait"});
  double base = 0;
  for (unsigned t : {1u, 2u, 4u, 6u, 8u}) {
    const auto point = run_threads(workload, t, n_per_thread);
    if (t == 1) base = static_cast<double>(point.makespan);
    // Throughput speedup: T slices in `makespan` vs 1 slice in `base`.
    const double speedup = static_cast<double>(t) * base / static_cast<double>(point.makespan);
    table.add_row({Table::num(static_cast<u64>(t)), Table::num(point.makespan),
                   Table::num(speedup, 2), Table::num(point.bus_busy_frac * 100.0, 1),
                   Table::num(point.bus_wait_mean, 1), Table::num(point.walker_wait_mean, 1)});
  }
  table.print(std::cout, title);
}
}  // namespace

int main() {
  sweep("histogram", 128 * KiB, "Figure 6a: scaling, compute-bound (histogram, 128 KiB/thread)");
  sweep("saxpy_burst", 16384,
        "Figure 6b: scaling, bandwidth-bound (saxpy bursts, 16K elements/thread)");
  return 0;
}
