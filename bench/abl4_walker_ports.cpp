// Ablation A4 — walker concurrency.
//
// Several pointer-chasing threads with tiny TLBs miss simultaneously; with
// one walk port their misses serialize in the walker queue. Expected: a
// second port removes most of the queue wait until the memory bus itself
// becomes the limit.

#include <iostream>

#include "bench_util.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {
struct Point {
  Cycles makespan;
  double walker_wait_mean;
};

Point run_threads(unsigned threads, unsigned walker_ports) {
  workloads::WorkloadParams p;
  p.n = 4096;

  sls::AppSpec app;
  app.name = "wports";
  std::vector<workloads::Workload> wls;
  for (unsigned t = 0; t < threads; ++t) {
    p.seed = 42 + t;
    wls.push_back(workloads::make_pointer_chase(p));
    app.add_mailbox("args" + std::to_string(t), 8);
    app.add_mailbox("done" + std::to_string(t), 4);
    for (const auto& buf : wls.back().buffers)
      app.add_buffer("t" + std::to_string(t) + "_" + buf.name, buf.bytes);
    auto& spec = app.add_hw_thread("t" + std::to_string(t), wls.back().kernel,
                                   {"args" + std::to_string(t), "done" + std::to_string(t)});
    mem::TlbConfig tiny;
    tiny.entries = 2;
    tiny.ways = 2;
    spec.tlb_override = tiny;
  }

  sls::PlatformSpec plat = sls::zynq7045();
  plat.walker.ports = walker_ports;

  sls::SynthesisFlow flow(plat);
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);

  // Per-thread chain setup: replicate each workload's node graph under its
  // own buffer names, remembering the value sum each chain must return.
  std::vector<i64> sums(threads, 0);
  for (unsigned t = 0; t < threads; ++t) {
    workloads::WorkloadParams pt_params;
    pt_params.n = 4096;
    pt_params.seed = 42 + t;
    // Regenerate the same chain the workload's setup would build, but
    // against the per-thread buffer; reuse the workload setup by aliasing
    // is not possible (names differ), so write directly.
    const VirtAddr base = system->buffer("t" + std::to_string(t) + "_nodes");
    Rng rng(pt_params.seed * 0x6a09e667f3bcc909ull + 3);
    std::vector<u64> order(pt_params.n);
    for (u64 i = 0; i < pt_params.n; ++i) order[i] = i;
    for (u64 i = pt_params.n - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    auto& as = system->address_space();
    for (u64 k = 0; k < pt_params.n; ++k) {
      as.write_u64(base + order[k] * 32, base + order[(k + 1) % pt_params.n] * 32);
      const i64 value = static_cast<i64>(rng.below(1u << 16));
      as.write_scalar<i64>(base + order[k] * 32 + 8, value);
      sums[t] += value;
    }
    auto& args = system->process().mailbox(app.mailbox_index("args" + std::to_string(t)));
    args.put(static_cast<i64>(base + order[0] * 32), [] {});
    args.put(static_cast<i64>(pt_params.n), [] {});
  }

  system->start_all();
  Point point;
  point.makespan = system->run_to_completion();
  point.walker_wait_mean = sim.stats().histograms().at("walker.queue_wait").mean();
  for (unsigned t = 0; t < threads; ++t) {
    i64 sum = 0;
    auto& done = system->process().mailbox(app.mailbox_index("done" + std::to_string(t)));
    if (!done.try_get(sum) || sum != sums[t])
      throw std::runtime_error("abl4: thread t" + std::to_string(t) + " returned the wrong sum");
  }
  return point;
}
}  // namespace

int main() {
  Table table({"threads", "walk ports", "makespan", "walker wait", "speedup"});
  for (unsigned threads : {2u, 4u}) {
    const auto one = run_threads(threads, 1);
    for (unsigned ports : {1u, 2u, 4u}) {
      const auto pt = (ports == 1) ? one : run_threads(threads, ports);
      table.add_row({Table::num(static_cast<u64>(threads)), Table::num(static_cast<u64>(ports)),
                     Table::num(pt.makespan), Table::num(pt.walker_wait_mean, 1),
                     Table::num(static_cast<double>(one.makespan) /
                                    static_cast<double>(pt.makespan),
                                2)});
    }
  }
  table.print(std::cout, "Ablation A4: walker ports under concurrent misses (2-entry TLBs)");
  return 0;
}
