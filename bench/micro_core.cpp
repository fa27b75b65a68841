// Host-side microbenchmarks for the simulator substrate itself.
//
// Not paper data: these measure how fast the host retires simulated work —
// event-queue throughput (the calendar-wheel fast path, the far-future heap
// fallback, and zero-allocation recycling), inline-completion translation,
// TLB lookups, IR execution rate, a hardware thread's TLB-hit load through
// its port, and end-to-end fig-style workload runs —
// to keep the experiment harness fast enough for wide DSE sweeps.
//
// Prints host rates as a table on stdout and writes BENCH_engine.json (see
// bench::EngineBenchReport for the schema). Informational: host rates
// depend on the host, so no test or CI job gates them.

#include <algorithm>
#include <iostream>
#include <utility>

#include "bench_util.hpp"
#include "hwt/builder.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "mem/frames.hpp"
#include "mem/mmu.hpp"
#include "mem/pagetable.hpp"
#include "mem/physmem.hpp"
#include "mem/tlb.hpp"
#include "sim/simulator.hpp"
#include "sls/dse.hpp"
#include "util/table.hpp"

namespace {

using namespace vmsls;

using bench::batch;
using bench::kMinSampleMs;
using bench::measure;
using bench::Rate;
constexpr int kPairRounds = 16;  // alternating batch pairs in measure_pair

/// Measures two bodies for a ratio between them: after sizing a batch of
/// each at kMinSampleMs / 4, the batches alternate kPairRounds times, so
/// host drift lands on both sides alike, and each side reports its best
/// batch.
template <typename F, typename G>
std::pair<Rate, Rate> measure_pair(u64 items, F&& a, G&& b) {
  const u64 reps_a = std::max<u64>(1, measure(items, a).reps / 4);
  const u64 reps_b = std::max<u64>(1, measure(items, b).reps / 4);
  std::pair<Rate, Rate> best;
  for (int i = 0; i < kPairRounds; ++i) {
    const Rate ra = batch(items, reps_a, a);
    const Rate rb = batch(items, reps_b, b);
    if (ra.items_per_sec > best.first.items_per_sec) best.first = ra;
    if (rb.items_per_sec > best.second.items_per_sec) best.second = rb;
  }
  return best;
}

/// Old BM_EventQueueScheduleRun shape: schedule n events with small mixed
/// delays, then drain. Exercises the wheel + node recycling.
Rate bench_event_queue(u64 n) {
  Cycles covered = 0;
  Rate r = measure(n, [n, &covered] {
    sim::Simulator sim;
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i) sim.schedule_in(i % 97, [&sink] { ++sink; });
    sim.run();
    if (sink != n) throw std::runtime_error("event sink mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Steady-state pipeline: a fixed population of self-rescheduling events,
/// the shape of a running SoC simulation (every pop feeds a push).
Rate bench_event_steady(u64 population, u64 rounds) {
  const u64 total = population * rounds;
  Cycles covered = 0;
  Rate r = measure(total, [population, rounds, total, &covered] {
    sim::Simulator sim;
    u64 fired = 0;
    struct Chain {
      sim::Simulator& sim;
      u64& fired;
      u64 budget;
      void operator()() {
        ++fired;
        if (--budget > 0) sim.schedule_in(1 + (budget % 13), *this);
      }
    };
    for (u64 i = 0; i < population; ++i)
      sim.schedule_in(i % 7, Chain{sim, fired, rounds});
    sim.run();
    if (fired != total) throw std::runtime_error("steady-state count mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// Far-future events beyond the wheel horizon: heap fallback + migration
/// ordering against near events.
Rate bench_event_far(u64 n) {
  Cycles covered = 0;
  Rate r = measure(2 * n, [n, &covered] {
    sim::Simulator sim;
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i) {
      sim.schedule_in(i % 97, [&sink] { ++sink; });
      sim.schedule_in(100'000 + (i % 977), [&sink] { ++sink; });
    }
    sim.run();
    if (sink != 2 * n) throw std::runtime_error("far event sink mismatch");
    covered = sim.now();
  });
  r.cycles = covered;
  return r;
}

/// The tracing-overhead pair: the event-queue loop bare (control) and
/// with the VMSLS_TRACE_* sites a traced component carries per event. With
/// no sink attached each site must cost one well-predicted branch; main()
/// gates the second rate against the first at 20% (an in-process ratio,
/// not an absolute rate).
std::pair<Rate, Rate> bench_event_trace_pair(u64 n) {
  Cycles ctl_covered = 0, off_covered = 0;
  auto control = [n, &ctl_covered] {
    sim::Simulator sim;
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i)
      sim.schedule_in(i % 97, [&sink] { ++sink; });
    sim.run();
    if (sink != n) throw std::runtime_error("trace control sink mismatch");
    ctl_covered = sim.now();
  };
  auto traced_off = [n, &off_covered] {
    sim::Simulator sim;
    const sim::TraceTrack track = sim.trace().track("bench");
    if (sim.trace().enabled())
      throw std::runtime_error("trace sink unexpectedly attached");
    u64 sink = 0;
    for (u64 i = 0; i < n; ++i)
      sim.schedule_in(i % 97, [&sim, &sink, track] {
        const u64 id = VMSLS_TRACE_NEW_ID(sim.trace());
        VMSLS_TRACE_BEGIN(sim.trace(), track, "ev", id);
        ++sink;
        VMSLS_TRACE_END(sim.trace(), track, "ev", id);
        VMSLS_TRACE_COUNTER(sim.trace(), track, "retired", static_cast<double>(sink));
      });
    sim.run();
    if (sink != n) throw std::runtime_error("traced-off sink mismatch");
    off_covered = sim.now();
  };
  auto rates = measure_pair(n, control, traced_off);
  rates.first.cycles = ctl_covered;
  rates.second.cycles = off_covered;
  return rates;
}

Rate bench_tlb_lookup(u64 n) {
  StatRegistry stats;
  mem::TlbConfig cfg;
  cfg.entries = 64;
  cfg.ways = 4;
  mem::Tlb tlb(cfg, stats, "t");
  for (u64 v = 0; v < 64; ++v) tlb.insert(v, v, true);
  return measure(n, [&tlb, n] {
    u64 acc = 0;
    for (u64 i = 0; i < n; ++i) {
      auto e = tlb.lookup(i % 64);
      acc += e ? e->frame : 0;
    }
    if (acc == ~0ull) throw std::runtime_error("unreachable");
  });
}

/// Pass-through translation: the inline-completion path must complete
/// without any scheduler traffic (asserted here, measured for rate).
/// One hardware thread's memory path over 16 MiB: page table, DRAM, bus,
/// walker and an MMU built from `mmu_cfg`.
struct MemPath {
  sim::Simulator sim;
  mem::PhysicalMemory pm{16 * MiB};
  mem::FrameAllocator frames{0, (16 * MiB) / (4 * KiB), 4 * KiB};
  mem::PageTable pt{pm, frames, mem::PageTableConfig{}};
  mem::DramModel dram{mem::DramConfig{}, sim.stats(), "dram"};
  mem::MemoryBus bus{sim, dram, mem::BusConfig{}, "bus"};
  mem::PageWalker walker{sim, bus, pm, pt, mem::WalkerConfig{}, "walker"};
  mem::Mmu mmu;

  explicit MemPath(const mem::MmuConfig& mmu_cfg) : mmu(sim, walker, mmu_cfg, "mmu", 0) {}
};

Rate bench_passthrough_translate(u64 n) {
  mem::MmuConfig mcfg;
  mcfg.translation_enabled = false;
  MemPath path(mcfg);
  sim::Simulator& sim = path.sim;
  mem::Mmu& mmu = path.mmu;
  const u64 scheduled_before = sim.events_scheduled();
  Rate r = measure(n, [&mmu, n] {
    u64 acc = 0;
    for (u64 i = 0; i < n; ++i) mmu.translate(i * 64, false, [&acc](PhysAddr pa) { acc += pa; });
    if (acc == ~0ull) throw std::runtime_error("unreachable");
  });
  if (sim.events_scheduled() != scheduled_before)
    throw std::runtime_error("pass-through translation leaked scheduler events");
  return r;
}

/// A hardware thread streaming `n` 8-byte loads over one resident page
/// through the full port (MMU, TLB, bus, DRAM): the TLB-hit memory op. Each
/// repetition runs a fresh engine on a warmed-up system, and throws if it
/// schedules more events than the same kernel with one load does, i.e. if
/// any access after warm-up goes through the event queue.
Rate bench_hwt_load_tlb_hit(u64 n) {
  MemPath path(mem::MmuConfig{});
  sim::Simulator& sim = path.sim;
  const VirtAddr page = 0x10000;
  path.pt.map(page, *path.frames.alloc(), /*writable=*/true);
  hwt::HwMemPort port(sim, path.mmu, path.bus, path.pm, hwt::HwPortConfig{}, "port");

  auto kernel = [page](u64 loads) {
    hwt::KernelBuilder kb("load_stream");
    kb.li(1, static_cast<i64>(page))
        .li(2, 0)
        .li(3, static_cast<i64>(loads))
        .li(6, 0)  // r6 = offset in the page
        .label("loop")
        .seq(4, 2, 3)
        .bnez(4, "out")
        .add(7, 1, 6)
        .load(5, 7)
        .addi(6, 6, 8)
        .andi(6, 6, 4095)
        .addi(2, 2, 1)
        .jmp("loop")
        .label("out")
        .halt();
    return kb.build();
  };
  // Events one run schedules, whatever its length.
  auto run_once = [&](const hwt::Kernel& k) {
    const u64 before = sim.events_scheduled();
    hwt::Engine engine(sim, k, hwt::EngineConfig{}, "eng");
    engine.attach_mem_port(0, &port);
    bool halted = false;
    engine.start([&halted] { halted = true; });
    sim.drain();
    if (!halted) throw std::runtime_error("load stream did not halt");
    return sim.events_scheduled() - before;
  };
  const hwt::Kernel one = kernel(1);
  run_once(one);  // warm-up: TLB fill, walker, pools
  const u64 per_run = run_once(one);
  const hwt::Kernel stream = kernel(n);
  return measure(n, [&] {
    if (run_once(stream) != per_run)
      throw std::runtime_error("a TLB-hit load after warm-up scheduled an event");
  });
}

Rate bench_engine_alu() {
  hwt::KernelBuilder kb("alu");
  kb.li(1, 0).li(2, 0).li(3, 1'000'000)
      .label("loop")
      .seq(4, 2, 3)
      .bnez(4, "out")
      .add(1, 1, 2)
      .addi(2, 2, 1)
      .jmp("loop")
      .label("out")
      .halt();
  const hwt::Kernel kernel = kb.build();
  u64 instructions = 0;
  Cycles covered = 0;
  Rate r = measure(1, [&kernel, &instructions, &covered] {
    sim::Simulator sim;
    hwt::Engine engine(sim, kernel, hwt::EngineConfig{}, "e");
    bool done = false;
    engine.start([&done] { done = true; });
    sim.run();
    if (!done) throw std::runtime_error("ALU kernel did not halt");
    instructions = engine.instructions_retired();
    covered = sim.now();
  });
  r.items = instructions;  // measure() counted one kernel run per repetition
  r.items_per_sec *= static_cast<double>(instructions);
  r.cycles = covered;
  return r;
}

bench::RunResult run_fig_style(const std::string& workload, u64 n) {
  workloads::WorkloadParams p;
  p.n = n;
  return bench::run_workload(workloads::make_workload(workload, p));
}

void run(const bench::Cli&) {
  bench::EngineBenchReport report;
  Table table({"section", "items/s", "host ms", "items"});
  auto row = [&](const std::string& name, const Rate& r) {
    table.add_row({name, Table::num(r.items_per_sec, 0), Table::num(r.host_ms, 1),
                   Table::num(r.items)});
    report.add(name, r.cycles, r.items, {}, 0, r.host_ms);
  };

  row("event_queue_1k", bench_event_queue(1024));
  row("event_queue_16k", bench_event_queue(16384));
  row("event_steady_64x4k", bench_event_steady(64, 4096));
  row("event_far_heap_4k", bench_event_far(4096));
  {
    const auto [ctl, off] = bench_event_trace_pair(16384);
    row("event_trace_ctl_16k", ctl);
    row("event_traced_off_16k", off);
    if (off.items_per_sec < 0.80 * ctl.items_per_sec)
      throw std::runtime_error("tracing-disabled overhead exceeds 20% of the control rate");
  }
  row("tlb_lookup_hit", bench_tlb_lookup(1 << 16));
  row("passthrough_translate", bench_passthrough_translate(1 << 14));
  row("engine_alu_instr", bench_engine_alu());
  const Rate load_hit = bench_hwt_load_tlb_hit(1 << 14);
  row("hwt_load_tlb_hit", load_hit);

  // End-to-end fig-style runs: simulated events per host second is the
  // number that bounds every sweep in bench/.
  for (const auto& [wl, n] : std::vector<std::pair<std::string, u64>>{
           {"matmul", 32}, {"pointer_chase", 8192}}) {
    const auto r = run_fig_style(wl, n);
    table.add_row({"fig_" + wl, Table::num(r.host_ms > 0 ? static_cast<double>(r.events) /
                                                               (r.host_ms / 1000.0)
                                                         : 0,
                                           0),
                   Table::num(r.host_ms, 1), Table::num(r.events)});
    report.add("fig_" + wl, r.cycles, r.events, r.work, 0, r.host_ms);
  }

  // Parallel DSE scaling (identical results by construction; the
  // determinism test asserts it — here we record wall-clock).
  {
    workloads::WorkloadParams p;
    p.n = 24;
    auto wl = workloads::make_workload("matmul", p);
    auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
    auto evaluate = [&wl](const sls::SystemImage& image) {
      sim::Simulator sim;
      return bench::run_image(wl, image, sim).cycles;
    };
    const std::vector<unsigned> candidates = {4, 8, 16, 32};
    for (unsigned threads : {1u, 4u}) {
      sls::DesignSpaceExplorer dse(sls::zynq7020());
      dse.set_threads(threads);
      bench::WallTimer t;
      const auto result = dse.explore_tlb(app, "worker", candidates, evaluate);
      const double ms = t.ms();
      const std::string name = "dse_tlb_" + std::to_string(threads) + "t";
      table.add_row({name, Table::num(static_cast<double>(candidates.size()) / (ms / 1000.0), 2),
                     Table::num(ms, 1), Table::num(static_cast<u64>(result.candidates.size()))});
      report.add(name, 0, result.candidates.size(), {}, 0, ms);
    }
  }

  table.print(std::cout, "Simulator substrate microbenchmarks");
  std::cout << "hwt_load_tlb_hit: " << Table::num(1e9 / load_hit.items_per_sec, 1)
            << " ns per memory op\n";
  report.write_json("BENCH_engine.json");
  std::cout << "wrote BENCH_engine.json\n";
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, "micro_core", 0, run); }
