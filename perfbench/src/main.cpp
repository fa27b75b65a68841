// perfbench — the repository benchmark. One workload per invocation:
//
//   perfbench --workload serve|tlb_sweep|oversub --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// A repetition runs the whole workload once: set-up (synthesis, elaboration,
// workload input set-up, cold eviction), the simulate phase, and every
// correctness check. The first repetition is the reference: it fixes the
// fingerprint (cycles, event counts, full stat snapshots) every later
// repetition must reproduce, and the memory high-water mark is read after
// it. The benchmark then repeats until `--seconds` have passed (at least
// three times) and reports host times as medians over those repetitions.
// Each of them runs on the next allowed CPU and is bracketed by a fixed
// calibration section; its host times are scaled to the calibration's
// reference speed. With --trace 1 the repetitions alternate untraced and
// traced (an in-memory TraceSink attached); traced ones must reproduce the
// fingerprint too, and supply the per-fault decomposition metrics.
//
// Workloads (inputs derive from --seed; model knobs stay fixed):
//
//   serve      fig15's serving platform: four ProcessGroup workers, each
//              with a 20-frame budget over a 48-page arena, one shared FIFO
//              swap device, CLOCK, Poisson arrivals into a 64-deep queue.
//              Every point of a fixed grid of mean gaps runs every time, so
//              host work does not depend on where the knee lands. Open loop
//              in simulated time: latency counts from each request's
//              scheduled arrival, so generator lateness is 0 by
//              construction. Exercises the pager, swap scheduler and
//              functional memory; no MMU, TLB, walker, bus, DRAM or
//              hardware-thread interpreter runs.
//   tlb_sweep  the paper's flow: DesignSpaceExplorer::explore_tlb on
//              zynq7020 over TLB sizes {4..64} for pointer_chase, spmv and
//              matmul, virtually addressed with every buffer resident, over
//              several seeded input sets. Each candidate is synthesized,
//              elaborated, run and verified. The pager stays inert. Closed
//              batch.
//   oversub    fig10's shape: cold-started hash_join, pointer_chase, bfs and
//              saxpy on zynq7045 sharing one global CLOCK frame pool at 250%
//              over-subscription and one swap device, as many seeded mixes.
//              Faults come from the MMU through the walker and the OS fault
//              handler; victims can belong to another process. Closed batch.
//
// headline_cycles is each workload's simulated headline: req_p99_cycles on
// serve, best_cycles on tlb_sweep, makespan_cycles on oversub. Layers a
// workload bypasses report zero counts.
//
// Predicted interactions (the baseline later changes are judged against):
//   * swap queueing rises at req_p99_cycles_hi before max_qps_mcycle moves,
//     and max_qps_mcycle moves only when the knee crosses a grid step;
//   * oversub's makespan is set by its slowest process, so cross-process
//     evictions that land on one process move makespan_cycles;
//   * a host-only speed-up leaves every simulated metric identical.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// every metric computed in this mode ({"value", "unit"}). The exit code is
// non-zero when any check failed.

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arith.hpp"
#include "fault_trace.hpp"
#include "host_spans.hpp"
#include "sls/dse.hpp"
#include "sls/process_group.hpp"
#include "sls/traffic.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

using namespace vmsls;
namespace pb = perfbench;

namespace {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One repetition of a workload.
struct Rep {
  std::uint64_t run = 0;  ///< host-span run id
  /// Host seconds by phase ("setup", "run") and layer ("sls.synthesize",
  /// "sls.elaborate", "workloads.setup", "workloads.verify"), scaled to the
  /// reference calibration speed (see calibrate()).
  std::map<std::string, double> host;
  u64 events = 0;       ///< simulate-phase events over every simulator
  StatRegistry stats;   ///< every simulator's registry, merged
  Metrics sim;          ///< workload-specific simulated metrics
  std::string fingerprint;  ///< what every repetition must reproduce
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }

  /// Folds one finished simulator into the repetition: its registry joins
  /// the merged stats, and its snapshot, cycles and events join the
  /// fingerprint.
  void absorb(sim::Simulator& sim, Cycles cycles, u64 run_events) {
    stats.merge(sim.stats());
    events += run_events;
    std::ostringstream fp;
    fp.precision(17);
    fp << "cycles=" << cycles << " events=" << sim.events_executed() << "\n";
    for (const auto& [name, value] : sim.stats().snapshot()) fp << name << '=' << value << '\n';
    fingerprint += fp.str();
  }
};

struct Context {
  u64 seed = 0;
  pb::HostSpans& spans;
  pb::FaultSpanSink* sink = nullptr;  ///< set on traced repetitions
  Rep& rep;

  void attach(sim::Simulator& sim) const {
    if (sink != nullptr) sink->attach(sim);
  }
};

/// Stat prefix of group member i ("p0", "p1", ...).
std::string instance_name(std::size_t i) {
  std::string name = "p";
  name += std::to_string(i);  // not "p" + ...: GCC 12 warns falsely (-Wrestrict) on that
  return name;
}

/// Independent input stream `stream` of benchmark seed `seed`.
u64 derive_seed(u64 seed, u64 stream) { return Rng(seed ^ (0x9E3779B97F4A7C15ull * (stream + 1))).next(); }

// --- serve ------------------------------------------------------------------

struct RatePointSpec {
  Cycles gap;    ///< mean inter-arrival gap, cycles
  u64 requests;  ///< >= 1000, so a p99 has >= 10 samples beyond it
};
// Light load to past the knee. The reference point carries the headline
// p99, and its request count keeps that p99's spread across seeds small.
constexpr std::array<RatePointSpec, 6> kServeGrid = {
    {{10000, 2000}, {7000, 2000}, {5000, 20000}, {3500, 2000}, {2500, 2000}, {1800, 2000}}};
constexpr Cycles kRefGap = 5000;  // reference load: req_p50/p99_cycles
constexpr Cycles kHiGap = 3500;   // near the knee: req_p99_cycles_hi
constexpr Cycles kP99Bound = 60000;
constexpr unsigned kServeWorkers = 4;

sls::PlatformSpec serve_platform(const RatePointSpec& point, u64 arrival_seed) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = 7;
  plat.pager.swap.shared = true;
  plat.pager.swap.sched = paging::SwapSchedPolicy::kFifo;
  plat.pager.swap.read_latency = 60;
  plat.pager.swap.write_latency = 120;
  plat.pager.swap.bytes_per_cycle = 64;
  plat.traffic.arrival.kind = sim::ArrivalConfig::Kind::kPoisson;
  plat.traffic.arrival.mean_gap = point.gap;
  plat.traffic.arrival.seed = arrival_seed;
  plat.traffic.requests = point.requests;
  plat.traffic.queue_capacity = 64;
  plat.traffic.episode_touches = 24;
  plat.traffic.arena_pages = 48;
  plat.traffic.touch_cost = 20;
  plat.traffic.write_ratio = 0.25;
  return plat;
}

std::string count_note(std::size_t n, double q) {
  return "n=" + std::to_string(n) + ", " + std::to_string(pb::samples_beyond(n, q)) +
         " beyond";
}

void run_serve(Context& ctx) {
  Rep& rep = ctx.rep;
  pb::HostSpans& spans = ctx.spans;
  std::vector<pb::RatePoint> grid;
  u64 rejected = 0;
  u64 peak_resident = 0;
  for (const RatePointSpec& point : kServeGrid) {
    const Cycles gap = point.gap;
    sim::Simulator sim;
    ctx.attach(sim);
    const sls::PlatformSpec plat = serve_platform(point, derive_seed(ctx.seed, gap));
    paging::FramePoolConfig pool_cfg;
    pool_cfg.mode = paging::BudgetMode::kPerProcess;
    pool_cfg.policy = plat.pager.policy;
    pool_cfg.policy_seed = 7;

    // Tiny images: a worker's engine never runs; its serving episodes are
    // driven through the pager.
    const auto wls = spans.time("workloads.setup", [&] {
      std::vector<workloads::Workload> out;
      for (unsigned i = 0; i < kServeWorkers; ++i) {
        workloads::WorkloadParams p;
        p.n = 64;
        p.seed = 1 + i;
        out.push_back(workloads::make_vecadd(p));
      }
      return out;
    });
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = 20;
    const auto images = spans.time("sls.synthesize", [&] {
      std::vector<sls::SystemImage> out;
      sls::SynthesisFlow flow(proc_plat);
      for (const auto& wl : wls)
        out.push_back(flow.synthesize(workloads::single_thread_app(wl, sls::ThreadKind::kHardware)));
      return out;
    });
    auto group = spans.time("sls.elaborate", [&] {
      auto g = std::make_unique<sls::ProcessGroup>(sim, plat, pool_cfg);
      for (std::size_t i = 0; i < images.size(); ++i)
        g->add_process(images[i], instance_name(i));
      return g;
    });
    auto traffic = spans.time("sls.elaborate", [&] {
      return std::make_unique<sls::TrafficDriver>(*group, plat.traffic);
    });

    const u64 ev0 = sim.events_executed();
    const sls::TrafficDriver::Report r = spans.time("run", [&] { return traffic->run(); });
    const u64 run_events = sim.events_executed() - ev0;

    spans.time("workloads.verify", [&] {
      const std::string at = "serve gap " + std::to_string(gap) + ": ";
      rep.check(r.arrivals == point.requests, at + "arrivals != configured requests");
      rep.check(r.admitted + r.rejected == r.arrivals, at + "admitted + rejected != arrivals");
      rep.check(r.completed == r.admitted, at + "completed != admitted");
      rep.check(r.latency.size() == r.completed && r.queue_wait.size() == r.completed &&
                    r.service.size() == r.completed,
                at + "per-request samples != completions");
      bool split = true;
      for (std::size_t i = 0; i < r.latency.size() && split; ++i)
        split = r.latency[i] == r.queue_wait[i] + r.service[i];
      rep.check(split, at + "latency != queue_wait + service");
      rep.check(traffic->queue_depth() == 0, at + "admission queue not drained");
      rep.check(traffic->busy_workers() == 0, at + "workers busy after drain");
      rep.check(group->shared_swap() != nullptr && group->shared_swap()->queue_depth() == 0,
                at + "swap queue not drained");
      rep.check(sim.idle(), at + "event queue not drained");
      rep.attempted += r.arrivals;  // every request is an operation
      rep.absorb(sim, r.span, run_events);
      std::ostringstream lat;
      for (const Cycles c : r.latency) lat << c << ',';
      rep.fingerprint += lat.str() + '\n';
    });

    pb::RatePoint pt;
    pt.mean_gap = static_cast<double>(gap);
    pt.p99 = static_cast<double>(pb::nearest_rank(r.latency, 0.99));
    pt.rejected = static_cast<double>(r.rejected);
    pt.qps_mcycle = r.qps_mcycle();
    grid.push_back(pt);
    rejected += r.rejected;
    peak_resident = std::max(peak_resident, group->pool().peak_resident_pages());

    if (gap == kRefGap) {
      rep.sim["req_p50_cycles"] = {static_cast<double>(pb::nearest_rank(r.latency, 0.50)), "cycles"};
      rep.sim["req_p99_cycles"] = {pt.p99, "cycles"};
      rep.sim["traffic.queue_wait_p99_cycles"] = {
          static_cast<double>(pb::nearest_rank(r.queue_wait, 0.99)), "cycles"};
      rep.sim["traffic.service_p50_cycles"] = {
          static_cast<double>(pb::nearest_rank(r.service, 0.50)), "cycles"};
      rep.sim["traffic.service_p99_cycles"] = {
          static_cast<double>(pb::nearest_rank(r.service, 0.99)), "cycles"};
      rep.sim["traffic.peak_queue"] = {static_cast<double>(r.peak_queue), "count"};
      rep.sim["traffic.ref_completions"] = {static_cast<double>(r.completed), "count"};
    }
    if (gap == kHiGap) {
      rep.sim["req_p99_cycles_hi"] = {pt.p99, "cycles"};
      rep.sim["traffic.hi_completions"] = {static_cast<double>(r.completed), "count"};
    }
    rep.sim["traffic.gap" + std::to_string(gap) + ".p99_cycles"] = {pt.p99, "cycles"};
    rep.sim["traffic.gap" + std::to_string(gap) + ".rejected"] = {pt.rejected, "count"};
  }

  const int best = pb::max_qps_point(grid, static_cast<double>(kP99Bound));
  rep.check(best >= 0, "serve: no grid point meets p99 < bound without rejections");
  rep.sim["max_qps_mcycle"] = {best >= 0 ? grid[static_cast<std::size_t>(best)].qps_mcycle : 0.0,
                               "req/Mcycle"};
  rep.sim["headline_cycles"] = rep.sim["req_p99_cycles"];
  rep.sim["traffic.rejected"] = {static_cast<double>(rejected), "count"};
  rep.sim["pool.peak_resident_pages"] = {static_cast<double>(peak_resident), "count"};
}

// --- tlb_sweep --------------------------------------------------------------

struct Kernel {
  const char* name;
  u64 n;
};
// fig4's knee kernels (pointer_chase: a 64-page footprint) plus one
// streaming kernel.
constexpr std::array<Kernel, 3> kTlbKernels = {{{"pointer_chase", 8192}, {"spmv", 1024}, {"matmul", 48}}};
const std::vector<unsigned> kTlbSizes = {4, 8, 16, 32, 64};
// Seeded input sets swept per kernel. spmv's cycles are bimodal across
// seeds (about 25% apart); summing several sets keeps best_cycles' spread
// across seeds small.
constexpr std::size_t kTlbInputSets = 4;

void run_tlb_sweep(Context& ctx) {
  Rep& rep = ctx.rep;
  pb::HostSpans& spans = ctx.spans;
  Cycles best_cycles = 0;
  u64 candidates = 0;
  u64 fits = 0;
  for (std::size_t run = 0; run < kTlbInputSets * kTlbKernels.size(); ++run) {
    const Kernel& kernel = kTlbKernels[run % kTlbKernels.size()];
    workloads::WorkloadParams p;
    p.n = kernel.n;
    p.seed = derive_seed(ctx.seed, run);
    const workloads::Workload wl =
        spans.time("workloads.setup", [&] { return workloads::make_workload(kernel.name, p); });
    const sls::AppSpec app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);

    sls::DesignSpaceExplorer dse(sls::zynq7020());
    dse.set_threads(1);
    const auto evaluate = [&](const sls::SystemImage& image) {
      return spans.time("sls.evaluate", [&] {
        sim::Simulator sim;
        ctx.attach(sim);
        auto system = spans.time("sls.elaborate", [&] { return image.elaborate(sim); });
        spans.time("workloads.setup", [&] { wl.setup(*system); });
        const u64 ev0 = sim.events_executed();
        const Cycles cycles = spans.time("run", [&] {
          system->start_all();
          return system->run_to_completion();
        });
        const u64 run_events = sim.events_executed() - ev0;
        spans.time("workloads.verify", [&] {
          rep.check(wl.verify(*system), std::string("tlb_sweep: ") + kernel.name +
                                             " candidate failed verification");
          rep.attempted += 1;  // the candidate run itself
          rep.absorb(sim, cycles, run_events);
        });
        return cycles;
      });
    };
    const sls::DseResult result = spans.time(
        "sls.explore", [&] { return dse.explore_tlb(app, "worker", kTlbSizes, evaluate); });

    bool all_scored = true;
    for (const sls::DseCandidate& c : result.candidates) {
      all_scored = all_scored && c.fits && c.measured;
      fits += c.fits ? 1 : 0;
    }
    candidates += result.candidates.size();
    rep.check(all_scored, std::string("tlb_sweep: ") + kernel.name + " left a candidate unscored");
    rep.check(result.best >= 0, std::string("tlb_sweep: ") + kernel.name + " chose no candidate");
    if (result.best >= 0) best_cycles += result.candidates[static_cast<std::size_t>(result.best)].cycles;
  }
  rep.sim["best_cycles"] = {static_cast<double>(best_cycles), "cycles"};
  rep.sim["headline_cycles"] = rep.sim["best_cycles"];
  rep.sim["dse.candidates"] = {static_cast<double>(candidates), "count"};
  rep.sim["dse.fit_frac"] = {pb::ratio(static_cast<double>(fits), static_cast<double>(candidates)),
                             "ratio"};
}

// --- oversub ----------------------------------------------------------------

constexpr std::array<const char*, 4> kOversubKernels = {"hash_join", "pointer_chase", "bfs", "saxpy"};
constexpr u64 kOversubN = 512;
constexpr u64 kOversubPct = 250;
// Seeded mixes per repetition. One mix's makespan varies by about a third
// across seeds, with a long tail (CLOCK under 250% pressure is chaotic);
// the median over many mixes is what stays comparable from seed to seed.
constexpr std::size_t kOversubMixes = 96;

struct MixResult {
  Cycles makespan = 0;
  u64 peak_resident = 0;
};

MixResult run_mix(Context& ctx, std::size_t mix) {
  Rep& rep = ctx.rep;
  pb::HostSpans& spans = ctx.spans;
  const u64 page = 4 * KiB;
  auto wls = spans.time("workloads.setup", [&] {
    std::vector<workloads::Workload> out;
    for (std::size_t i = 0; i < kOversubKernels.size(); ++i) {
      workloads::WorkloadParams p;
      p.n = kOversubN;
      p.seed = derive_seed(ctx.seed, mix * kOversubKernels.size() + i);
      out.push_back(workloads::make_workload(kOversubKernels[i], p));
    }
    return out;
  });
  u64 ws_pages = 0;
  for (const auto& wl : wls)
    for (const auto& buf : wl.buffers) ws_pages += ceil_div(buf.bytes, page);

  sls::PlatformSpec plat = sls::zynq7045();
  plat.pager.budget_mode = paging::BudgetMode::kGlobal;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = 7;
  plat.pager.frame_budget = 0;  // the global pool enforces the budget
  plat.pager.swap.shared = true;
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kGlobal;
  pool_cfg.total_frames = ws_pages * 100 / kOversubPct;
  pool_cfg.policy = paging::PolicyKind::kClock;
  pool_cfg.policy_seed = 7;

  sim::Simulator sim;
  ctx.attach(sim);
  auto group = spans.time("sls.elaborate",
                          [&] { return std::make_unique<sls::ProcessGroup>(sim, plat, pool_cfg); });
  for (std::size_t i = 0; i < wls.size(); ++i) {
    const sls::SystemImage image = spans.time("sls.synthesize", [&] {
      sls::SynthesisFlow flow(plat);
      return flow.synthesize(workloads::single_thread_app(wls[i], sls::ThreadKind::kHardware));
    });
    sls::System& system = spans.time("sls.elaborate", [&]() -> sls::System& {
      return group->add_process(image, instance_name(i));
    });
    spans.time("workloads.setup", [&] {
      wls[i].setup(system);
      // Cold start: every buffer page returns through the timed fault path.
      for (const auto& buf : system.image().app().buffers)
        system.process().evict(system.buffer(buf.name), buf.bytes);
    });
  }
  group->pool().reset_peak_residency();

  const u64 ev0 = sim.events_executed();
  MixResult out;
  out.makespan = spans.time("run", [&] {
    group->start_all();
    const Cycles c = group->run_to_completion();
    group->drain();  // trailing writebacks retire before the checks
    return c;
  });
  const u64 run_events = sim.events_executed() - ev0;
  // Before verification: verify's functional reads re-map evicted pages
  // outside the budgeted fault path.
  out.peak_resident = group->pool().peak_resident_pages();

  spans.time("workloads.verify", [&] {
    const std::string at = "oversub mix " + std::to_string(mix) + ": ";
    for (std::size_t i = 0; i < wls.size(); ++i) {
      rep.check(wls[i].verify(group->process(i)),
                at + wls[i].name + " (p" + std::to_string(i) + ") failed verification");
      rep.attempted += 1;  // the process run itself
    }
    rep.check(group->shared_swap() != nullptr && group->shared_swap()->queue_depth() == 0,
              at + "swap queue not drained");
    rep.check(sim.idle(), at + "event queue not drained");
    rep.absorb(sim, out.makespan, run_events);
  });
  return out;
}

void run_oversub(Context& ctx) {
  std::vector<double> makespans;
  u64 peak_resident = 0;
  for (std::size_t mix = 0; mix < kOversubMixes; ++mix) {
    const MixResult r = run_mix(ctx, mix);
    makespans.push_back(static_cast<double>(r.makespan));
    peak_resident = std::max(peak_resident, r.peak_resident);
  }
  Rep& rep = ctx.rep;
  rep.sim["makespan_cycles"] = {pb::median(makespans), "cycles"};
  rep.sim["headline_cycles"] = rep.sim["makespan_cycles"];
  rep.sim["pool.peak_resident_pages"] = {static_cast<double>(peak_resident), "count"};
}

// --- measurement ------------------------------------------------------------

using WorkloadFn = void (*)(Context&);

WorkloadFn lookup(const std::string& name) {
  if (name == "serve") return run_serve;
  if (name == "tlb_sweep") return run_tlb_sweep;
  if (name == "oversub") return run_oversub;
  return nullptr;
}

/// Seconds calibrate() takes at the reference speed. Host times are
/// reported scaled by kCalibrationSeconds / (calibration time measured around
/// the repetition), so a repetition that ran while the host was slow counts
/// closer to its quiet-host time.
constexpr double kCalibrationSeconds = 0.05;

// Calibration work shaped like the simulator's hot loop — indirect calls
// spread over a large code footprint plus hashed chunk lookups — but using
// no simulator code, so a change to the simulator cannot move it. Host
// slowdowns here hit that shape harder than they hit tight loops: over 120
// alternations on a 4-core VM, its time correlated 0.7-0.8 with a fixed
// simulation's, against about 0.6 for a hash-map/pointer-walk/sort loop.
template <int N>
[[gnu::noinline]] u64 calibration_op(u64 v) {
  v ^= v >> (N % 31 + 1);
  v *= 0x9E3779B97F4A7C15ull + N;
  if (v & (1ull << (N % 60)))
    v += N * 7;
  else
    v -= N * 3;
  for (int i = 0; i < N % 5; ++i) v = (v << 1) ^ (v >> 3) ^ static_cast<u64>(N);
  return v;
}

template <int... Is>
constexpr auto calibration_table(std::integer_sequence<int, Is...>) {
  return std::array<u64 (*)(u64), sizeof...(Is)>{&calibration_op<Is>...};
}

/// Fixed host work; returns its duration in seconds.
double calibrate() {
  static constexpr auto kOps = calibration_table(std::make_integer_sequence<int, 768>{});
  const auto t0 = std::chrono::steady_clock::now();
  u64 x = 12345;
  u64 v = 1;
  std::unordered_map<u64, std::vector<u8>> chunks;
  for (int i = 0; i < 1500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = kOps[x % kOps.size()](v ^ x);
    if ((i & 15) == 0) {
      std::vector<u8>& chunk = chunks[x & 0x3FFF];
      if (chunk.empty()) chunk.resize(64);
      chunk[v & 63] += 1;
    }
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return v == 0 ? secs + 1e-12 : secs;  // consumes v so the work stays
}

/// Moves the calling thread to the next allowed CPU. Host noise here is
/// per CPU and lasts seconds; rotating repetitions over CPUs samples more
/// of it per run, which steadies the median. Still one thread.
void rotate_cpu(std::uint64_t run) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  static const cpu_set_t initial = allowed;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &initial)) cpus.push_back(c);
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[run % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

/// Runs one repetition. A calibrated repetition is bracketed by two
/// calibrations and its host times are scaled by their mean; the reference
/// repetition is not, so the reported memory high-water mark is the
/// workload's alone.
Rep run_rep(WorkloadFn fn, u64 seed, pb::HostSpans& spans, pb::FaultSpanSink* sink,
            bool calibrated) {
  Rep rep;
  rep.run = spans.next_run();
  double calib = 0.0;
  if (calibrated) {
    rotate_cpu(rep.run);
    calib += spans.time("calibrate", calibrate);
  }
  Context ctx{seed, spans, sink, rep};
  try {
    fn(ctx);
  } catch (const std::exception& e) {
    rep.check(false, std::string("exception: ") + e.what());
  }
  if (calibrated) calib += spans.time("calibrate", calibrate);
  const double scale = calibrated ? kCalibrationSeconds / (0.5 * calib) : 1.0;

  // Explorer self time: explore_tlb minus the evaluator calls inside it.
  double synth_self = 0.0;
  for (const pb::Interval& explore : spans.intervals(rep.run, "sls.explore"))
    synth_self += pb::self_time(explore, spans.intervals(rep.run, "sls.evaluate"));
  rep.host["sls.synthesize"] = spans.total(rep.run, "sls.synthesize") + synth_self;
  for (const char* name : {"sls.elaborate", "workloads.setup", "workloads.verify", "run"})
    rep.host[name] = spans.total(rep.run, name);
  rep.host["setup"] =
      rep.host["sls.synthesize"] + rep.host["sls.elaborate"] + rep.host["workloads.setup"];
  for (auto& [name, secs] : rep.host) secs *= scale;
  rep.host["calibration"] = 0.5 * calib;  // measured, unscaled
  return rep;
}

/// This process's resident-set high-water mark (VmHWM), MiB. Unlike
/// getrusage's ru_maxrss it does not inherit the parent's peak across exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Per-layer counts and ratios of one repetition's merged registry.
void layer_metrics(const Rep& rep, double run_s, Metrics& m) {
  const pb::Snapshot s = rep.stats.snapshot();
  const auto count = [&](const std::string& name, const std::string& pattern) {
    m[name] = {pb::sum_stat(s, pattern), "count"};
  };
  const auto mean = [&](const std::string& name, const std::string& pattern) {
    m[name] = {pb::hist_mean(s, pattern), "cycles"};
  };
  const auto share = [&](const std::string& name, double num, double den) {
    m[name] = {pb::ratio(num, den), "ratio"};
  };
  const double events = static_cast<double>(rep.events);
  m["sim.events"] = {events, "count"};
  m["sim.ns_per_event"] = {pb::ratio(run_s * 1e9, events), "ns"};

  count("hwt.instructions", "hwt.*.instructions");
  count("hwt.mem_ops", "hwt.*.mem_ops");
  mean("hwt.mem_latency_mean_cycles", "hwt.*.mem_latency");

  count("mmu.translations", "hwt.*.mmu.translations");
  const double tlb_hits = pb::sum_stat(s, "hwt.*.mmu.tlb.hits");
  const double tlb_misses = pb::sum_stat(s, "hwt.*.mmu.tlb.misses");
  share("mmu.tlb_miss_ratio", tlb_misses, tlb_hits + tlb_misses);
  share("mmu.inline_frac", pb::sum_stat(s, "hwt.*.mmu.inline_completions"),
        m["mmu.translations"].value);
  count("walker.walks", "walker.walks");
  count("walker.mem_reads", "walker.mem_reads");
  const double wc_hits = pb::sum_stat(s, "walker.cache_hits");
  share("walker.cache_hit_ratio", wc_hits, wc_hits + pb::sum_stat(s, "walker.cache_misses"));
  mean("walker.walk_latency_mean_cycles", "walker.walk_latency");
  mean("walker.queue_wait_mean_cycles", "walker.queue_wait");
  count("walker.ad_writebacks", "walker.ad_writebacks");

  count("bus.requests", "bus.requests");
  m["bus.bytes"] = {pb::sum_stat(s, "bus.bytes"), "bytes"};
  mean("bus.queue_wait_mean_cycles", "bus.queue_wait");
  const double row_hits = pb::sum_stat(s, "dram.row_hits");
  share("dram.row_hit_ratio", row_hits, row_hits + pb::sum_stat(s, "dram.row_misses"));

  count("pager.faults", "pager.fault_stall.count");
  count("pager.evictions", "pager.evictions");
  count("pager.writebacks", "pager.writebacks");
  count("pager.swap_ins", "pager.swap_ins");
  share("pager.dirty_evict_ratio", m["pager.writebacks"].value, m["pager.evictions"].value);
  mean("pager.fault_stall_mean_cycles", "pager.fault_stall");
  m["pager.host_us_per_fault"] = {pb::ratio(run_s * 1e6, m["pager.faults"].value), "us"};
  count("pool.evictions", "pool.evictions");
  count("pool.cross_evictions", "pool.cross_evictions");
  count("swap.reads", "swap.reads");
  count("swap.writes", "swap.writes");
  mean("swap.queue_wait_mean_cycles", "swap.queue_wait");
  m["swap.queue_depth_max"] = {pb::hist_max(s, "swap.sched.queue_depth"), "count"};

  count("os.services", "os.services");
  m["os.busy_cycles"] = {pb::sum_stat(s, "os.busy_cycles"), "cycles"};
  mean("os.queue_wait_mean_cycles", "os.queue_wait");
  mean("faults.latency_mean_cycles", "faults.latency");

  // Layers a workload bypasses report zeros, not absences.
  for (const char* name :
       {"pool.peak_resident_pages", "dse.candidates", "traffic.peak_queue", "traffic.rejected"})
    m[name] = {0.0, "count"};
  for (const char* name : {"traffic.queue_wait_p99_cycles", "traffic.service_p50_cycles",
                           "traffic.service_p99_cycles", "req_p50_cycles", "req_p99_cycles",
                           "req_p99_cycles_hi", "best_cycles", "makespan_cycles"})
    m[name] = {0.0, "cycles"};
  m["dse.fit_frac"] = {0.0, "ratio"};
  m["max_qps_mcycle"] = {0.0, "req/Mcycle"};
  for (const auto& [name, metric] : rep.sim) m[name] = metric;
}

void trace_metrics(const pb::FaultSpanSink::Samples& t, Metrics& m) {
  const double faults = static_cast<double>(t.fault.size());
  m["trace.fault_evict_cycles_mean"] = {pb::ratio(t.evict_sum, faults), "cycles"};
  m["trace.fault_queue_cycles_mean"] = {pb::ratio(t.queue_sum, faults), "cycles"};
  m["trace.fault_io_cycles_mean"] = {pb::ratio(t.io_sum, faults), "cycles"};
  m["trace.fault_cycles_p99"] = {static_cast<double>(pb::nearest_rank(t.fault, 0.99)), "cycles"};
  m["trace.faults"] = {faults, "count"};
  double service = 0.0;
  for (const Cycles c : t.os_service) service += static_cast<double>(c);
  m["trace.os_service_cycles_mean"] = {
      pb::ratio(service, static_cast<double>(t.os_service.size())), "cycles"};
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || val.empty() || !(opt.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (arg == "--spans-out") {
      opt.spans_out = val;
    } else {
      return false;
    }
  }
  return lookup(opt.workload) != nullptr;
}

std::string json_number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload serve|tlb_sweep|oversub --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\n";
    return 2;
  }
  const WorkloadFn fn = lookup(opt.workload);
  pb::HostSpans spans;

  // The reference repetition: warms caches and lazy set-up, fixes the
  // fingerprint every later repetition must reproduce, and bounds the
  // reported memory high-water mark to one repetition's worth.
  const Rep reference = run_rep(fn, opt.seed, spans, nullptr, false);
  const double rss_mib = peak_rss_mib();
  u64 attempted = reference.attempted;
  u64 failed = reference.failed;
  std::vector<std::string> failures = reference.failures;

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::unique_ptr<pb::FaultSpanSink> sink;
  const double t0 = spans.now();
  const auto more = [&] {
    if (failed != 0) return false;
    if (plain.size() < 3 || (opt.trace && traced.size() < 2)) return true;
    return spans.now() - t0 < opt.seconds;
  };
  while (more()) {
    const bool trace_this = opt.trace && traced.size() < plain.size();
    std::unique_ptr<pb::FaultSpanSink> fresh;
    if (trace_this) fresh = std::make_unique<pb::FaultSpanSink>();
    Rep rep = run_rep(fn, opt.seed, spans, fresh.get(), true);
    rep.check(rep.fingerprint == reference.fingerprint,
              std::string(trace_this ? "traced" : "untraced") + " repetition " +
                  std::to_string(rep.run) +
                  " differs from the reference (cycles, events or stat snapshot)");
    attempted += rep.attempted;
    failed += rep.failed;
    failures.insert(failures.end(), rep.failures.begin(), rep.failures.end());
    if (trace_this) {
      if (!sink) sink = std::move(fresh);
      traced.push_back(std::move(rep));
    } else {
      plain.push_back(std::move(rep));
    }
  }

  const auto host = [](const std::vector<Rep>& reps, const std::string& name) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.host.at(name));
    return pb::median(v);
  };
  const double run_s = host(plain, "run");

  Metrics m;
  layer_metrics(reference, run_s, m);
  m["setup_s"] = {host(plain, "setup"), "s"};
  m["run_s"] = {run_s, "s"};
  m["peak_rss_mb"] = {rss_mib, "MiB"};
  m["fail_frac"] = {pb::ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"};
  m["sls.synthesize_s"] = {host(plain, "sls.synthesize"), "s"};
  m["sls.elaborate_s"] = {host(plain, "sls.elaborate"), "s"};
  m["workloads.setup_s"] = {host(plain, "workloads.setup"), "s"};
  m["workloads.verify_s"] = {host(plain, "workloads.verify"), "s"};
  m["bench.repetitions"] = {static_cast<double>(plain.size()), "count"};
  m["bench.calibration_s"] = {host(plain, "calibration"), "s"};
  if (opt.trace && sink) {
    trace_metrics(sink->samples(), m);
    m["trace.overhead_frac"] = {pb::ratio(host(traced, "run"), run_s) - 1.0, "ratio"};
  }

  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed << " trace=" << opt.trace
            << " repetitions=" << plain.size() << " untraced + " << traced.size()
            << " traced (after 1 reference)\n";
  for (const auto& [name, metric] : m)
    std::cout << "  " << std::left << std::setw(36) << name << " " << std::setw(22)
              << json_number(metric.value) << " " << metric.unit << "\n";
  if (opt.workload == "serve") {
    const auto completions = [&](const char* key) {
      return static_cast<std::size_t>(m.count(key) ? m.at(key).value : 0);
    };
    std::cout << "  percentiles are nearest-rank over exact per-request samples: req_p50/p99 at gap "
              << kRefGap << " (" << count_note(completions("traffic.ref_completions"), 0.99)
              << "), req_p99_hi at gap " << kHiGap << " ("
              << count_note(completions("traffic.hi_completions"), 0.99) << ")\n"
              << "  generator lateness: 0 cycles by construction (open loop in simulated time)\n";
  }
  if (opt.trace && sink)
    std::cout << "  trace.fault_cycles_p99 over " << count_note(sink->samples().fault.size(), 0.99)
              << "; trace events seen: " << sink->samples().events << "\n";
  for (const std::string& f : failures) std::cout << "  FAILED: " << f << "\n";

  if (!opt.spans_out.empty()) {
    try {
      spans.write_chrome_json(opt.spans_out, opt.workload + " seed " + std::to_string(opt.seed));
    } catch (const std::exception& e) {
      std::cout << "  FAILED: " << e.what() << "\n";
      ++failed;
    }
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(metric.value)
              << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
