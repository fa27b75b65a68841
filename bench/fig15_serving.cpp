// Figure 15 — Serving mode: open-arrival traffic and the max-QPS-at-p99
// curve.
//
// Every figure before this one is closed-loop: the batch is present at
// t=0 and the metric is makespan. Fig15 asks the production question.
// Requests arrive on a seeded Poisson process, wait in a bounded admission
// queue, and are served by a ProcessGroup worker pool whose service path
// is the paging plane itself: each request is a workload-shaped episode of
// page touches driven through the worker's pager, over an arena larger
// than the worker's frame budget, against ONE shared swap device. As the
// arrival rate climbs, the swap queue backs up, fault stalls stretch, and
// the p99 latency bends — the rate sweep walks upward until the p99 bound
// breaks and reports "max QPS at p99 < bound" per swap-scheduling policy
// (FIFO vs priority dispatch), the headline curve.
//
// Gates (hard errors, every cell):
//   * enforced inside TrafficDriver::run — the request ledger (arrivals ==
//     admitted + rejected == configured requests, completed == admitted ==
//     latency samples),
//     drained queues (admission, workers, swap, event queue), and the
//     paging ledger over the workers' pagers and the shared swap,
//   * sustainable points reject nothing (a drop would make "max QPS" a
//     lie),
//   * bit-identical rerun — one grid point rerun on a fresh simulator
//     matches down to the full stat snapshot,
//   * serial == ShardedRunner across rate points (any worker count),
//   * the sweep actually saturates (the knee exists inside the grid) and
//     each policy sustains >= 4 rate points below the bound,
//   * priority dispatch sustains at least the FIFO rate (the recovery
//     regime fig12 established, restated in open-loop terms).
//
// Artifacts: BENCH_fig15_serving.json (engine-report schema plus
// p99_latency_cycles / qps_mcycle metrics; the --smoke run's must match
// bench/golden/smoke/fig15_serving.json exactly) and
// fig15_serving_summary.txt.
//
// --smoke mode (CI's Release run): fewer requests per point and a single
// rerun cell, every gate kept; it also prints "mallocs= faults=" on stderr
// and fails past kSmokeMallocsPerFault.

#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "mem/paging/ledger.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "sls/process_group.hpp"
#include "sls/report_writer.hpp"
#include "sls/traffic.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {

struct PointOptions {
  paging::SwapSchedPolicy policy = paging::SwapSchedPolicy::kFifo;
  Cycles mean_gap = 4000;  // arrival rate axis (cycles between arrivals)
  u64 requests = 600;
  unsigned workers = 4;
};

struct PointResult {
  sls::TrafficDriver::Report rep;
  u64 events = 0;
  bench::HostWork work;  // host work over the grid point
  u64 faults = 0;  // the workers' pager faults: every read and COW bucket
  double host_ms = 0;
  std::map<std::string, double> snapshot;  // full registry, for bit-identity
  std::string serving_summary;
  std::string swap_summary;
};

void require_gate(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("fig15: " + what);
}

const char* policy_name(paging::SwapSchedPolicy p) {
  return p == paging::SwapSchedPolicy::kPriority ? "priority" : "fifo";
}

sls::PlatformSpec serving_platform(const PointOptions& opt) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = 7;
  // The contended resource: one flash part for the whole pool, scheduled
  // FIFO or priority — the policy axis of the figure.
  plat.pager.swap.shared = true;
  plat.pager.swap.sched = opt.policy;
  plat.pager.swap.read_latency = 60;
  plat.pager.swap.write_latency = 120;
  plat.pager.swap.bytes_per_cycle = 64;

  plat.traffic.arrival.kind = sim::ArrivalConfig::Kind::kPoisson;
  plat.traffic.arrival.mean_gap = opt.mean_gap;
  plat.traffic.arrival.seed = 99;
  plat.traffic.requests = opt.requests;
  plat.traffic.queue_capacity = 64;
  plat.traffic.episode_touches = 24;
  plat.traffic.arena_pages = 48;
  plat.traffic.touch_cost = 20;
  plat.traffic.write_ratio = 0.25;
  return plat;
}

/// One serving run on a caller-supplied simulator (the sharded grid hands
/// each rate point its own Simulator; the serial wrapper below keeps the
/// single-run shape).
PointResult run_point_on(sim::Simulator& sim, const PointOptions& opt) {
  bench::WallTimer timer;
  const sls::PlatformSpec plat = serving_platform(opt);

  sls::ProcessGroup group(sim, plat, bench::member_pool(plat));
  for (unsigned i = 0; i < opt.workers; ++i) {
    // Tiny image: the worker's engine never runs — the serving episode IS
    // the workload, driven through the pager, and no buffer is pinned
    // because nothing reads one. The budget sits well below
    // the arena, so steady-state episodes fault, evict, and write back.
    workloads::WorkloadParams p;
    p.n = 64;
    p.seed = 1 + i;
    bench::add_member(group, workloads::make_vecadd(p), plat,
                      /*frame_budget=*/20,  // arena_pages = 48: ~40% resident
                      /*pinned_buffers=*/false);
  }

  sls::TrafficDriver driver(group, plat.traffic);
  const u64 events_before = sim.events_executed();
  const bench::HostWork work_before = bench::HostWork::of(sim, group.copied_pages());
  PointResult r;
  r.rep = driver.run();
  r.events = sim.events_executed() - events_before;
  r.work = bench::HostWork::of(sim, group.copied_pages()) - work_before;
  r.host_ms = timer.ms();
  for (const paging::Ledger& l : paging::MachineLedger::of(group.pagers()).pagers)
    r.faults += l.swap_ins + l.file_reads + l.zero_fills + l.share_hits + l.inherited_fills +
                l.cow_copies + l.cow_upgrades;

  std::ostringstream serving, swap;
  sls::write_serving_summary(serving, sim.stats());
  sls::write_swap_summary(swap, sim.stats());
  r.serving_summary = serving.str();
  r.swap_summary = swap.str();
  r.snapshot = sim.stats().snapshot();
  return r;
}

PointResult run_point(const PointOptions& opt) {
  sim::Simulator sim;
  return run_point_on(sim, opt);
}

void determinism_gate(const PointOptions& opt) {
  const PointResult a = run_point(opt);
  const PointResult b = run_point(opt);
  if (a.rep.latency != b.rep.latency || a.rep.span != b.rep.span || a.events != b.events ||
      a.snapshot != b.snapshot)
    throw std::runtime_error("fig15: rerun is NOT bit-identical");
  std::cout << "[determinism] gap=" << opt.mean_gap << " rerun: span=" << a.rep.span
            << "c p99=" << a.rep.latency_p(0.99) << "c stats=" << a.snapshot.size()
            << " entries (bit-identical)\n";
}

/// Bound on the smoke's operator-new calls per fault in its artifact. The
/// count covers the whole process, the rerun and sharded gates included,
/// while the artifact holds the sweep's faults, so one more allocation per
/// fault raises the ratio by more than 1. Set from 174366 / 67343 = 2.59
/// (GCC 12 libstdc++) with 6% headroom for other C++ runtimes.
constexpr double kSmokeMallocsPerFault = 2.75;

void run_grid(const bench::Cli& cli) {
  // Rate grid, slowest first (gaps descending = rate ascending). The knee
  // must land inside the grid for both policies, with >= 4 sustainable
  // points below it.
  const std::vector<Cycles> gaps = {20000, 14000, 10000, 7000, 5000, 3500, 2500, 1800, 1200, 800};
  const Cycles p99_bound = 60'000;
  const u64 requests = cli.smoke ? 300 : 600;

  {
    PointOptions det;
    det.mean_gap = 7000;
    det.requests = cli.smoke ? 150 : 300;
    determinism_gate(det);
  }
  {
    // Every rate point of the grid as its own shard: the merged registry
    // must be bit-identical to the serial walk — open-arrival sampling adds
    // no hidden cross-shard state.
    std::vector<sls::Shard> shards;
    for (const Cycles gap : {14000, 5000}) {
      for (const auto policy : {paging::SwapSchedPolicy::kFifo, paging::SwapSchedPolicy::kPriority}) {
        PointOptions opt;
        opt.policy = policy;
        opt.mean_gap = gap;
        opt.requests = cli.smoke ? 150 : 300;
        shards.push_back({"r" + std::to_string(shards.size()),
                          [opt](sim::Simulator& sim) { run_point_on(sim, opt); }});
      }
    }
    bench::run_sharded(shards, cli.shards, std::to_string(shards.size()) + " rate points");
  }

  bench::EngineBenchReport engine;
  Table table({"policy", "gap", "qps/Mcyc", "p50", "p95", "p99", "q_wait p99", "rej", "verdict"});
  std::map<std::string, sls::RateSweepResult> sweeps;
  std::map<std::string, PointResult> knee_points;

  for (const auto policy : {paging::SwapSchedPolicy::kFifo, paging::SwapSchedPolicy::kPriority}) {
    const std::string pname = policy_name(policy);
    std::map<Cycles, PointResult> by_gap;
    const sls::RateSweepResult sweep = sls::sweep_rates(
        gaps, p99_bound, [&](Cycles gap) {
          PointOptions opt;
          opt.policy = policy;
          opt.mean_gap = gap;
          opt.requests = requests;
          PointResult r = run_point(opt);
          sls::TrafficDriver::Report rep = r.rep;
          by_gap.emplace(gap, std::move(r));
          return rep;
        });
    require_gate(sweep.saturated, pname + ": the sweep never saturated — raise the rate grid");
    require_gate(sweep.points.size() >= 5,
                 pname + ": fewer than 4 sustainable rate points below the p99 bound");

    for (const sls::RatePoint& pt : sweep.points) {
      const PointResult& r = by_gap.at(pt.mean_gap);
      const std::string label = "fig15/" + pname + "/gap" + std::to_string(pt.mean_gap);
      table.add_row({pname, Table::num(pt.mean_gap), Table::num(pt.qps_mcycle, 2),
                     Table::num(r.rep.latency_p(0.50)), Table::num(r.rep.latency_p(0.95)),
                     Table::num(pt.p99), Table::num(sls::TrafficDriver::Report::percentile(
                                             r.rep.queue_wait, 0.99)),
                     Table::num(pt.rejected), pt.violated ? "VIOLATED" : "ok"});
      engine.add(label, r.rep.span, r.events, r.work, r.faults, r.host_ms);
      engine.add_metric(label, "p99_latency_cycles", static_cast<double>(pt.p99));
      engine.add_metric(label, "qps_mcycle", pt.qps_mcycle);
      if (!pt.violated) {
        // Sustainable points must not shed load: a drop would inflate the
        // "max QPS" headline.
        require_gate(pt.rejected == 0, pname + ": sustainable point rejected requests");
      }
    }
    knee_points.emplace(pname, std::move(by_gap.at(sweep.max_qps_gap)));
    sweeps.emplace(pname, sweep);
  }

  table.print(std::cout,
              "Figure 15: open-arrival serving (Poisson arrivals, bounded queue, "
              "shared swap; p99 bound " + std::to_string(p99_bound) + " cycles)");

  // Priority dispatch must sustain at least FIFO's rate step: demand reads
  // bypassing queued writebacks must not LOWER the sustainable rate. The
  // comparison is on the discrete grid (smaller gap = higher rate), not on
  // measured QPS — at a shared knee the two policies' throughputs differ
  // only by span noise. (Checked after the table prints so a failure is
  // diagnosable.)
  require_gate(sweeps.at("priority").max_qps_gap <= sweeps.at("fifo").max_qps_gap,
               "priority dispatch sustained a LOWER rate step than FIFO");

  std::ostringstream headline;
  headline << "fig15 headline: max QPS at p99 < " << p99_bound << " cycles\n";
  for (const auto& [pname, sweep] : sweeps) {
    headline << "  " << pname << "  max " << sweep.max_qps_mcycle
             << " req/Mcycle (gap " << sweep.max_qps_gap << "c, p99 " << sweep.max_qps_p99
             << "c); knee at the next rate step\n";
  }
  headline << "  every arrival admitted or rejected, every admitted request completed,\n"
           << "  all queues drained, and the run is bit-identical across reruns and shards\n";
  std::cout << headline.str();

  std::ostringstream knees;
  for (const auto& [pname, knee] : knee_points)
    knees << "\n-- " << pname << " @ max sustainable rate --\n"
          << knee.serving_summary << knee.swap_summary;
  bench::write_artifacts(engine, "fig15_serving", headline.str(), &table, "Figure 15",
                         knees.str());
  if (cli.smoke) alloc_counter::require_per_fault(engine.faults(), kSmokeMallocsPerFault);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, "fig15", bench::kSmoke | bench::kShards, run_grid);
}
