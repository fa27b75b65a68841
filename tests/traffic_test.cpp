// Serving-plane tests: the seeded arrival process (same-seed bit-identical,
// different-seed divergence, burst modulation), the TrafficDriver's
// admission ledger under a bounded queue and a saturated pool, the registry
// histograms' percentiles against the exact ones, episode-mix validation,
// and the rate sweep's monotone first-violation search (tested
// against a synthetic closure — no simulator needed).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/arrival.hpp"
#include "sls/process_group.hpp"
#include "sls/traffic.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::sls {
namespace {

std::vector<Cycles> sample_gaps(const sim::ArrivalConfig& cfg, unsigned n) {
  sim::ArrivalProcess ap(cfg);
  std::vector<Cycles> gaps;
  Cycles now = 0;
  for (unsigned i = 0; i < n; ++i) {
    const Cycles g = ap.next_gap(now);
    gaps.push_back(g);
    now += g;
  }
  return gaps;
}

TEST(ArrivalProcess, SameSeedIsBitIdentical) {
  sim::ArrivalConfig cfg;
  cfg.mean_gap = 1000;
  cfg.seed = 42;
  EXPECT_EQ(sample_gaps(cfg, 256), sample_gaps(cfg, 256));
}

TEST(ArrivalProcess, DifferentSeedsDiverge) {
  sim::ArrivalConfig a, b;
  a.mean_gap = b.mean_gap = 1000;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(sample_gaps(a, 256), sample_gaps(b, 256));
}

TEST(ArrivalProcess, PoissonGapsAverageNearTheMean) {
  sim::ArrivalConfig cfg;
  cfg.mean_gap = 1000;
  cfg.seed = 7;
  const auto gaps = sample_gaps(cfg, 4096);
  double sum = 0;
  for (const Cycles g : gaps) {
    EXPECT_GE(g, 1u);  // gaps are clamped to at least one cycle
    sum += static_cast<double>(g);
  }
  const double mean = sum / static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 1000.0, 100.0);  // ~1.5% stderr at n=4096; 10% slack
}

TEST(ArrivalProcess, DeterministicKindIsConstantRate) {
  sim::ArrivalConfig cfg;
  cfg.kind = sim::ArrivalConfig::Kind::kDeterministic;
  cfg.mean_gap = 500;
  for (const Cycles g : sample_gaps(cfg, 64)) EXPECT_EQ(g, 500u);
}

TEST(ArrivalProcess, BurstPhaseShortensGaps) {
  sim::ArrivalConfig cfg;
  cfg.kind = sim::ArrivalConfig::Kind::kDeterministic;
  cfg.mean_gap = 1000;
  cfg.burst_factor = 4.0;
  cfg.burst_period = 10'000;
  cfg.burst_duty = 0.5;
  sim::ArrivalProcess ap(cfg);
  EXPECT_TRUE(ap.in_burst(0));       // phase [0, 5000) bursts
  EXPECT_FALSE(ap.in_burst(5000));   // phase [5000, 10000) is the lull
  EXPECT_EQ(ap.next_gap(0), 250u);   // mean / burst_factor
  EXPECT_EQ(ap.next_gap(5000), 1000u);
}

TEST(ArrivalProcess, RejectsInvalidConfig) {
  sim::ArrivalConfig cfg;
  cfg.mean_gap = 0;
  EXPECT_THROW(sim::ArrivalProcess{cfg}, std::invalid_argument);
  cfg.mean_gap = 100;
  cfg.burst_factor = 0.5;
  EXPECT_THROW(sim::ArrivalProcess{cfg}, std::invalid_argument);
  cfg.burst_factor = 2.0;
  cfg.burst_duty = 1.5;
  EXPECT_THROW(sim::ArrivalProcess{cfg}, std::invalid_argument);
}

// --- TrafficDriver over a real (small) ProcessGroup ---

PlatformSpec serve_platform() {
  PlatformSpec plat = zynq7020();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.swap.shared = true;
  plat.pager.swap.read_latency = 50;
  plat.pager.swap.write_latency = 100;
  plat.pager.swap.bytes_per_cycle = 64;
  plat.traffic.requests = 60;
  plat.traffic.queue_capacity = 32;
  plat.traffic.episode_touches = 8;
  plat.traffic.arena_pages = 16;
  plat.traffic.touch_cost = 20;
  plat.traffic.arrival.mean_gap = 2000;
  plat.traffic.arrival.seed = 11;
  return plat;
}

/// Owns the simulator + group a TrafficDriver needs (the driver itself
/// borrows both).
struct ServeRig {
  sim::Simulator sim;
  std::unique_ptr<ProcessGroup> group;

  ServeRig(const PlatformSpec& plat, unsigned workers, u64 frame_budget = 6) {
    paging::FramePoolConfig pool_cfg;
    pool_cfg.mode = paging::BudgetMode::kPerProcess;
    pool_cfg.policy = plat.pager.policy;
    group = std::make_unique<ProcessGroup>(sim, plat, pool_cfg);
    for (unsigned i = 0; i < workers; ++i) {
      workloads::WorkloadParams p;
      p.n = 64;
      p.seed = 1 + i;
      const auto wl = workloads::make_vecadd(p);
      PlatformSpec proc_plat = plat;
      proc_plat.pager.frame_budget = frame_budget;  // below the arena: real pressure
      SynthesisFlow flow(proc_plat);
      group->add_process(flow.synthesize(workloads::single_thread_app(
                             wl, ThreadKind::kHardware)),
                         "p" + std::to_string(i));
    }
  }
};

TrafficDriver::Report run_serve(const PlatformSpec& plat, unsigned workers = 2) {
  ServeRig rig(plat, workers);
  TrafficDriver driver(*rig.group, plat.traffic);
  return driver.run();
}

TEST(TrafficDriver, LedgerBalancesAndRunIsBitIdentical) {
  const PlatformSpec plat = serve_platform();
  const auto a = run_serve(plat);
  EXPECT_EQ(a.arrivals, plat.traffic.requests);
  EXPECT_EQ(a.admitted + a.rejected, a.arrivals);
  EXPECT_EQ(a.completed, a.admitted);
  EXPECT_EQ(a.latency.size(), a.completed);
  EXPECT_EQ(a.queue_wait.size(), a.completed);
  EXPECT_EQ(a.service.size(), a.completed);
  EXPECT_GT(a.span, 0u);

  const auto b = run_serve(plat);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.queue_wait, b.queue_wait);
  EXPECT_EQ(a.span, b.span);
}

TEST(TrafficDriver, DifferentArrivalSeedsProduceDifferentRuns) {
  PlatformSpec plat = serve_platform();
  const auto a = run_serve(plat);
  plat.traffic.arrival.seed = 12;
  const auto b = run_serve(plat);
  EXPECT_NE(a.latency, b.latency);
}

TEST(TrafficDriver, BoundedQueueRejectsAndAccountsOverflow) {
  PlatformSpec plat = serve_platform();
  // One worker, a two-deep queue, arrivals far faster than service: the
  // overflow must be rejected, not dropped or deadlocked.
  plat.traffic.queue_capacity = 2;
  plat.traffic.arrival.mean_gap = 100;
  const auto rep = run_serve(plat, 1);
  EXPECT_GT(rep.rejected, 0u);
  EXPECT_EQ(rep.admitted + rep.rejected, rep.arrivals);
  EXPECT_EQ(rep.completed, rep.admitted);
  EXPECT_LE(rep.peak_queue, plat.traffic.queue_capacity);
  EXPECT_GT(rep.completed, 0u);  // the pool still made progress
}

TEST(TrafficDriver, SaturatedPoolQueuesInsteadOfRejecting) {
  PlatformSpec plat = serve_platform();
  // Queue deep enough for every request: under the same overload nothing
  // may be rejected — requests wait, and the pool stays fully busy.
  plat.traffic.requests = 40;
  plat.traffic.queue_capacity = 64;
  plat.traffic.arrival.mean_gap = 100;
  const auto rep = run_serve(plat, 2);
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_EQ(rep.completed, rep.arrivals);
  EXPECT_EQ(rep.peak_busy, 2u);
  EXPECT_GT(rep.peak_queue, 0u);
  EXPECT_GT(TrafficDriver::Report::percentile(rep.queue_wait, 0.99), 0u);
}

TEST(TrafficDriver, RegistryPercentilesStayWithinASixteenthOfExact) {
  // A fig15-shaped point near the knee: four workers on one shared swap
  // device, Poisson arrivals at gap 3500, a 20-frame budget under a
  // 48-page arena. The registry histograms feed every printed summary;
  // their percentiles must bound the driver's exact ones from above by at
  // most 1/16.
  PlatformSpec plat = serve_platform();
  plat.pager.policy_seed = 7;
  plat.pager.swap.read_latency = 60;
  plat.pager.swap.write_latency = 120;
  plat.traffic.arrival.mean_gap = 3500;
  plat.traffic.arrival.seed = 99;
  plat.traffic.requests = 600;
  plat.traffic.queue_capacity = 64;
  plat.traffic.episode_touches = 24;
  plat.traffic.arena_pages = 48;
  plat.traffic.write_ratio = 0.25;
  ServeRig rig(plat, 4, /*frame_budget=*/20);
  TrafficDriver driver(*rig.group, plat.traffic);
  const auto rep = driver.run();
  ASSERT_EQ(rep.completed, plat.traffic.requests);

  const std::pair<const char*, const std::vector<Cycles>*> series[] = {
      {"traffic.latency", &rep.latency},
      {"traffic.queue_wait", &rep.queue_wait},
      {"traffic.service", &rep.service}};
  for (const auto& [name, values] : series) {
    const Histogram& h = rig.sim.stats().histogram(name);
    ASSERT_EQ(h.count(), values->size()) << name;
    for (const double q : {0.5, 0.95, 0.99}) {
      const Cycles exact = TrafficDriver::Report::percentile(*values, q);
      EXPECT_GE(h.percentile(q), exact) << name << " q=" << q;
      EXPECT_LE(h.percentile(q), exact + exact / 16) << name << " q=" << q;
    }
  }
}

TEST(TrafficDriver, RejectsUnknownEpisodeMix) {
  PlatformSpec plat = serve_platform();
  plat.traffic.mix = "saxpy,flux_capacitor";
  ServeRig rig(plat, 1);
  EXPECT_THROW(TrafficDriver(*rig.group, plat.traffic), std::invalid_argument);
}

// --- rate sweep (synthetic run_point: the search logic alone) ---

TrafficDriver::Report synthetic_report(Cycles p99, u64 rejected) {
  TrafficDriver::Report rep;
  rep.arrivals = 100;
  rep.rejected = rejected;
  rep.admitted = rep.completed = 100 - rejected;
  rep.span = 100'000;
  // percentile() is nearest-rank over the exact vector: a constant vector
  // pins every quantile to `p99`.
  rep.latency.assign(rep.completed, p99);
  rep.queue_wait.assign(rep.completed, 0);
  rep.service.assign(rep.completed, p99);
  return rep;
}

TEST(RateSweep, StopsAtTheFirstViolationAndKeepsTheLastSustainablePoint) {
  std::vector<Cycles> ran;
  const auto result = sweep_rates({8000, 4000, 2000, 1000, 500}, 1000, [&](Cycles gap) {
    ran.push_back(gap);
    return synthetic_report(/*p99=*/10'000 / gap * 100, /*rejected=*/0);
  });
  // p99 = 100, 200, 500, 1000 (ok: the bound is strict-greater) then 2000.
  EXPECT_EQ(ran, (std::vector<Cycles>{8000, 4000, 2000, 1000, 500}));
  EXPECT_TRUE(result.saturated);
  ASSERT_EQ(result.points.size(), 5u);
  EXPECT_TRUE(result.points.back().violated);
  EXPECT_EQ(result.max_qps_gap, 1000u);
  EXPECT_EQ(result.max_qps_p99, 1000u);
  EXPECT_DOUBLE_EQ(result.max_qps_mcycle, 100.0 * 1e6 / 100'000.0);
}

TEST(RateSweep, RejectionViolatesEvenUnderTheLatencyBound) {
  const auto result = sweep_rates({4000, 2000}, 1'000'000, [&](Cycles gap) {
    return synthetic_report(/*p99=*/100, /*rejected=*/gap < 4000 ? 5 : 0);
  });
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.max_qps_gap, 4000u);
  EXPECT_TRUE(result.points.back().violated);
}

TEST(RateSweep, UnsaturatedSweepReportsTheLastPoint) {
  const auto result = sweep_rates({4000, 2000, 1000}, 1'000'000, [&](Cycles) {
    return synthetic_report(/*p99=*/100, /*rejected=*/0);
  });
  EXPECT_FALSE(result.saturated);
  EXPECT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.max_qps_gap, 1000u);
}

TEST(RateSweep, ValidatesTheGapGrid) {
  const auto ok = [](Cycles) { return synthetic_report(1, 0); };
  EXPECT_THROW(sweep_rates({}, 100, ok), std::invalid_argument);
  EXPECT_THROW(sweep_rates({1000, 1000}, 100, ok), std::invalid_argument);
  EXPECT_THROW(sweep_rates({1000, 2000}, 100, ok), std::invalid_argument);
  // A first point already over the bound has no sustainable rate at all.
  EXPECT_THROW(sweep_rates({1000, 500}, 100,
                           [](Cycles) { return synthetic_report(5000, 0); }),
               std::runtime_error);
}

}  // namespace
}  // namespace vmsls::sls
