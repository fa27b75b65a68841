// Serving-plane gauntlet: 20 seeded open-arrival runs across arrival
// kinds, burst shapes, queue depths, pool sizes, and episode mixes. Every
// run must hold the request-ledger identity
//
//   arrivals == admitted + rejected == configured requests
//   completed == admitted
//
// drain every queue, leave every worker idle, and balance the paging ledger
// (TrafficDriver::run throws on any violation — the assertions here
// re-check the request ledger and the drain from outside the driver so a
// silent driver bug cannot pass). One seed is rerun and must be
// bit-identical, per the repo-wide determinism contract.
#include <gtest/gtest.h>

#include <string>

#include "sls/process_group.hpp"
#include "sls/traffic.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::sls {
namespace {

PlatformSpec stress_platform(u64 seed) {
  PlatformSpec plat = zynq7020();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.swap.shared = true;
  plat.pager.swap.read_latency = 50;
  plat.pager.swap.write_latency = 100;
  plat.pager.swap.bytes_per_cycle = 64;
  // The seed steers every shape knob, so the 20 runs cover distribution x
  // burstiness x queue depth x overload quite unlike one another.
  plat.traffic.requests = 80;
  plat.traffic.arrival.seed = seed;
  plat.traffic.arrival.mean_gap = 300 + 400 * (seed % 5);  // 300..1900
  plat.traffic.arrival.kind = seed % 2 == 0 ? sim::ArrivalConfig::Kind::kPoisson
                                            : sim::ArrivalConfig::Kind::kDeterministic;
  if (seed % 3 == 0) {
    plat.traffic.arrival.burst_factor = 3.0;
    plat.traffic.arrival.burst_period = 20'000;
    plat.traffic.arrival.burst_duty = 0.3;
  }
  plat.traffic.queue_capacity = 2 + seed % 7;
  plat.traffic.episode_touches = 6 + seed % 10;
  plat.traffic.arena_pages = 16;
  plat.traffic.touch_cost = 10 + 10 * (seed % 3);
  plat.traffic.write_ratio = 0.1 * static_cast<double>(seed % 6);
  plat.traffic.mix = seed % 2 == 0 ? "saxpy,hash_join,pointer_chase,matmul"
                                   : "bfs,histogram,vecadd";
  return plat;
}

TrafficDriver::Report run_once(const PlatformSpec& plat, unsigned workers) {
  sim::Simulator sim;
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  pool_cfg.policy = plat.pager.policy;
  ProcessGroup group(sim, plat, pool_cfg);
  for (unsigned i = 0; i < workers; ++i) {
    workloads::WorkloadParams p;
    p.n = 64;
    p.seed = 1 + i;
    const auto wl = workloads::make_vecadd(p);
    PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = 6;
    SynthesisFlow flow(proc_plat);
    group.add_process(
        flow.synthesize(workloads::single_thread_app(wl, ThreadKind::kHardware)),
        test::numbered("p", i));
  }
  TrafficDriver driver(group, plat.traffic);
  const auto rep = driver.run();
  // Post-run drain: driver, pool, swap queue, and the event queue itself.
  EXPECT_EQ(driver.queue_depth(), 0u);
  EXPECT_EQ(driver.busy_workers(), 0u);
  EXPECT_NE(group.shared_swap(), nullptr);
  if (group.shared_swap() != nullptr) {
    EXPECT_EQ(group.shared_swap()->queue_depth(), 0u);
  }
  EXPECT_TRUE(sim.idle());
  return rep;
}

TEST(ServingStress, TwentySeedsHoldTheRequestLedger) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PlatformSpec plat = stress_platform(seed);
    const unsigned workers = 1 + seed % 3;
    const auto rep = run_once(plat, workers);
    EXPECT_EQ(rep.arrivals, plat.traffic.requests);
    EXPECT_EQ(rep.admitted + rep.rejected, rep.arrivals);
    EXPECT_EQ(rep.completed, rep.admitted);
    EXPECT_EQ(rep.latency.size(), rep.completed);
    EXPECT_EQ(rep.queue_wait.size(), rep.completed);
    EXPECT_EQ(rep.service.size(), rep.completed);
    EXPECT_LE(rep.peak_queue, plat.traffic.queue_capacity);
    EXPECT_LE(rep.peak_busy, workers);
    EXPECT_GT(rep.completed, 0u);
    // Latency decomposes: every request's latency is its queue wait plus
    // its service time (same completion order across the three vectors).
    for (std::size_t i = 0; i < rep.latency.size(); ++i)
      EXPECT_EQ(rep.latency[i], rep.queue_wait[i] + rep.service[i]);
  }
}

TEST(ServingStress, RerunOfOneSeedIsBitIdentical) {
  const PlatformSpec plat = stress_platform(13);
  const auto a = run_once(plat, 2);
  const auto b = run_once(plat, 2);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.queue_wait, b.queue_wait);
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.span, b.span);
}

}  // namespace
}  // namespace vmsls::sls
