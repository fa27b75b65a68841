// Self-test of the benchmark's arithmetic (src/arith.hpp): nearest-rank
// percentiles and their sample counts, per-prefix registry aggregation,
// self-time subtraction, and the max-QPS rule on a synthetic grid.
// Exits non-zero and names each failed check.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "arith.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using perfbench::nearest_rank;
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(nearest_rank(v, 0.50) == 500, "p50 of 1..1000 is 500");
  expect(nearest_rank(v, 0.99) == 990, "p99 of 1..1000 is 990");
  expect(nearest_rank(v, 1.0) == 1000, "p100 is the maximum");
  expect(nearest_rank(v, 0.0) == 1, "p0 clamps to the minimum");
  expect(nearest_rank(std::vector<std::uint64_t>{7}, 0.99) == 7, "single sample");
  expect(nearest_rank(std::vector<std::uint64_t>{}, 0.99) == 0, "empty set gives 0");
  // ceil(0.99 * 101) = 100: the 100th smallest.
  std::vector<std::uint64_t> w;
  for (std::uint64_t i = 1; i <= 101; ++i) w.push_back(i * 10);
  expect(nearest_rank(w, 0.99) == 1000, "p99 of 101 samples is rank 100");

  expect(perfbench::samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expect(perfbench::samples_beyond(600, 0.99) == 6, "600 samples: 6 beyond p99");
  expect(perfbench::samples_beyond(2000, 0.50) == 1000, "2000 samples: 1000 beyond p50");
  expect(perfbench::samples_beyond(0, 0.99) == 0, "no samples: none beyond");

  expect(near(perfbench::median({3, 1, 2}), 2), "odd median");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
}

void test_aggregation() {
  const perfbench::Snapshot snap = {
      {"p0.walker.walks", 10},
      {"p1.walker.walks", 5},
      {"p12.walker.walks", 1},
      {"walker.walks", 100},  // a standalone system's unprefixed name
      {"p0.pager.swap.reads", 7},
      {"swap.reads", 9},  // the shared scheduler; per-owner reads must not add in
      {"p0.hwt.worker.mem_ops", 3},
      {"p0.hwt.helper.mem_ops", 4},
      {"p0.hwt.worker.mmu.translations", 50},
      {"proc.p0.vecadd.shootdowns", 2},
      {"pq.walker.walks", 1000},  // not an instance prefix
      {"p0.pager.fault_stall.count", 4},
      {"p0.pager.fault_stall.mean", 10},
      {"p0.pager.fault_stall.max", 40},
      {"p1.pager.fault_stall.count", 1},
      {"p1.pager.fault_stall.mean", 60},
      {"p1.pager.fault_stall.max", 60},
      {"p2.pager.fault_stall.count", 0},
      {"p2.pager.fault_stall.mean", 0},
  };
  expect(near(perfbench::sum_stat(snap, "walker.walks"), 116), "walks sum over p-prefixes");
  expect(near(perfbench::sum_stat(snap, "swap.reads"), 9), "swap.reads is the machine counter");
  expect(near(perfbench::sum_stat(snap, "hwt.*.mem_ops"), 7), "wildcard thread segment");
  expect(near(perfbench::sum_stat(snap, "hwt.*.mmu.translations"), 50), "nested wildcard");
  expect(near(perfbench::sum_stat(snap, "pager.fault_stall.count"), 5), "histogram counts sum");
  expect(near(perfbench::sum_stat(snap, "missing.stat"), 0), "missing stat is 0");
  // (4 * 10 + 1 * 60) / 5 = 20: weighted by count, empty histograms ignored.
  expect(near(perfbench::hist_mean(snap, "pager.fault_stall"), 20), "count-weighted mean");
  expect(near(perfbench::hist_mean(snap, "walker.walk_latency"), 0), "no samples: mean 0");
  expect(near(perfbench::hist_max(snap, "pager.fault_stall"), 60), "max over prefixes");
  expect(perfbench::strip_instance("p3.os.services") == "os.services", "strip p3.");
  expect(perfbench::strip_instance("proc.p0.x") == "proc.p0.x", "proc. is not an instance");
  expect(perfbench::strip_instance("p.x") == "p.x", "p. alone is not an instance");
  expect(near(perfbench::ratio(1, 0), 0), "ratio by zero is 0");
}

void test_self_time() {
  using perfbench::Interval;
  using perfbench::self_time;
  expect(near(self_time({0, 10}, {}), 10), "no children: all self");
  expect(near(self_time({0, 10}, {{1, 3}, {5, 6}}), 7), "disjoint children");
  expect(near(self_time({0, 10}, {{2, 6}, {1, 4}}), 5), "overlapping children count once");
  expect(near(self_time({0, 10}, {{-5, 2}, {9, 20}}), 7), "children clipped to the parent");
  expect(near(self_time({0, 10}, {{20, 30}, {-9, -1}}), 10), "children outside don't count");
  expect(near(self_time({0, 10}, {{0, 10}}), 0), "fully covered");
}

void test_max_qps() {
  using perfbench::RatePoint;
  const double bound = 60000;
  // Rate ascending down the grid; the knee sits between 3500 and 2500.
  const std::vector<RatePoint> grid = {
      {10000, 10000, 0, 100}, {7000, 13000, 0, 143}, {5000, 20000, 0, 200},
      {3500, 31818, 0, 285.27}, {2500, 95000, 0, 377}, {1800, 190000, 555, 385}};
  const int best = perfbench::max_qps_point(grid, bound);
  expect(best == 3, "max QPS is the 3500-cycle point");
  // A rejection disqualifies a point even under the p99 bound.
  std::vector<RatePoint> rejecting = grid;
  rejecting[3].rejected = 1;
  expect(perfbench::max_qps_point(rejecting, bound) == 2, "rejections disqualify");
  // p99 exactly at the bound is not below it.
  std::vector<RatePoint> at_bound = grid;
  at_bound[3].p99 = bound;
  expect(perfbench::max_qps_point(at_bound, bound) == 2, "p99 == bound is not < bound");
  // Grid order does not matter: the smallest qualifying gap wins.
  std::vector<RatePoint> shuffled = {grid[4], grid[3], grid[0], grid[5]};
  expect(perfbench::max_qps_point(shuffled, bound) == 1, "order-independent");
  expect(perfbench::max_qps_point({{1800, 190000, 555, 385}}, bound) == -1, "nothing qualifies");
}

}  // namespace

int main() {
  test_percentiles();
  test_aggregation();
  test_self_time();
  test_max_qps();
  if (failures != 0) {
    std::cerr << failures << " arithmetic check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench arithmetic: all checks passed\n";
  return 0;
}
