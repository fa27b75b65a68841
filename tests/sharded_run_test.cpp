// Sharded multi-simulator execution: shards=1 and shards=N must be
// bit-identical — per-shard cycles, event counts, the merged stat registry,
// and even a traced shard's event stream may not change with the worker
// count. This is the determinism contract that lets the fig12 grid (and any
// future sweep) fan out across host threads without giving up reproducible
// paper numbers.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/frames.hpp"
#include "mem/paging/pager.hpp"
#include "mem/physmem.hpp"
#include "rt/process.hpp"
#include "sls/sharded_runner.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

namespace vmsls {
namespace {

struct MemorySink final : sim::TraceSink {
  std::vector<sim::TraceEvent> events;  // names are literals; safe to retain
  void on_event(const sim::TraceContext&, const sim::TraceEvent& ev) override {
    events.push_back(ev);
  }
};

/// One grid point: a process under budget pressure faulting through a
/// strided chain — the fig12 shape (demand paging against a replacement
/// policy and a timed swap path) at unit-test scale.
struct Scenario {
  u64 pages = 64;
  u64 budget = 32;
  u64 stride = 1;
  bool dirty = false;
  unsigned readahead = 0;
};

/// Builds and drives one scenario instance on `sim`. Everything lives on
/// this function's stack: nothing is shared between shards.
void run_scenario(sim::Simulator& sim, const Scenario& sc) {
  mem::PhysicalMemory pm{8 * MiB};
  mem::FrameAllocator frames{0, (8 * MiB) / (4 * KiB), 4 * KiB};
  mem::AddressSpace as{pm, frames, mem::PageTableConfig{}};
  rt::Process process{sim, as, "proc"};
  paging::PagerConfig cfg;
  cfg.frame_budget = sc.budget;
  cfg.policy = paging::PolicyKind::kClock;
  cfg.swap.read_latency = 50;
  cfg.swap.write_latency = 100;
  cfg.swap.bytes_per_cycle = 64;
  cfg.swap.readahead = sc.readahead;
  if (sc.readahead > 0) cfg.swap.sched = paging::SwapSchedPolicy::kPriority;
  const test::PagerPtr owned(sim, process, cfg, "pager");
  paging::Pager& pager = *owned;

  const VirtAddr base = as.alloc(sc.pages * as.page_bytes(), as.page_bytes());
  for (u64 p = 0; p < sc.pages; ++p) as.write_u64(base + p * as.page_bytes(), p);
  if (!sc.dirty)
    for (u64 p = 0; p < sc.pages; ++p) as.page_table().test_and_clear_dirty(base + p * as.page_bytes());
  process.evict(base, sc.pages * as.page_bytes());

  const u64 faults = sc.pages * 2;
  u64 next = 0;
  std::function<void()> chain = [&] {
    if (next >= faults) return;
    const VirtAddr a = base + ((next * sc.stride) % sc.pages) * as.page_bytes();
    ++next;
    pager.handle_fault(a, sc.dirty, [&, a] {
      // A fault on a readahead landing resolves with the page already
      // resident — only map what is genuinely absent.
      if (!as.is_mapped(a)) process.map_in(a);
      if (sc.dirty) as.page_table().set_accessed_dirty(a, /*dirty=*/true);
      chain();
    });
  };
  chain();
  sim.drain();
  if (next != faults) throw std::runtime_error("sharded scenario stalled");
}

std::vector<Scenario> small_grid() {
  return {
      {64, 32, 1, false, 0},  {64, 32, 1, true, 0},  {64, 16, 3, false, 0},
      {96, 24, 5, true, 0},   {64, 64, 9, false, 8},  // readahead point
      {128, 32, 7, false, 2},
  };
}

std::vector<sls::Shard> make_shards(const std::vector<Scenario>& grid) {
  std::vector<sls::Shard> shards;
  for (std::size_t i = 0; i < grid.size(); ++i)
    shards.push_back({test::numbered("g", i),
                      [&grid, i](sim::Simulator& sim) { run_scenario(sim, grid[i]); }});
  return shards;
}

void expect_reports_identical(const sls::ShardedReport& a, const sls::ShardedReport& b) {
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].name, b.shards[i].name);
    EXPECT_EQ(a.shards[i].cycles, b.shards[i].cycles) << "shard " << a.shards[i].name;
    EXPECT_EQ(a.shards[i].events, b.shards[i].events) << "shard " << a.shards[i].name;
  }
  // Full merged-registry comparison, entry for entry (snapshot is
  // name-ordered, so equality here is equality of every stat).
  EXPECT_EQ(a.stats.snapshot(), b.stats.snapshot());
}

TEST(ShardedRunner, ShardsNBitIdenticalToSerial) {
  const auto grid = small_grid();
  const auto shards = make_shards(grid);
  const sls::ShardedReport serial = sls::ShardedRunner(1).run(shards);
  const sls::ShardedReport four = sls::ShardedRunner(4).run(shards);
  const sls::ShardedReport eight = sls::ShardedRunner(8).run(shards);  // workers > shards
  expect_reports_identical(serial, four);
  expect_reports_identical(serial, eight);
  // The scenarios really ran: every shard simulated time and faulted.
  for (const auto& row : serial.shards) {
    EXPECT_GT(row.cycles, 0u) << row.name;
    EXPECT_GT(row.events, 0u) << row.name;
  }
  EXPECT_GT(serial.stats.counter_value("g0.pager.swap_ins"), 0u);
}

TEST(ShardedRunner, TracedShardIsByteStableAcrossWorkerCounts) {
  // One shard runs traced (its own simulator, its own sink): the captured
  // event stream — kinds, timestamps, ids — must not depend on how many
  // host workers the grid ran on, and tracing one shard must not perturb
  // the untraced shards either.
  const auto grid = small_grid();
  auto capture = [&grid](unsigned workers) {
    auto sink = std::make_shared<MemorySink>();
    std::vector<sls::Shard> shards = make_shards(grid);
    shards[2].body = [&grid, sink](sim::Simulator& sim) {
      sim.trace().set_sink(sink.get());
      run_scenario(sim, grid[2]);
      sim.trace().set_sink(nullptr);
    };
    const sls::ShardedReport report = sls::ShardedRunner(workers).run(shards);
    return std::make_pair(report, sink);
  };
  auto [serial, serial_sink] = capture(1);
  auto [four, four_sink] = capture(4);
  expect_reports_identical(serial, four);
  ASSERT_FALSE(serial_sink->events.empty());
  ASSERT_EQ(serial_sink->events.size(), four_sink->events.size());
  for (std::size_t i = 0; i < serial_sink->events.size(); ++i) {
    const auto& a = serial_sink->events[i];
    const auto& b = four_sink->events[i];
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << "event " << i;
    EXPECT_EQ(a.ts, b.ts) << "event " << i;
    EXPECT_EQ(a.id, b.id) << "event " << i;
    EXPECT_EQ(a.aux, b.aux) << "event " << i;
    EXPECT_EQ(std::string(a.name), std::string(b.name)) << "event " << i;
  }
}

TEST(ShardedRunner, VerifyAgainstSerialCatchesDivergence) {
  const auto grid = small_grid();
  const auto shards = make_shards(grid);
  sls::ShardedRunner runner(4);
  sls::ShardedReport report = runner.run(shards);
  EXPECT_NO_THROW(runner.verify_against_serial(shards, report));
  report.shards[1].cycles += 1;  // a shard that "drifted"
  EXPECT_THROW(runner.verify_against_serial(shards, report), std::runtime_error);
}

TEST(ShardedRunner, MergePrefixesNamespaceEveryShard) {
  // Two shards recording the same stat names must land in disjoint
  // namespaces — the property that makes the merged registry readable as
  // "the registry one driver would have built".
  std::vector<sls::Shard> shards;
  for (int i = 0; i < 2; ++i)
    shards.push_back({"s" + std::to_string(i), [](sim::Simulator& sim) {
                        sim.stats().counter("hits").add(7);
                        sim.stats().histogram("lat").record(4);
                      }});
  const sls::ShardedReport r = sls::ShardedRunner(2).run(shards);
  EXPECT_EQ(r.stats.counter_value("s0.hits"), 7u);
  EXPECT_EQ(r.stats.counter_value("s1.hits"), 7u);
  EXPECT_FALSE(r.stats.has_counter("hits"));
  const auto snap = r.stats.snapshot();
  EXPECT_EQ(snap.at("s0.lat.count"), 1.0);
  EXPECT_EQ(snap.at("s1.lat.count"), 1.0);
}

TEST(ParallelFor, CoversEveryIndexOnceAndRethrowsLowest) {
  std::vector<int> hits(257, 0);
  parallel_for(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;

  // The surfaced failure is the lowest-index throw, independent of
  // scheduling; later indices still complete (no early abort).
  std::vector<int> ran(64, 0);
  try {
    parallel_for(4, ran.size(), [&](std::size_t i) {
      ++ran[i];
      if (i == 5 || i == 41) throw std::runtime_error("idx " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx 5");
  }
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i], 1) << i;

  parallel_for(8, 0, [](std::size_t) { FAIL() << "n=0 must not invoke fn"; });
}

}  // namespace
}  // namespace vmsls
