// Seeded randomized stress test for the shared swap I/O subsystem: four
// processes page against ONE SwapScheduler (priority dispatch + readahead)
// while their pageout daemons tick, so demand reads, prefetch reads, and
// background writebacks from different owners interleave freely in the
// shared request queue. After every run the queue must drain, the paging
// and residency ledgers must balance, and the same seed must reproduce the
// run bit-identically — the determinism contract fig12 rests on.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/paging/ledger.hpp"
#include "mem/paging/pager.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace vmsls::paging {
namespace {

constexpr unsigned kProcs = 4;
constexpr u64 kRegionPages = 20;
constexpr unsigned kOps = 60;  // per run, spread across the processes

struct StressSnapshot {
  Cycles cycles = 0;
  u64 events = 0;
  std::map<std::string, double> stats;

  bool operator==(const StressSnapshot& o) const {
    return cycles == o.cycles && events == o.events && stats == o.stats;
  }
};

/// One member process paging against the shared device.
struct Member {
  std::unique_ptr<mem::AddressSpace> as;
  std::unique_ptr<rt::Process> process;
  std::unique_ptr<Pager> pager;
  VirtAddr base = 0;
  u64 maps_at_start = 0;
};

StressSnapshot run_chaos(u64 seed) {
  test::MemorySystem ms;
  rt::OsModel os{ms.sim, rt::OsConfig{}, "os"};

  SwapConfig swap_cfg;
  swap_cfg.read_latency = 400;
  swap_cfg.write_latency = 700;
  swap_cfg.bytes_per_cycle = 16;
  swap_cfg.sched = SwapSchedPolicy::kPriority;
  swap_cfg.readahead = 2;
  swap_cfg.writeback_starvation_limit = 6;
  SwapScheduler sched(ms.sim, swap_cfg, 4096, "swap");

  PagerConfig pc;
  pc.frame_budget = 6;
  pc.policy = PolicyKind::kClock;
  pc.swap = swap_cfg;
  pc.pageout_interval = 500;
  pc.pageout_watermark_pct = 50;
  pc.ws_interval = 1100;

  std::vector<Member> members(kProcs);
  for (unsigned i = 0; i < kProcs; ++i) {
    Member& m = members[i];
    const std::string name = "p" + std::to_string(i);
    m.as = std::make_unique<mem::AddressSpace>(ms.pm, ms.frames, mem::PageTableConfig{});
    m.process = std::make_unique<rt::Process>(ms.sim, *m.as, name);
    m.pager = std::make_unique<Pager>(ms.sim, *m.process, pc, name + ".pager", &sched);
    m.pager->set_os(&os, rt::OsConfig{}.daemon_service);
    // A cold region with known contents: every later touch pays the shared
    // device, and the in-order eviction clusters the slots for readahead.
    m.base = m.as->alloc(kRegionPages * 4096, 4096);
    for (u64 p = 0; p < kRegionPages; ++p)
      m.as->write_u64(m.base + p * 4096, (u64{i} << 32) | p);
    m.process->evict(m.base, kRegionPages * 4096);
    m.maps_at_start = m.as->faults_serviced();
  }
  // The cold-start evictions are setup: the ledger checks the run.
  std::vector<const Pager*> pagers;
  for (const Member& m : members) pagers.push_back(m.pager.get());
  const MachineLedger before = MachineLedger::of(pagers);

  Rng rng(seed);
  auto issued = std::make_shared<u64>(0);
  auto completed = std::make_shared<u64>(0);

  std::function<void(unsigned)> next_op = [&](unsigned remaining) {
    if (remaining == 0) return;
    const u64 kind = rng.below(100);
    if (kind < 80) {
      // Demand fault from a random process on a random page, sometimes
      // dirtying it — the cross-owner traffic the shared queue arbitrates.
      Member& m = members[rng.below(kProcs)];
      const VirtAddr va = m.base + rng.below(kRegionPages) * 4096;
      const bool write = rng.chance(0.4);
      ++*issued;
      mem::AddressSpace& as = *m.as;
      m.pager->handle_fault(va, write, [&as, va, write, completed] {
        if (!as.is_mapped(va)) as.map_page(va, /*writable=*/true);
        if (write) as.page_table().set_accessed_dirty(va, /*dirty=*/true);
        ++*completed;
      });
    }  // else: an idle gap — daemon ticks, prefetches, and writebacks drain
    const Cycles gap = rng.range(80, 2200);
    ms.sim.schedule_in(gap, [&next_op, remaining] { next_op(remaining - 1); });
  };
  next_op(kOps);

  StressSnapshot s;
  s.events = ms.sim.drain(500'000'000ull);

  // --- post-drain invariants ---
  EXPECT_EQ(*completed, *issued) << "seed " << seed;
  EXPECT_FALSE(sched.busy()) << "seed " << seed;
  // Nobody's traffic is misattributed across the shared queue.
  EXPECT_EQ((MachineLedger::of(pagers) - before).check(), std::vector<std::string>{})
      << "seed " << seed;
  EXPECT_EQ(check_machine(pagers), std::vector<std::string>{}) << "seed " << seed;
  for (unsigned i = 0; i < kProcs; ++i) {
    const Member& m = members[i];
    // Residency ledger: mappings since the cold start minus evictions is
    // exactly what remains resident.
    EXPECT_EQ(m.as->resident_pages(),
              m.as->faults_serviced() - m.maps_at_start - m.pager->evictions())
        << "seed " << seed << " p" << i;
    // Speculative flags never outlive residency.
    const u64 base_vpn = m.base >> 12;
    for (u64 p = 0; p < kRegionPages; ++p) {
      if (m.pager->is_speculative(base_vpn + p)) {
        EXPECT_TRUE(m.as->is_mapped(m.base + p * 4096)) << "seed " << seed << " p" << i;
      }
    }
  }
  // The mix must actually exercise contention, prefetch, and eviction.
  EXPECT_GT(sched.reads(), 0u) << "seed " << seed;

  s.cycles = ms.sim.now();
  s.stats = ms.sim.stats().snapshot();
  return s;
}

TEST(SwapStress, SharedQueueInvariantsHoldAndRunsAreBitIdentical) {
  u64 prefetches = 0, evictions = 0, promotions = 0;
  for (u64 seed = 1; seed <= 20; ++seed) {
    const auto a = run_chaos(seed);
    const auto b = run_chaos(seed);
    EXPECT_EQ(a.cycles, b.cycles) << "seed " << seed;
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.stats, b.stats) << "seed " << seed;  // every counter + histogram moment
    const auto at = [&a](const std::string& name) {
      auto it = a.stats.find(name);
      return it == a.stats.end() ? 0.0 : it->second;
    };
    for (unsigned i = 0; i < kProcs; ++i)
      prefetches += static_cast<u64>(at("p" + std::to_string(i) + ".pager.prefetches"));
    for (unsigned i = 0; i < kProcs; ++i)
      evictions += static_cast<u64>(at("p" + std::to_string(i) + ".pager.evictions"));
    promotions += static_cast<u64>(at("swap.sched.wb_promotions"));
  }
  // Across the whole gauntlet the machinery under test must have fired.
  EXPECT_GT(prefetches, 0u);
  EXPECT_GT(evictions, 0u);
  (void)promotions;  // informational: depends on queue depth reached
}

TEST(SwapStress, DistinctSeedsProduceDistinctSchedules) {
  const auto a = run_chaos(303);
  const auto b = run_chaos(404);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace vmsls::paging
