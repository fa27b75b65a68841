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
#include "sls/process_group.hpp"
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
  sls::System* sys = nullptr;
  VirtAddr base = 0;
  u64 maps_at_start = 0;
};

StressSnapshot run_chaos(u64 seed) {
  sim::Simulator sim;
  sls::PlatformSpec plat;
  plat.dram.size_bytes = 64 * MiB;
  PagerConfig& pc = plat.pager;
  pc.frame_budget = 6;
  pc.policy = PolicyKind::kClock;
  pc.swap.read_latency = 400;
  pc.swap.write_latency = 700;
  pc.swap.bytes_per_cycle = 16;
  pc.swap.sched = SwapSchedPolicy::kPriority;
  pc.swap.readahead = 2;
  pc.swap.writeback_starvation_limit = 6;
  pc.swap.shared = true;
  pc.pageout_interval = 500;
  pc.pageout_watermark_pct = 50;
  pc.ws_interval = 1100;
  // The group wires each pager's daemon ticks to its OS cores and shares
  // one SwapScheduler between them.
  sls::ProcessGroup group(sim, plat, FramePoolConfig{});
  const SwapScheduler& sched = *group.shared_swap();

  std::vector<Member> members(kProcs);
  for (unsigned i = 0; i < kProcs; ++i) {
    Member& m = members[i];
    m.sys = &group.add_process(test::numbered("p", i));
    mem::AddressSpace& as = m.sys->address_space();
    // A cold region with known contents: every later touch pays the shared
    // device, and the in-order eviction clusters the slots for readahead.
    m.base = as.alloc(kRegionPages * 4096, 4096);
    for (u64 p = 0; p < kRegionPages; ++p) as.write_u64(m.base + p * 4096, (u64{i} << 32) | p);
    m.sys->process().evict(m.base, kRegionPages * 4096);
    m.maps_at_start = as.faults_serviced();
  }
  // The cold-start evictions are setup: the ledger checks the run.
  const std::vector<const Pager*> pagers = group.pagers();
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
      mem::AddressSpace& as = m.sys->address_space();
      m.sys->pager()->handle_fault(va, write, [&as, va, write, completed] {
        if (!as.is_mapped(va)) as.map_page(va, /*writable=*/true);
        if (write) as.page_table().set_accessed_dirty(va, /*dirty=*/true);
        ++*completed;
      });
    }  // else: an idle gap — daemon ticks, prefetches, and writebacks drain
    const Cycles gap = rng.range(80, 2200);
    sim.schedule_in(gap, [&next_op, remaining] { next_op(remaining - 1); });
  };
  next_op(kOps);

  StressSnapshot s;
  const u64 events0 = sim.events_executed();
  group.drain(500'000'000ull);  // the machine ledger balances
  s.events = sim.events_executed() - events0;

  // --- post-drain invariants ---
  EXPECT_EQ(*completed, *issued) << "seed " << seed;
  EXPECT_FALSE(sched.busy()) << "seed " << seed;
  // Nobody's traffic is misattributed across the shared queue.
  EXPECT_EQ((MachineLedger::of(pagers) - before).check(), std::vector<std::string>{})
      << "seed " << seed;
  for (unsigned i = 0; i < kProcs; ++i) {
    const Member& m = members[i];
    const mem::AddressSpace& as = m.sys->address_space();
    const Pager& pager = *m.sys->pager();
    // Residency ledger: mappings since the cold start minus evictions is
    // exactly what remains resident.
    EXPECT_EQ(as.resident_pages(), as.faults_serviced() - m.maps_at_start - pager.evictions())
        << "seed " << seed << " p" << i;
    // Speculative flags never outlive residency.
    const u64 base_vpn = m.base >> 12;
    for (u64 p = 0; p < kRegionPages; ++p) {
      if (pager.is_speculative(base_vpn + p)) {
        EXPECT_TRUE(as.is_mapped(m.base + p * 4096)) << "seed " << seed << " p" << i;
      }
    }
  }
  // The mix must actually exercise contention, prefetch, and eviction.
  EXPECT_GT(sched.reads(), 0u) << "seed " << seed;

  s.cycles = sim.now();
  s.stats = sim.stats().snapshot();
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
      prefetches += static_cast<u64>(at(test::numbered("p", i) + ".pager.prefetches"));
    for (unsigned i = 0; i < kProcs; ++i)
      evictions += static_cast<u64>(at(test::numbered("p", i) + ".pager.evictions"));
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
