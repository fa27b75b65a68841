// Model-level property tests: randomized operation sequences checked
// against simple reference models (std::map page table, list-based LRU TLB,
// per-set LRU CPU cache, LRU page-walk cache), plus timing monotonicity
// properties of the DRAM model.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/frames.hpp"
#include "mem/pagetable.hpp"
#include "mem/physmem.hpp"
#include "mem/tlb.hpp"
#include "mem/walker.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace vmsls::mem {
namespace {

// --- page table vs std::map reference, random map/unmap/lookup streams ---

class PageTableFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(PageTableFuzz, MatchesReferenceMap) {
  PhysicalMemory pm(64 * MiB);
  FrameAllocator frames(0, (64 * MiB) / (4 * KiB), 4 * KiB);
  PageTable pt(pm, frames, PageTableConfig{});
  std::map<u64, std::pair<u64, bool>> ref;  // vpn -> (frame, writable)
  Rng rng(GetParam());

  for (int step = 0; step < 2000; ++step) {
    const u64 vpn = rng.below(512);  // dense region: plenty of collisions
    const VirtAddr va = (vpn << 12) | rng.below(4096);
    switch (rng.below(3)) {
      case 0: {  // map if absent
        if (ref.count(vpn)) break;
        const u64 frame = *frames.alloc();
        const bool writable = rng.chance(0.5);
        pt.map(vpn << 12, frame, writable);
        ref[vpn] = {frame, writable};
        break;
      }
      case 1: {  // unmap if present
        if (!ref.count(vpn)) break;
        pt.unmap(vpn << 12);
        frames.free(ref[vpn].first);
        ref.erase(vpn);
        break;
      }
      default: {  // lookup
        const auto got = pt.lookup(va);
        const auto it = ref.find(vpn);
        if (it == ref.end()) {
          EXPECT_FALSE(got.has_value()) << "vpn " << vpn << " step " << step;
        } else {
          ASSERT_TRUE(got.has_value()) << "vpn " << vpn << " step " << step;
          EXPECT_EQ(got->frame, it->second.first);
          EXPECT_EQ(got->writable, it->second.second);
        }
      }
    }
  }
  // Final sweep: every reference entry must be visible, nothing extra.
  for (const auto& [vpn, entry] : ref) {
    const auto got = pt.lookup(vpn << 12);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame, entry.first);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableFuzz, ::testing::Values(1u, 2u, 3u, 4u));

// --- TLB vs a list-based true-LRU reference ---

/// Fully associative reference model (exact LRU).
class RefTlb {
 public:
  explicit RefTlb(unsigned capacity) : capacity_(capacity) {}

  bool lookup(u64 vpn, u64& frame) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == vpn) {
        frame = it->second;
        order_.splice(order_.begin(), order_, it);  // move to front (MRU)
        return true;
      }
    }
    return false;
  }

  void insert(u64 vpn, u64 frame) {
    u64 dummy;
    if (lookup(vpn, dummy)) {
      order_.front().second = frame;
      return;
    }
    if (order_.size() == capacity_) order_.pop_back();
    order_.emplace_front(vpn, frame);
  }

  void invalidate(u64 vpn) {
    order_.remove_if([vpn](const auto& e) { return e.first == vpn; });
  }

 private:
  unsigned capacity_;
  std::list<std::pair<u64, u64>> order_;
};

class TlbFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(TlbFuzz, FullyAssociativeTlbMatchesExactLru) {
  StatRegistry stats;
  TlbConfig cfg;
  cfg.entries = 8;
  cfg.ways = 8;  // fully associative: reference model applies exactly
  Tlb tlb(cfg, stats, "t");
  RefTlb ref(8);
  Rng rng(GetParam());

  for (int step = 0; step < 5000; ++step) {
    const u64 vpn = rng.below(24);
    switch (rng.below(3)) {
      case 0: {
        const u64 frame = rng.below(1000);
        tlb.insert(vpn, frame, true);
        ref.insert(vpn, frame);
        break;
      }
      case 1: {
        tlb.invalidate(vpn);
        ref.invalidate(vpn);
        break;
      }
      default: {
        u64 ref_frame = 0;
        const bool ref_hit = ref.lookup(vpn, ref_frame);
        const auto got = tlb.lookup(vpn);
        ASSERT_EQ(got.has_value(), ref_hit) << "vpn " << vpn << " step " << step;
        if (ref_hit) {
          EXPECT_EQ(got->frame, ref_frame);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbFuzz, ::testing::Values(11u, 22u, 33u, 44u));

// --- CPU cache level vs a per-set true-LRU reference ---

/// Write-back, write-allocate reference: `sets` lists of (line, dirty),
/// least recent first, set = line % sets.
struct RefCache {
  struct Line {
    u64 line;
    bool dirty;
  };
  RefCache(unsigned sets, unsigned ways, unsigned line_bytes)
      : ways(ways), line_bytes(line_bytes), lru(sets) {}

  CacheLevel::Outcome access(PhysAddr addr, bool is_write) {
    const u64 line = addr / line_bytes;
    auto& set = lru[line % lru.size()];
    const auto it =
        std::find_if(set.begin(), set.end(), [&](const Line& l) { return l.line == line; });
    if (it != set.end()) {
      const Line hit{line, it->dirty || is_write};
      set.erase(it);
      set.push_back(hit);
      return CacheLevel::Outcome{true, false, 0};
    }
    CacheLevel::Outcome out;
    if (set.size() == ways) {
      if (set.front().dirty) {
        out.writeback = true;
        out.writeback_addr = set.front().line * line_bytes;
      }
      set.erase(set.begin());
    }
    set.push_back(Line{line, is_write});
    return out;
  }
  void flush() {
    for (auto& set : lru) set.clear();
  }

  unsigned ways;
  unsigned line_bytes;
  std::vector<std::vector<Line>> lru;
};

TEST(CacheLevelFuzz, EveryGeometryMatchesPerSetLru) {
  // 16 sets (mask-sized), one fully associative set, and three and five
  // sets (not powers of two): every hit, miss, dirty victim and writeback
  // address agrees with the line % sets reference over a seeded mix.
  const CacheConfig geometries[] = {
      {1 * KiB, 2, 32, 1}, {8 * 16, 8, 16, 1}, {3 * 2 * 32, 2, 32, 1}, {5 * 4 * 64, 4, 64, 1}};
  for (const CacheConfig& c : geometries) {
    const unsigned sets = static_cast<unsigned>(c.size_bytes / c.line_bytes / c.ways);
    SCOPED_TRACE(std::to_string(sets) + " sets of " + std::to_string(c.ways) + " ways");
    StatRegistry stats;
    CacheLevel cache(c, stats, "c");
    RefCache ref(sets, c.ways, c.line_bytes);
    Rng rng(sets * 31 + c.ways);
    u64 accesses = 0, ref_hits = 0, ref_writebacks = 0;
    for (int i = 0; i < 6000; ++i) {
      if (rng.below(700) == 0) {
        cache.flush();
        ref.flush();
        continue;
      }
      // Lines far apart share sets, so tags above the set bits matter.
      const u64 line = rng.below(3 * sets * c.ways) + (rng.chance(0.3) ? 0x40'0000 : 0);
      const PhysAddr addr = line * c.line_bytes + rng.below(c.line_bytes);
      const bool is_write = rng.chance(0.4);
      const auto got = cache.access(addr, is_write);
      const auto want = ref.access(addr, is_write);
      ++accesses;
      ASSERT_EQ(got.hit, want.hit) << "op " << i << " addr " << addr;
      ASSERT_EQ(got.writeback, want.writeback) << "op " << i << " addr " << addr;
      ASSERT_EQ(got.writeback_addr, want.writeback_addr) << "op " << i << " addr " << addr;
      ref_hits += want.hit;
      ref_writebacks += want.writeback;
    }
    EXPECT_EQ(cache.hits(), ref_hits);
    EXPECT_EQ(cache.misses(), accesses - ref_hits);
    EXPECT_EQ(stats.counter_value("c.writebacks"), ref_writebacks);
    EXPECT_GT(ref_writebacks, 200u);
  }
}

// --- page-walk cache vs a fully associative LRU reference ---

TEST(WalkCacheFuzz, EvictsLeafTablesInLruOrder) {
  // Twelve leaf-table regions (2 MiB each at 4 KiB pages) walked in a
  // seeded order through a 4-entry walk cache: a walk whose region the
  // reference still holds reads one PTE, any other reads all three levels.
  test::MemorySystem ms;
  WalkerConfig wcfg;
  wcfg.walk_cache_entries = 4;
  PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), wcfg, "w");
  constexpr unsigned kRegions = 12;
  constexpr unsigned kRegionShift = 21;
  for (u64 r = 0; r < kRegions; ++r) ms.as.populate(r << kRegionShift, 2 * 4096);

  std::vector<u64> ref;  // region tags, least recent first
  u64 ref_hits = 0, ref_misses = 0;
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    if (rng.below(300) == 0) {
      walker.flush_cache();
      ref.clear();
      continue;
    }
    // A skewed mix: small regions recur, so both hits and evictions happen.
    const u64 region = std::min(rng.below(kRegions), rng.below(kRegions));
    const VirtAddr va = (region << kRegionShift) + rng.below(2) * 4096;
    const auto it = std::find(ref.begin(), ref.end(), region);
    const bool hit = it != ref.end();
    if (hit) {
      ref.erase(it);
    } else if (ref.size() == wcfg.walk_cache_entries) {
      ref.erase(ref.begin());
    }
    ref.push_back(region);
    ref_hits += hit;
    ref_misses += !hit;

    const u64 reads_before = ms.sim.stats().counter_value("w.mem_reads");
    bool done = false;
    walker.walk(va, [&](const WalkResult& r) {
      EXPECT_FALSE(r.fault);
      done = true;
    });
    ms.run_all();
    ASSERT_TRUE(done);
    ASSERT_EQ(ms.sim.stats().counter_value("w.mem_reads") - reads_before, hit ? 1u : 3u)
        << "walk " << i << " region " << region;
  }
  EXPECT_EQ(ms.sim.stats().counter_value("w.cache_hits"), ref_hits);
  EXPECT_EQ(ms.sim.stats().counter_value("w.cache_misses"), ref_misses);
  EXPECT_GT(ref_hits, 500u);
  EXPECT_GT(ref_misses, 500u);
}

// --- DRAM timing properties ---

TEST(DramProperties, CompletionNeverBeforeStart) {
  sim::Simulator sim;
  DramConfig cfg;
  cfg.size_bytes = 16 * MiB;
  DramModel dram(cfg, sim.stats(), "d");
  Rng rng(5);
  Cycles now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += rng.below(20);
    const PhysAddr addr = rng.below(16 * MiB - 4096);
    const u32 bytes = static_cast<u32>(1 + rng.below(2048));
    const Cycles done = dram.access(addr, bytes, rng.chance(0.3), now);
    ASSERT_GE(done, now + dram.config().t_cas);
  }
}

TEST(DramProperties, SameBankRequestsNeverOverlap) {
  sim::Simulator sim;
  DramConfig cfg;
  cfg.size_bytes = 16 * MiB;
  DramModel dram(cfg, sim.stats(), "d");
  // Issue many requests to one bank at time 0: completions strictly order.
  Cycles prev = 0;
  for (int i = 0; i < 50; ++i) {
    const Cycles done = dram.access(static_cast<u64>(i) * cfg.row_bytes * cfg.banks, 64, false, 0);
    ASSERT_GT(done, prev);
    prev = done;
  }
}

TEST(DramProperties, ThroughputBoundedByBandwidth) {
  sim::Simulator sim;
  DramConfig cfg;
  cfg.size_bytes = 16 * MiB;
  DramModel dram(cfg, sim.stats(), "d");
  // Stream 1 MiB sequentially; completion time must be at least
  // bytes / data_bytes_per_cycle (the pin-rate bound).
  Cycles done = 0;
  const u64 total = 1 * MiB;
  for (u64 off = 0; off < total; off += 2048)
    done = dram.access(off, 2048, false, done);
  EXPECT_GE(done, total / cfg.data_bytes_per_cycle);
}

}  // namespace
}  // namespace vmsls::mem
