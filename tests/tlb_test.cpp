#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mem/tlb.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vmsls::mem {
namespace {

TlbConfig cfg(unsigned entries, unsigned ways) {
  TlbConfig c;
  c.entries = entries;
  c.ways = ways;
  return c;
}

TEST(Tlb, MissOnEmpty) {
  StatRegistry stats;
  Tlb tlb(cfg(8, 2), stats, "t");
  EXPECT_FALSE(tlb.lookup(5).has_value());
  EXPECT_EQ(tlb.misses(), 1u);
  EXPECT_EQ(tlb.hits(), 0u);
}

TEST(Tlb, HitAfterInsert) {
  StatRegistry stats;
  Tlb tlb(cfg(8, 2), stats, "t");
  tlb.insert(5, 99, true);
  const auto e = tlb.lookup(5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->frame, 99u);
  EXPECT_TRUE(e->writable);
  EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, PeekDoesNotCount) {
  StatRegistry stats;
  Tlb tlb(cfg(8, 2), stats, "t");
  tlb.insert(5, 99, false);
  EXPECT_TRUE(tlb.peek(5).has_value());
  EXPECT_FALSE(tlb.peek(6).has_value());
  EXPECT_EQ(tlb.hits(), 0u);
  EXPECT_EQ(tlb.misses(), 0u);
}

TEST(Tlb, InvalidateRemovesOne) {
  StatRegistry stats;
  Tlb tlb(cfg(8, 2), stats, "t");
  tlb.insert(1, 10, true);
  tlb.insert(2, 20, true);
  tlb.invalidate(1);
  EXPECT_FALSE(tlb.peek(1).has_value());
  EXPECT_TRUE(tlb.peek(2).has_value());
}

TEST(Tlb, FlushRemovesAll) {
  StatRegistry stats;
  Tlb tlb(cfg(8, 2), stats, "t");
  for (u64 v = 0; v < 8; ++v) tlb.insert(v, v, true);
  tlb.flush();
  for (u64 v = 0; v < 8; ++v) EXPECT_FALSE(tlb.peek(v).has_value());
}

TEST(Tlb, LruEvictionWithinSet) {
  StatRegistry stats;
  // Fully associative 2-entry TLB: third insert evicts the least recent.
  Tlb tlb(cfg(2, 2), stats, "t");
  tlb.insert(1, 10, true);
  tlb.insert(2, 20, true);
  tlb.lookup(1);           // 1 is now most recent
  tlb.insert(3, 30, true);  // evicts 2
  EXPECT_TRUE(tlb.peek(1).has_value());
  EXPECT_FALSE(tlb.peek(2).has_value());
  EXPECT_TRUE(tlb.peek(3).has_value());
}

TEST(Tlb, ReinsertUpdatesInPlace) {
  StatRegistry stats;
  Tlb tlb(cfg(4, 2), stats, "t");
  tlb.insert(1, 10, false);
  tlb.insert(1, 11, true);  // remap: no eviction, new payload
  const auto e = tlb.peek(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->frame, 11u);
  EXPECT_TRUE(e->writable);
  EXPECT_EQ(stats.counter_value("t.evictions"), 0u);
}

TEST(Tlb, SetConflictsEvict) {
  StatRegistry stats;
  // Direct-mapped 4-set TLB: vpns congruent mod 4 collide.
  Tlb tlb(cfg(4, 1), stats, "t");
  tlb.insert(0, 1, true);
  tlb.insert(4, 2, true);  // same set
  EXPECT_FALSE(tlb.peek(0).has_value());
  EXPECT_TRUE(tlb.peek(4).has_value());
  EXPECT_EQ(stats.counter_value("t.evictions"), 1u);
}

TEST(Tlb, HitRateComputed) {
  StatRegistry stats;
  Tlb tlb(cfg(8, 2), stats, "t");
  tlb.insert(1, 1, true);
  tlb.lookup(1);
  tlb.lookup(2);
  EXPECT_DOUBLE_EQ(tlb.hit_rate(), 0.5);
}

TEST(Tlb, InvalidGeometryRejected) {
  StatRegistry stats;
  EXPECT_THROW(Tlb(cfg(0, 1), stats, "t"), std::invalid_argument);
  EXPECT_THROW(Tlb(cfg(6, 4), stats, "t"), std::invalid_argument);  // 6 % 4 != 0
}

TEST(Tlb, WithEntriesKeepsGeometryLegal) {
  const auto geometry = [](const TlbConfig& c) { return std::pair{c.entries, c.ways}; };
  const TlbConfig four_way = cfg(16, 4);
  EXPECT_EQ(geometry(four_way.with_entries(6)), std::pair(6u, 2u));
  EXPECT_EQ(geometry(four_way.with_entries(1)), std::pair(1u, 1u));
  EXPECT_EQ(geometry(four_way.with_entries(64)), std::pair(64u, 4u));
  const TlbConfig two_way = cfg(16, 2);
  EXPECT_EQ(geometry(two_way.with_entries(2)), std::pair(2u, 2u));
  EXPECT_EQ(geometry(two_way.with_entries(7)), std::pair(7u, 1u));
  EXPECT_EQ(geometry(two_way.with_entries(64)), std::pair(64u, 2u));
  // Everything but the geometry carries over, and the result is buildable.
  TlbConfig slow = cfg(16, 4);
  slow.hit_latency = 3;
  EXPECT_EQ(slow.with_entries(6).hit_latency, 3u);
  StatRegistry stats;
  EXPECT_NO_THROW(Tlb(four_way.with_entries(6), stats, "t"));
}

TEST(Tlb, WithZeroEntriesThrows) {
  EXPECT_THROW(cfg(16, 4).with_entries(0), std::invalid_argument);
}

/// Reference model: `sets` true-LRU sets of `ways` vpns, set = vpn % sets.
struct RefTlb {
  RefTlb(unsigned sets, unsigned ways) : ways(ways), lru(sets) {}
  std::vector<u64>& set(u64 vpn) { return lru[vpn % lru.size()]; }  // least recent first
  bool lookup(u64 vpn) {
    auto& s = set(vpn);
    const auto it = std::find(s.begin(), s.end(), vpn);
    if (it == s.end()) return false;
    s.erase(it);
    s.push_back(vpn);
    return true;
  }
  void insert(u64 vpn) {
    if (lookup(vpn)) return;
    auto& s = set(vpn);
    if (s.size() == ways) {
      s.erase(s.begin());
      ++evictions;
    }
    s.push_back(vpn);
  }
  void invalidate(u64 vpn) { std::erase(set(vpn), vpn); }

  unsigned ways;
  std::vector<std::vector<u64>> lru;
  u64 evictions = 0;
};

TEST(Tlb, EveryGeometryPicksTheSetAndVictimOfVpnModSets) {
  // One set (fully associative: the mask is 0), two sets (mask), and 16 x
  // 4 resized to 6 (6 x 2, three sets: the divide) each agree with the
  // vpn % sets reference on every hit, miss and eviction of a seeded mix.
  for (const TlbConfig& c : {cfg(16, 4).with_entries(4), cfg(4, 2), cfg(16, 4).with_entries(6)}) {
    const unsigned sets = c.entries / c.ways;
    SCOPED_TRACE(std::to_string(sets) + " sets of " + std::to_string(c.ways) + " ways");
    StatRegistry stats;
    Tlb tlb(c, stats, "t");
    RefTlb ref(sets, c.ways);
    Rng rng(sets);
    for (int i = 0; i < 4000; ++i) {
      const u64 vpn = rng.below(24) * 0x1'0000'0001ull;  // high bits must not pick the set
      switch (rng.below(4)) {
        case 0: tlb.insert(vpn, vpn + 7, true); ref.insert(vpn); break;
        case 1: tlb.invalidate(vpn); ref.invalidate(vpn); break;
        default: {
          const auto hit = tlb.lookup(vpn);
          ASSERT_EQ(hit.has_value(), ref.lookup(vpn)) << "op " << i << " vpn " << vpn;
          if (hit) {
            EXPECT_EQ(hit->frame, vpn + 7);
          }
        }
      }
    }
    EXPECT_EQ(stats.counter_value("t.evictions"), ref.evictions);
    EXPECT_GT(ref.evictions, 100u);
  }
}

// Property sweep: for any geometry, a TLB holding at most `entries`
// translations never evicts when the working set fits, and always hits
// after a fill pass.
class TlbGeometry : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(TlbGeometry, WorkingSetWithinCapacityAlwaysHits) {
  const auto [entries, ways] = GetParam();
  StatRegistry stats;
  Tlb tlb(cfg(entries, ways), stats, "t");
  const unsigned sets = entries / ways;
  // Touch exactly `ways` vpns per set: fills without eviction.
  for (unsigned s = 0; s < sets; ++s)
    for (unsigned w = 0; w < ways; ++w) tlb.insert(s + w * sets, s * 100 + w, true);
  for (unsigned s = 0; s < sets; ++s)
    for (unsigned w = 0; w < ways; ++w) {
      const auto e = tlb.lookup(s + w * sets);
      ASSERT_TRUE(e.has_value());
      EXPECT_EQ(e->frame, s * 100 + w);
    }
  EXPECT_EQ(stats.counter_value("t.evictions"), 0u);
  EXPECT_EQ(tlb.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbGeometry,
                         ::testing::Values(std::pair{1u, 1u}, std::pair{4u, 1u},
                                           std::pair{4u, 4u}, std::pair{16u, 4u},
                                           std::pair{64u, 8u}, std::pair{64u, 64u}));

}  // namespace
}  // namespace vmsls::mem
