// Paging subsystem: replacement-policy victim order, pager budget
// enforcement, and the eviction correctness backbone (TLB shootdown +
// walk-cache flush + backing-store round trip). Swap device units live in
// swap_device_test.cpp, the swap queue in swap_sched_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "mem/mmu.hpp"
#include "mem/paging/pager.hpp"
#include "mem/paging/replacement.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "mem/walker.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace vmsls::paging {
namespace {

using test::MemorySystem;

// --- replacement policies ---

TEST(ReplacementPolicy, ParseRoundTrip) {
  for (const auto kind : {PolicyKind::kClock, PolicyKind::kLruApprox, PolicyKind::kFifo,
                          PolicyKind::kRandom})
    EXPECT_EQ(parse_policy(policy_name(kind)), kind);
  EXPECT_THROW(parse_policy("mru"), std::invalid_argument);
}

struct PolicyFixture : ::testing::Test {
  MemorySystem ms;
  test::KeyOwner owner{ms.as.page_table()};
  static constexpr VirtAddr kBase = 0x10000;

  u64 vpn(unsigned i) const { return (kBase >> 12) + i; }

  /// Maps `count` pages and clears their accessed bits (populate's writes
  /// would otherwise leave every page marked used).
  void map_pages(unsigned count) {
    ms.as.populate(kBase, count * 4096ull);
    for (unsigned i = 0; i < count; ++i)
      ms.as.page_table().test_and_clear_accessed(kBase + i * 4096ull);
  }

  void touch(unsigned i) { ms.as.page_table().set_accessed_dirty(kBase + i * 4096ull, false); }
};

TEST_F(PolicyFixture, FifoEvictsInInsertionOrder) {
  auto policy = make_policy(PolicyKind::kFifo, owner);
  map_pages(3);
  for (unsigned i = 0; i < 3; ++i) policy->on_insert(vpn(i));
  touch(0);  // FIFO ignores access history
  EXPECT_EQ(policy->pick_victim(), vpn(0));
  policy->on_remove(vpn(0));
  EXPECT_EQ(policy->pick_victim(), vpn(1));
  policy->on_remove(vpn(1));
  policy->on_remove(vpn(2));
  EXPECT_FALSE(policy->pick_victim().has_value());
}

TEST_F(PolicyFixture, ClockGivesAccessedPagesASecondChance) {
  auto policy = make_policy(PolicyKind::kClock, owner);
  map_pages(3);
  for (unsigned i = 0; i < 3; ++i) policy->on_insert(vpn(i));
  touch(1);
  // Page 1 is referenced: whatever the hand position, the first victim must
  // be one of the unreferenced pages.
  const auto victim = policy->pick_victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, vpn(1));
  // The sweep cleared page 1's bit; with no re-reference it is now fair
  // game. Evict the first victim and the rest must drain, 1 included.
  policy->on_remove(*victim);
  const auto second = policy->pick_victim();
  ASSERT_TRUE(second.has_value());
  policy->on_remove(*second);
  EXPECT_EQ(policy->pick_victim(), policy->pick_victim());  // stable when idle
}

TEST_F(PolicyFixture, ClockEventuallyEvictsEvenWhenAllReferenced) {
  auto policy = make_policy(PolicyKind::kClock, owner);
  map_pages(3);
  for (unsigned i = 0; i < 3; ++i) {
    policy->on_insert(vpn(i));
    touch(i);
  }
  EXPECT_TRUE(policy->pick_victim().has_value());
}

TEST_F(PolicyFixture, LruAgingPrefersTheColdestPage) {
  auto policy = make_policy(PolicyKind::kLruApprox, owner);
  map_pages(3);
  for (unsigned i = 0; i < 3; ++i) policy->on_insert(vpn(i));
  // Several rounds in which pages 0 and 2 stay hot and page 1 goes cold.
  for (int round = 0; round < 8; ++round) {
    touch(0);
    touch(2);
    policy->pick_victim();  // aging sweep
  }
  touch(0);
  touch(2);
  EXPECT_EQ(policy->pick_victim(), vpn(1));
}

TEST_F(PolicyFixture, EveryPolicySkipsPinnedPages) {
  // Pinned pages (in-flight hardware accesses) must never be nominated:
  // evicting one would retarget the frame underneath a committed bus
  // transaction. With everything pinned, selection fails outright.
  for (const auto kind : {PolicyKind::kClock, PolicyKind::kLruApprox, PolicyKind::kFifo,
                          PolicyKind::kRandom}) {
    auto policy = make_policy(kind, owner, 5);
    map_pages(3);
    for (unsigned i = 0; i < 3; ++i) policy->on_insert(vpn(i));
    owner.pins = {vpn(0), vpn(1)};
    for (int round = 0; round < 4; ++round) {
      const auto victim = policy->pick_victim();
      ASSERT_TRUE(victim.has_value()) << policy->name();
      EXPECT_EQ(*victim, vpn(2)) << policy->name();
    }
    owner.pins.insert(vpn(2));
    EXPECT_FALSE(policy->pick_victim().has_value()) << policy->name();
  }
}

TEST_F(PolicyFixture, RandomIsDeterministicUnderASeed) {
  auto a = make_policy(PolicyKind::kRandom, owner, 99);
  auto b = make_policy(PolicyKind::kRandom, owner, 99);
  map_pages(8);
  for (unsigned i = 0; i < 8; ++i) {
    a->on_insert(vpn(i));
    b->on_insert(vpn(i));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a->pick_victim(), b->pick_victim());
}

TEST(ReplacementPolicy, ClockRemoveOfAKeyNeverHeldIsANoOp) {
  MemorySystem ms;
  test::KeyOwner owner(ms.as.page_table());  // nothing mapped: nothing referenced
  auto policy = make_policy(PolicyKind::kClock, owner);
  policy->on_remove(7);  // empty ring
  for (const u64 key : {3, 4, 5}) policy->on_insert(key);
  policy->on_remove(6);        // inside the tables' range, never held
  policy->on_remove(1ull << 40);  // far past the tables' end
  EXPECT_EQ(policy->tracked_pages(), 3u);
  EXPECT_EQ(policy->pick_victim(), 3u);
  policy->on_remove(3);
  policy->on_remove(3);  // already gone
  EXPECT_EQ(policy->tracked_pages(), 2u);
  EXPECT_EQ(policy->pick_victim(), 4u);
}

/// The CLOCK ring as a std::list plus a hash map of iterators: the
/// reference the key-indexed ring must match nomination for nomination.
class ListClock {
 public:
  explicit ListClock(KeyOwner& owner) : owner_(owner) {}

  void on_insert(u64 key) {
    if (ring_.empty()) {
      pos_[key] = ring_.insert(ring_.end(), key);
      hand_ = ring_.begin();
    } else {
      pos_[key] = ring_.insert(hand_, key);
    }
  }

  void on_remove(u64 key) {
    auto it = pos_.find(key);
    if (it == pos_.end()) return;
    if (it->second == hand_) {
      hand_ = ring_.erase(it->second);
      if (hand_ == ring_.end()) hand_ = ring_.begin();
    } else {
      ring_.erase(it->second);
    }
    pos_.erase(it);
  }

  std::optional<u64> pick_victim() {
    if (ring_.empty()) return std::nullopt;
    auto it = hand_;
    for (u64 step = 0; step < ring_.size(); ++step) {
      const u64 key = *it;
      if (owner_.speculative(key) && !owner_.pinned(key) && !owner_.test_and_clear_accessed(key))
        return key;
      if (++it == ring_.end()) it = ring_.begin();
    }
    for (u64 step = 0; step < 2 * ring_.size(); ++step) {
      const u64 key = *hand_;
      if (!owner_.pinned(key) && !owner_.test_and_clear_accessed(key)) return key;
      if (++hand_ == ring_.end()) hand_ = ring_.begin();
    }
    it = hand_;
    for (u64 step = 0; step < ring_.size(); ++step) {
      const u64 key = *it;
      if (!owner_.pinned(key)) return key;
      if (++it == ring_.end()) it = ring_.begin();
    }
    return std::nullopt;
  }

  u64 size() const { return ring_.size(); }

 private:
  KeyOwner& owner_;
  std::list<u64> ring_;
  std::list<u64>::iterator hand_ = ring_.end();
  std::unordered_map<u64, std::list<u64>::iterator> pos_;
};

/// ~10k seeded insert/remove/pick/touch/pin/speculate operations over keys
/// `first + [0, span)`, checking every nomination and, after every
/// operation, the hand position against the list-based reference. Each
/// side owns one page table mapping every key, so accessed bits are PTE
/// bits that the side's own probes test-and-clear.
void expect_clock_matches_list_ring(u64 first, u64 span, u64 seed) {
  MemorySystem ms;
  mem::PageTable mine_pt(ms.pm, ms.frames, {});
  mem::PageTable ref_pt(ms.pm, ms.frames, {});
  for (u64 key = first; key < first + span; ++key) {
    mine_pt.map(key << 12, /*frame=*/0, true);  // the frame is never read
    ref_pt.map(key << 12, /*frame=*/0, true);
  }
  test::KeyOwner mine(mine_pt), ref(ref_pt);
  auto policy = make_policy(PolicyKind::kClock, mine);
  ListClock list(ref);

  Rng rng(seed);
  std::vector<u64> held;  // keys in the ring, in insertion order
  std::set<u64> held_set;
  auto random_key = [&] { return first + rng.below(span); };
  // Forgets a removed key's accessed bit and speculative state on both sides.
  auto forget = [&](u64 key) {
    for (test::KeyOwner* side : {&mine, &ref}) {
      side->pt.test_and_clear_accessed(key << 12);
      side->landings.erase(key);
    }
  };
  u64 nominations = 0;
  for (int op = 0; op < 10000; ++op) {
    const u64 r = rng.below(100);
    if (r < 30 || held.empty()) {
      const u64 key = random_key();
      if (held_set.insert(key).second) {
        held.push_back(key);
        policy->on_insert(key);
        list.on_insert(key);
      }
    } else if (r < 45) {
      // Remove a held key, or (one time in four) a key the ring may never
      // have held.
      u64 key = random_key();
      if (rng.below(4) != 0) {
        const std::size_t i = rng.below(held.size());
        key = held[i];
      }
      if (held_set.erase(key) != 0) held.erase(std::find(held.begin(), held.end(), key));
      forget(key);
      policy->on_remove(key);
      list.on_remove(key);
    } else if (r < 70) {
      const u64 key = held[rng.below(held.size())];
      mine_pt.set_accessed_dirty(key << 12, false);
      ref_pt.set_accessed_dirty(key << 12, false);
    } else if (r < 78) {
      const u64 key = held[rng.below(held.size())];
      for (test::KeyOwner* side : {&mine, &ref})
        if (side->pins.erase(key) == 0) side->pins.insert(key);
    } else if (r < 83) {
      const u64 key = held[rng.below(held.size())];
      mine.landings.insert(key);
      ref.landings.insert(key);
    } else {
      const auto got = policy->pick_victim();
      ASSERT_EQ(got, list.pick_victim()) << "op " << op;
      ++nominations;
      // Usually the owner evicts the nominee, as the pager does.
      if (got && rng.below(3) != 0) {
        held_set.erase(*got);
        held.erase(std::find(held.begin(), held.end(), *got));
        forget(*got);
        policy->on_remove(*got);
        list.on_remove(*got);
      }
    }
    ASSERT_EQ(policy->tracked_pages(), list.size()) << "op " << op;
    mine.frozen = ref.frozen = true;
    ASSERT_EQ(policy->pick_victim(), list.pick_victim()) << "hand after op " << op;
    mine.frozen = ref.frozen = false;
  }
  EXPECT_GT(nominations, 1000u);
}

TEST(ReplacementPolicy, ClockVictimOrderMatchesTheListRingOverVpnKeys) {
  expect_clock_matches_list_ring(/*first=*/0x10, /*span=*/96, /*seed=*/11);
}

TEST(ReplacementPolicy, ClockVictimOrderMatchesTheListRingOverFrameKeys) {
  expect_clock_matches_list_ring(/*first=*/256, /*span=*/4096, /*seed=*/12);
}

// --- pager integration: budget, shootdown, data round trip ---

struct PagerFixture : ::testing::Test {
  MemorySystem ms;
  rt::Process process{ms.sim, ms.as, "proc"};
  std::unique_ptr<mem::PageWalker> walker;
  std::unique_ptr<mem::Mmu> mmu;
  std::unique_ptr<rt::OsModel> os;
  std::unique_ptr<rt::FaultHandler> faults;
  test::PagerPtr pager;

  void make(u64 budget, PolicyKind kind = PolicyKind::kClock) {
    walker = std::make_unique<mem::PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(),
                                               mem::WalkerConfig{}, "w");
    mmu = std::make_unique<mem::Mmu>(ms.sim, *walker, mem::MmuConfig{}, "mmu", 0);
    process.register_mmu(mmu.get());
    process.register_walker(walker.get());
    os = std::make_unique<rt::OsModel>(ms.sim, rt::OsConfig{}, "os");
    faults = std::make_unique<rt::FaultHandler>(ms.sim, *os, process, "faults");
    mmu->set_fault_sink(faults.get());
    PagerConfig cfg;
    cfg.frame_budget = budget;
    cfg.policy = kind;
    pager = test::PagerPtr(ms.sim, process, cfg, "pager");
    faults->set_pager(pager.get());
  }

  PhysAddr translate_sync(VirtAddr va, bool write = false) {
    PhysAddr out = ~0ull;
    mmu->translate(va, write, [&](PhysAddr pa) { out = pa; });
    ms.run_all();
    return out;
  }
};

TEST_F(PagerFixture, EvictMidWorkloadRoundTripsThroughBackingStore) {
  make(/*budget=*/2);
  const VirtAddr base = ms.as.alloc(4 * 4096, 4096);
  // Software writes distinct patterns into four pages (maps them all).
  for (u64 p = 0; p < 4; ++p)
    for (u64 w = 0; w < 8; ++w)
      ms.as.write_u64(base + p * 4096 + w * 8, 0xA000'0000ull + p * 100 + w);
  EXPECT_EQ(ms.as.resident_pages(), 4u);

  // Cold-start: everything out, then the "hardware thread" touches all four
  // pages under a two-frame budget, forcing pager evictions mid-workload.
  process.evict(base, 4 * 4096);
  EXPECT_EQ(ms.as.resident_pages(), 0u);
  const u64 shootdowns_before = process.shootdowns();
  for (u64 p = 0; p < 4; ++p)
    EXPECT_NE(translate_sync(base + p * 4096, /*write=*/true), ~0ull);

  // Budget respected on the fault path, victims chosen and shot down.
  EXPECT_LE(ms.as.resident_pages(), 2u);
  EXPECT_GE(pager->evictions(), 2u);
  EXPECT_GT(process.shootdowns(), shootdowns_before);
  EXPECT_GE(pager->swap_ins(), 1u);  // pages came back from swap, timed
  // Dirty pages (written through the MMU) paid writeback on eviction.
  EXPECT_GE(pager->writebacks(), 1u);

  // The data survived the full evict/swap round trip.
  for (u64 p = 0; p < 4; ++p)
    for (u64 w = 0; w < 8; ++w)
      EXPECT_EQ(ms.as.read_u64(base + p * 4096 + w * 8), 0xA000'0000ull + p * 100 + w);
}

TEST_F(PagerFixture, EvictionInvalidatesTlbAndWalkCache) {
  make(/*budget=*/1);
  const VirtAddr va0 = ms.as.alloc(4096, 4096);
  const VirtAddr va1 = ms.as.alloc(4096, 4096);
  translate_sync(va0);  // faults in, fills TLB
  const u64 misses_after_first = mmu->tlb().misses();
  translate_sync(va0);  // pure TLB hit
  EXPECT_EQ(mmu->tlb().misses(), misses_after_first);

  translate_sync(va1);  // budget 1: evicts va0's page, shoots down its TLB entry
  EXPECT_FALSE(ms.as.is_mapped(va0));
  translate_sync(va0);  // must re-walk and re-fault, not hit a stale entry
  EXPECT_GT(mmu->tlb().misses(), misses_after_first);
  EXPECT_TRUE(ms.as.is_mapped(va0));
}

TEST_F(PagerFixture, SwapTimeLengthensFaultService) {
  make(/*budget=*/1);
  const VirtAddr va = ms.as.alloc(4096, 4096);
  const Cycles t0 = ms.sim.now();
  translate_sync(va, /*write=*/true);  // zero-fill fault: no swap read
  const Cycles cold_fill = ms.sim.now() - t0;

  const VirtAddr other = ms.as.alloc(4096, 4096);
  translate_sync(other, /*write=*/true);  // evicts va's dirty page -> writeback

  const Cycles t1 = ms.sim.now();
  translate_sync(va);  // swap-in: pays the device read on top of the OS path
  const Cycles swap_fill = ms.sim.now() - t1;
  EXPECT_GT(swap_fill, cold_fill);
  EXPECT_GE(pager->swap().reads(), 1u);
}

TEST_F(PagerFixture, FrameExhaustionTriggersReclaimInsteadOfThrowing) {
  // Tiny allocator: 8 frames, 3 consumed by page-table nodes. A huge budget
  // means the fault path never evicts — only the allocator pressure
  // callback can save the 6th data page.
  // Region distinct from the fixture allocator's, so the two page tables
  // never alias physical frames.
  mem::FrameAllocator tiny(1 * MiB, 8, 4096);
  mem::AddressSpace as(ms.pm, tiny, mem::PageTableConfig{});
  rt::Process proc(ms.sim, as, "tiny");
  PagerConfig cfg;
  cfg.frame_budget = 1000;
  const test::PagerPtr p(ms.sim, proc, cfg, "tiny_pager");

  const VirtAddr base = as.alloc(8 * 4096, 4096);
  for (u64 i = 0; i < 8; ++i) as.write_u64(base + i * 4096, i + 1);
  EXPECT_GT(ms.sim.stats().counter_value("tiny_pager.reclaims"), 0u);
  for (u64 i = 0; i < 8; ++i) EXPECT_EQ(as.read_u64(base + i * 4096), i + 1);
}

TEST_F(PagerFixture, ReclaimCountsFramesFreedNotSharersUnmapped) {
  // Regression: evicting one sharer of a forked frame unmaps a page but
  // frees nothing. Reclaim used to count it anyway, so when the first
  // victims CLOCK nominated were all shared, map_page threw "nothing
  // reclaimable" while a private page was still evictable.
  mem::FrameAllocator tiny(1 * MiB, 16, 4096);
  mem::AddressSpace parent(ms.pm, tiny, mem::PageTableConfig{});
  rt::Process proc(ms.sim, parent, "tiny");
  PagerConfig cfg;
  cfg.frame_budget = 1000;  // the fault path never evicts
  const test::PagerPtr p(ms.sim, proc, cfg, "tiny_pager");

  // Three pages shared with a forked child, then one private page: CLOCK's
  // ring holds the shared ones first.
  const VirtAddr base = parent.alloc(5 * 4096, 4096);
  for (u64 i = 0; i < 3; ++i) parent.write_u64(base + i * 4096, i + 1);
  mem::AddressSpace child(ms.pm, tiny, mem::PageTableConfig{});
  ASSERT_EQ(child.fork_from(parent), 3u);
  parent.write_u64(base + 3 * 4096, 4);
  while (tiny.alloc()) continue;  // exhaust the allocator

  // map_page asks for one frame per page-table level; only the private
  // page can free one, and reclaim must reach it past the shared victims.
  EXPECT_NO_THROW(parent.write_u64(base + 4 * 4096, 5));
  EXPECT_EQ(parent.read_u64(base + 4 * 4096), 5u);
  EXPECT_EQ(ms.sim.stats().counter_value("tiny_pager.reclaims"), 4u);
  EXPECT_FALSE(parent.is_mapped(base + 3 * 4096));
  EXPECT_EQ(child.resident_pages(), 3u);
  for (u64 i = 0; i < 3; ++i) EXPECT_EQ(child.read_u64(base + i * 4096), i + 1);
}

TEST_F(PagerFixture, ConcurrentFaultsDuringWritebackCoalesceToOneSwapIn) {
  // Regression for the double swap-in race: fault 1 on a swapped-out page
  // suspends inside ensure_frame_available on an async dirty writeback;
  // fault 2 on the same page arrives during the wait. It must coalesce onto
  // fault 1 — not re-run budget enforcement and issue a second device read
  // (which double-counted pager.swap_ins and evicted an extra victim).
  make(/*budget=*/1);
  const VirtAddr va_a = ms.as.alloc(4096, 4096);
  const VirtAddr va_b = ms.as.alloc(4096, 4096);

  // Page A: resident + dirty, then evicted by fiat -> its contents sit in
  // swap, so a fault on it pays a device read.
  ms.as.write_u64(va_a, 0xAAAA);
  process.evict(va_a, 4096);
  ASSERT_TRUE(pager->swap().holds(va_a >> 12));

  // Page B: resident + dirty -> the next fault's victim needs a writeback.
  ms.as.write_u64(va_b, 0xBBBB);
  ASSERT_EQ(ms.as.resident_pages(), 1u);

  const u64 evictions_before = pager->evictions();
  bool first_ready = false, second_ready = false;
  pager->handle_fault(va_a, /*is_write=*/false, [&] { first_ready = true; });
  // Fault 1 is now suspended on B's writeback; fault 2 arrives mid-wait.
  pager->handle_fault(va_a, /*is_write=*/false, [&] { second_ready = true; });
  ms.run_all();

  EXPECT_TRUE(first_ready);
  EXPECT_TRUE(second_ready);
  EXPECT_EQ(pager->swap_ins(), 1u);                         // single device read
  EXPECT_EQ(pager->evictions(), evictions_before + 1);      // only B evicted
  EXPECT_EQ(pager->swap().reads(), 1u);
  EXPECT_EQ(pager->writebacks(), 1u);
}

TEST_F(PagerFixture, SpeculativeFlagOfAnUnseenVpnIsFalse) {
  make(/*budget=*/2);
  EXPECT_FALSE(pager->any_speculative());
  EXPECT_FALSE(pager->is_speculative(0));
  EXPECT_FALSE(pager->is_speculative(ms.as.alloc(4096, 4096) >> 12));
  EXPECT_FALSE(pager->is_speculative(1ull << 40));  // far past any table
  EXPECT_FALSE(pager->swap().holds(1ull << 40));
}

TEST_F(PagerFixture, ObserverSeedsPolicyWithPagesResidentAtAttach) {
  // Pages mapped before the pager attaches (pinned buffers) must still be
  // evictable under pressure.
  const VirtAddr base = ms.as.alloc(3 * 4096, 4096);
  ms.as.populate(base, 3 * 4096);
  make(/*budget=*/2);
  EXPECT_EQ(pager->policy().tracked_pages(), ms.as.resident_pages());
  const VirtAddr extra = ms.as.alloc(4096, 4096);
  translate_sync(extra);
  EXPECT_LE(ms.as.resident_pages(), 2u);
}

}  // namespace
}  // namespace vmsls::paging
