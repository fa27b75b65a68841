#include <gtest/gtest.h>

#include "mem/mmu.hpp"
#include "mem/walker.hpp"
#include "test_util.hpp"

namespace vmsls::mem {
namespace {

using test::MemorySystem;

struct WalkerFixture : ::testing::Test {
  MemorySystem ms;
  WalkerConfig wcfg;
  std::unique_ptr<PageWalker> walker;

  void make_walker() {
    walker = std::make_unique<PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(), wcfg, "w");
  }

  WalkResult walk_sync(VirtAddr va) {
    WalkResult result;
    bool done = false;
    walker->walk(va, [&](const WalkResult& r) {
      result = r;
      done = true;
    });
    ms.run_all();
    EXPECT_TRUE(done);
    return result;
  }
};

TEST_F(WalkerFixture, SuccessfulWalkFindsFrame) {
  make_walker();
  ms.as.populate(0x10000, 4096);
  const auto r = walk_sync(0x10000);
  EXPECT_FALSE(r.fault);
  EXPECT_EQ(r.frame, ms.as.page_table().lookup(0x10000)->frame);
  EXPECT_TRUE(r.writable);
}

TEST_F(WalkerFixture, UnmappedPageFaults) {
  make_walker();
  const auto r = walk_sync(0x20000);
  EXPECT_TRUE(r.fault);
  EXPECT_EQ(ms.sim.stats().counter_value("w.faults"), 1u);
}

TEST_F(WalkerFixture, WalkReadsOnePerLevel) {
  wcfg.walk_cache_entries = 0;
  make_walker();
  ms.as.populate(0x10000, 4096);
  walk_sync(0x10000);
  // 4 KiB pages over 32-bit VA: 3 levels -> 3 memory reads.
  EXPECT_EQ(ms.sim.stats().counter_value("w.mem_reads"), 3u);
}

TEST_F(WalkerFixture, WalkCacheShortensRepeatWalks) {
  make_walker();
  ms.as.populate(0x10000, 2 * 4096);
  walk_sync(0x10000);
  const u64 after_first = ms.sim.stats().counter_value("w.mem_reads");
  walk_sync(0x11000);  // same leaf table -> cached interior
  const u64 after_second = ms.sim.stats().counter_value("w.mem_reads");
  EXPECT_EQ(after_first, 3u);
  EXPECT_EQ(after_second - after_first, 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("w.cache_hits"), 1u);
}

TEST_F(WalkerFixture, FlushCacheForcesFullWalk) {
  make_walker();
  ms.as.populate(0x10000, 4096);
  walk_sync(0x10000);
  walker->flush_cache();
  walk_sync(0x10000);
  EXPECT_EQ(ms.sim.stats().counter_value("w.mem_reads"), 6u);
}

TEST_F(WalkerFixture, ConcurrentWalksSerialize) {
  make_walker();
  ms.as.populate(0x10000, 4096);
  ms.as.populate(0x40000, 4096);
  Cycles done1 = 0, done2 = 0;
  walker->walk(0x10000, [&](const WalkResult&) { done1 = ms.sim.now(); });
  walker->walk(0x40000, [&](const WalkResult&) { done2 = ms.sim.now(); });
  ms.run_all();
  EXPECT_GT(done2, done1);
  EXPECT_GT(ms.sim.stats().histograms().at("w.queue_wait").max(), 0u);
}

TEST_F(WalkerFixture, FaultReportsLevel) {
  make_walker();
  // Nothing mapped at all: the ROOT entry is invalid -> fault at level 0.
  const auto r = walk_sync(0x30000);
  EXPECT_TRUE(r.fault);
  EXPECT_EQ(r.fault_level, 0u);
}

// --- MMU ---

struct MmuFixture : ::testing::Test, FaultSink {
  MemorySystem ms;
  WalkerConfig wcfg;
  std::unique_ptr<PageWalker> walker;
  std::unique_ptr<Mmu> mmu;
  std::vector<FaultRequest> faults;
  bool auto_service = false;

  void raise(FaultRequest req) override {
    if (auto_service) {
      ms.as.map_page(req.va);
      // Retry on a fresh event, as the OS path would.
      ms.sim.schedule_in(100, [retry = std::move(req.retry)]() mutable { retry(); });
    }
    faults.push_back(std::move(req));
  }

  void make_mmu(MmuConfig cfg = {}) {
    walker = std::make_unique<PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(), wcfg, "w");
    mmu = std::make_unique<Mmu>(ms.sim, *walker, cfg, "mmu", 0);
    mmu->set_fault_sink(this);
  }

  PhysAddr translate_sync(VirtAddr va, bool write = false) {
    PhysAddr out = ~0ull;
    mmu->translate(va, write, [&](PhysAddr pa) { out = pa; });
    ms.run_all();
    return out;
  }
};

TEST_F(MmuFixture, TranslationMatchesPageTable) {
  make_mmu();
  ms.as.populate(0x10000, 4096);
  const PhysAddr pa = translate_sync(0x10234);
  EXPECT_EQ(pa, *ms.as.translate(0x10234));
}

TEST_F(MmuFixture, TlbMissThenHit) {
  make_mmu();
  ms.as.populate(0x10000, 4096);
  translate_sync(0x10000);
  EXPECT_EQ(mmu->tlb().misses(), 1u);
  translate_sync(0x10008);
  EXPECT_EQ(mmu->tlb().hits(), 1u);
}

TEST_F(MmuFixture, HitIsFasterThanMiss) {
  make_mmu();
  ms.as.populate(0x10000, 4096);
  const Cycles t0 = ms.sim.now();
  translate_sync(0x10000);
  const Cycles miss_cost = ms.sim.now() - t0;
  const Cycles t1 = ms.sim.now();
  translate_sync(0x10000);
  const Cycles hit_cost = ms.sim.now() - t1;
  EXPECT_LT(hit_cost, miss_cost);
}

TEST_F(MmuFixture, FaultRaisedAndRetried) {
  auto_service = true;
  make_mmu();
  const PhysAddr pa = translate_sync(0x50000);
  EXPECT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].va, 0x50000u);
  EXPECT_NE(pa, ~0ull);
  EXPECT_EQ(pa, *ms.as.translate(0x50000));
}

TEST_F(MmuFixture, UnhandledFaultThrowsWithoutSink) {
  make_mmu();
  mmu->set_fault_sink(nullptr);
  mmu->translate(0x60000, false, [](PhysAddr) {});
  EXPECT_THROW(ms.run_all(), std::runtime_error);
}

TEST_F(MmuFixture, UnhandledFaultMessageNamesTheAddressInHex) {
  make_mmu();
  mmu->set_fault_sink(nullptr);
  mmu->translate(0x6a123, false, [](PhysAddr) { ADD_FAILURE() << "faulting access completed"; });
  try {
    ms.run_all();
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "mmu: unhandled page fault at va=0x6a123");
  }
  // The MMU stays usable after the throw.
  ms.as.populate(0x10000, 4096);
  EXPECT_EQ(translate_sync(0x10008), *ms.as.translate(0x10008));
}

TEST_F(MmuFixture, PassThroughWhenDisabled) {
  MmuConfig cfg;
  cfg.translation_enabled = false;
  make_mmu(cfg);
  EXPECT_EQ(translate_sync(0x12345678), 0x12345678u);
  EXPECT_EQ(mmu->tlb().misses(), 0u);  // TLB never consulted
}

TEST_F(MmuFixture, ShootdownForcesRewalk) {
  make_mmu();
  ms.as.populate(0x10000, 4096);
  translate_sync(0x10000);
  mmu->shootdown(0x10000);
  translate_sync(0x10000);
  EXPECT_EQ(mmu->tlb().misses(), 2u);
}

TEST_F(MmuFixture, ShootdownAllFlushes) {
  make_mmu();
  ms.as.populate(0x10000, 3 * 4096);
  for (VirtAddr va = 0x10000; va < 0x13000; va += 0x1000) translate_sync(va);
  mmu->shootdown_all();
  for (VirtAddr va = 0x10000; va < 0x13000; va += 0x1000) translate_sync(va);
  EXPECT_EQ(mmu->tlb().misses(), 6u);
}

TEST_F(MmuFixture, WritePermissionFaultOnReadOnlyPage) {
  auto_service = false;
  make_mmu();
  // Map read-only by hand.
  const u64 frame = *ms.frames.alloc();
  ms.as.page_table().map(0x70000, frame, /*writable=*/false);
  PhysAddr read_pa = translate_sync(0x70000, false);
  EXPECT_NE(read_pa, ~0ull);
  // Write translation raises a permission fault.
  mmu->translate(0x70000, true, [](PhysAddr) {});
  ms.run_all();
  EXPECT_EQ(faults.size(), 1u);
  EXPECT_TRUE(faults[0].is_write);
}

TEST_F(MmuFixture, OffsetPreservedThroughTranslation) {
  make_mmu();
  ms.as.populate(0x10000, 4096);
  const PhysAddr pa = translate_sync(0x10ABC);
  EXPECT_EQ(pa & 0xFFF, 0xABCu);
}

// --- accessed/dirty write-back charging ---

TEST_F(WalkerFixture, AdBitFlipChargesOnePostedBusWrite) {
  make_walker();
  ms.as.populate(0x10000, 4096);
  EXPECT_EQ(ms.sim.stats().counter_value("bus.writes"), 0u);
  walk_sync(0x10000);  // leaf fill flips the accessed bit
  EXPECT_EQ(ms.sim.stats().counter_value("w.ad_writebacks"), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("bus.writes"), 1u);
  // Re-setting an already-set bit is free: no flip, no traffic.
  walk_sync(0x10000);
  EXPECT_EQ(ms.sim.stats().counter_value("w.ad_writebacks"), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("bus.writes"), 1u);
}

TEST_F(MmuFixture, TlbHitDirtyUpdateChargesThroughTheWalkerFunnel) {
  make_mmu();
  ms.as.populate(0x10000, 4096);
  translate_sync(0x10000, /*write=*/false);  // walk: accessed flips -> 1 write
  EXPECT_EQ(ms.sim.stats().counter_value("w.ad_writebacks"), 1u);
  // TLB hit with a write access: the dirty bit flips without any walk, and
  // the MMU funnels the charge through the walker's note_ad_update.
  translate_sync(0x10008, /*write=*/true);
  EXPECT_EQ(mmu->tlb().hits(), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("w.ad_writebacks"), 2u);
  EXPECT_TRUE(ms.as.page_table().lookup(0x10000)->dirty);
  // Further writes to the now-dirty page stay free.
  translate_sync(0x10010, /*write=*/true);
  EXPECT_EQ(ms.sim.stats().counter_value("w.ad_writebacks"), 2u);
}

// --- run-ahead on the miss path ---

TEST_F(WalkerFixture, UncontendedWalkQueuesOnlyItsSetupEvent) {
  // The setup delay is scheduled (walk() runs outside the loop); its event
  // holds the run-ahead token, so three PTE reads complete in place and the
  // A write-back is posted. Five logical events, as when all five queued.
  wcfg.walk_cache_entries = 0;
  make_walker();
  ms.as.populate(0x10000, 4096);
  const u64 executed = ms.sim.events_executed();
  const u64 scheduled = ms.sim.events_scheduled();
  walk_sync(0x10000);
  EXPECT_EQ(ms.sim.stats().counter_value("w.mem_reads"), 3u);
  EXPECT_EQ(ms.sim.stats().counter_value("w.ad_writebacks"), 1u);
  EXPECT_EQ(ms.sim.events_executed() - executed, 5u);
  EXPECT_EQ(ms.sim.events_scheduled() - scheduled, 1u);
}

TEST_F(MmuFixture, FaultSinkRunsWithoutTheRunAheadToken) {
  // The faulting walk's PTE read completes in a token-holding chain, but
  // raise() is OS code, not a tail call: it must not advance the clock.
  struct Probe final : FaultSink {
    sim::Simulator* sim = nullptr;
    std::vector<bool> granted;
    void raise(FaultRequest) override { granted.push_back(sim->try_advance_to(sim->now() + 1)); }
  } probe;
  probe.sim = &ms.sim;
  make_mmu();
  mmu->set_fault_sink(&probe);
  mmu->translate(0x50000, false, [](PhysAddr) {});
  ms.run_all();
  EXPECT_EQ(probe.granted, std::vector<bool>{false});
}

}  // namespace
}  // namespace vmsls::mem
