// File-backed memory: BackingFile/FileStore functional contents, the
// AddressSpace mmap/bind_file region machinery and its page lifecycle fork
// (clean drop / dirty-shared write-through / private divergence to swap),
// BufferCache timing + accounting, and the pager's file fault path —
// including the ledger identity the whole tier rests on: file reads plus
// swap-ins plus zero-fills partition all primary fault traffic.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mem/backing_file.hpp"
#include "mem/mmu.hpp"
#include "mem/paging/buffer_cache.hpp"
#include "mem/paging/ledger.hpp"
#include "mem/paging/pager.hpp"
#include "mem/walker.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "test_util.hpp"

namespace vmsls::paging {
namespace {

using test::MemorySystem;

constexpr u64 kPage = 4 * KiB;

// --- BackingFile / FileStore: functional bytes, zero simulated time ---

TEST(BackingFileTest, RoundsUpToWholeBlocksAndRoundTripsBytes) {
  mem::FileStore store(kPage);
  mem::BackingFile& f = store.create("lib.so", 3 * kPage + 17);  // partial tail
  EXPECT_EQ(f.size_bytes(), 4 * kPage);
  EXPECT_EQ(f.blocks(), 4u);
  EXPECT_EQ(store.file(f.id()).name(), "lib.so");

  const std::vector<u8> pattern{0xDE, 0xAD, 0xBE, 0xEF};
  f.write(2 * kPage + 5, pattern);
  std::vector<u8> out(4);
  f.read(2 * kPage + 5, out);
  EXPECT_EQ(out, pattern);
  EXPECT_EQ(f.block_data(2)[5], 0xDE);  // block view aliases the same bytes

  // Dense ids by creation order — the buffer cache's key space.
  EXPECT_EQ(store.create("data.bin", kPage).id(), f.id() + 1);
  EXPECT_EQ(store.count(), 2u);
}

// --- AddressSpace regions: lazy fill, lifecycle fork at eviction ---

struct FileRegionFixture : ::testing::Test {
  MemorySystem ms;
  rt::Process process{ms.sim, ms.as, "proc"};
  mem::FileStore store{kPage};

  mem::BackingFile& make_file(u64 pages) {
    mem::BackingFile& f = store.create("f", pages * kPage);
    for (u64 b = 0; b < pages; ++b) {
      const u64 tag = 0xF11E'0000ull + b;
      f.write(b * kPage, std::span<const u8>(reinterpret_cast<const u8*>(&tag), 8));
    }
    return f;
  }

  static u64 tag(u64 block) { return 0xF11E'0000ull + block; }
};

TEST_F(FileRegionFixture, MmapIsLazyAndFirstTouchFillsFromTheFile) {
  mem::BackingFile& f = make_file(4);
  const VirtAddr base = ms.as.mmap(f, 0, 4 * kPage, /*shared=*/true);
  EXPECT_EQ(ms.as.resident_pages(), 0u);  // nothing resident until touched

  const auto ref = ms.as.file_page(base >> 12);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->file, &f);
  EXPECT_EQ(ref->block, 0u);
  EXPECT_TRUE(ref->shared);
  EXPECT_FALSE(ms.as.file_page((base >> 12) + 4).has_value());  // past the region

  for (u64 p = 0; p < 4; ++p) EXPECT_EQ(ms.as.read_u64(base + p * kPage), tag(p));
}

TEST_F(FileRegionFixture, MmapValidatesOffsetAndRange) {
  mem::BackingFile& f = make_file(2);
  EXPECT_THROW(ms.as.mmap(f, 17, kPage, true), std::invalid_argument);         // unaligned
  EXPECT_THROW(ms.as.mmap(f, 0, 3 * kPage, true), std::invalid_argument);      // past EOF
  EXPECT_THROW(ms.as.mmap(f, 2 * kPage, kPage, true), std::invalid_argument);  // starts at EOF
}

TEST_F(FileRegionFixture, CleanEvictionDropsWithoutCreatingBacking) {
  mem::BackingFile& f = make_file(2);
  const VirtAddr base = ms.as.mmap(f, 0, 2 * kPage, /*shared=*/true);
  EXPECT_EQ(ms.as.read_u64(base), tag(0));  // read-only touch: resident clean
  const u64 vpn = base >> 12;
  process.evict(base, kPage);
  EXPECT_FALSE(ms.as.has_backing(vpn));  // dropped free: no swap copy made
  EXPECT_EQ(ms.as.read_u64(base), tag(0));  // refills from the file
}

TEST_F(FileRegionFixture, DirtySharedEvictionWritesTheFile) {
  mem::BackingFile& f = make_file(2);
  const VirtAddr base = ms.as.mmap(f, 0, 2 * kPage, /*shared=*/true);
  ms.as.write_u64(base + kPage, 0xCAFE);  // dirty page 1 through the region
  process.evict(base, 2 * kPage);
  u64 word = 0;
  f.read(kPage, std::span<u8>(reinterpret_cast<u8*>(&word), 8));
  EXPECT_EQ(word, 0xCAFE);  // MAP_SHARED semantics: the file sees the store
  EXPECT_FALSE(ms.as.has_backing((base >> 12) + 1));
}

TEST_F(FileRegionFixture, PrivateWritesDivergeToSwapAndNeverReachTheFile) {
  mem::BackingFile& f = make_file(2);
  const VirtAddr base = ms.as.mmap(f, 0, 2 * kPage, /*shared=*/false);
  ms.as.write_u64(base, 0xBEEF);  // copy-on-evict divergence
  process.evict(base, kPage);
  u64 word = 0;
  f.read(0, std::span<u8>(reinterpret_cast<u8*>(&word), 8));
  EXPECT_EQ(word, tag(0));                   // the file is untouched
  EXPECT_TRUE(ms.as.has_backing(base >> 12));  // the private copy went to swap
  EXPECT_EQ(ms.as.read_u64(base), 0xBEEF);     // and the mapper sees it
}

TEST_F(FileRegionFixture, SyncedPrivatePageKeepsItsDivergentBytesThroughEviction) {
  mem::BackingFile& f = make_file(2);
  const VirtAddr base = ms.as.mmap(f, 0, 2 * kPage, /*shared=*/false);
  const u64 vpn = base >> 12;
  ms.as.write_u64(base, 0xD1FF);
  ms.as.sync_page(vpn);  // the pageout daemon's clean: a copy into the slot
  EXPECT_TRUE(ms.as.has_backing(vpn));
  EXPECT_EQ(ms.as.copied_pages(), 1u);
  ASSERT_TRUE(ms.as.page_table().test_and_clear_dirty(base));
  ms.as.write_u64(base + 8, 0xD2FF);  // written again after the clean
  ASSERT_TRUE(ms.as.page_table().test_and_clear_dirty(base));
  process.evict(base, kPage);  // clean in the PTE, yet saved: it has a slot
  EXPECT_EQ(ms.as.copied_pages(), 1u);  // the eviction moved the page
  EXPECT_EQ(ms.as.read_u64(base), 0xD1FFu);
  EXPECT_EQ(ms.as.read_u64(base + 8), 0xD2FFu);
  u64 word = 0;
  f.read(0, std::span<u8>(reinterpret_cast<u8*>(&word), 8));
  EXPECT_EQ(word, tag(0));  // the file never sees a private page's bytes
}

TEST_F(FileRegionFixture, BindFileCapturesExistingAnonContents) {
  // Binding after setup (the fig13 "write the input, then publish it as a
  // file" flow): resident bytes win and become the file's contents, and
  // an evicted page's saved copy becomes its block, its slot freed.
  const VirtAddr base = ms.as.alloc(2 * kPage, kPage);
  ms.as.write_u64(base, 0x5EED);
  ms.as.write_u64(base + kPage, 0x5EEE);
  process.evict(base + kPage, kPage);
  ASSERT_TRUE(ms.as.has_backing((base >> 12) + 1));
  const std::size_t pool_pages = ms.pm.pool_pages();
  mem::BackingFile& f = store.create("captured", 2 * kPage);
  ms.as.bind_file(base, 2 * kPage, f, 0, /*shared=*/true);
  u64 word = 0;
  f.read(0, std::span<u8>(reinterpret_cast<u8*>(&word), 8));
  EXPECT_EQ(word, 0x5EED);
  f.read(kPage, std::span<u8>(reinterpret_cast<u8*>(&word), 8));
  EXPECT_EQ(word, 0x5EEE);
  EXPECT_FALSE(ms.as.has_backing((base >> 12) + 1));
  EXPECT_EQ(ms.pm.pool_pages(), pool_pages - 1);
  EXPECT_TRUE(ms.as.file_page(base >> 12).has_value());
  EXPECT_THROW(ms.as.bind_file(base, kPage, f, 0, true), std::invalid_argument);  // overlap
}

// --- BufferCache: timing + accounting, no functional bytes ---

struct BufferCacheFixture : ::testing::Test {
  sim::Simulator sim;
  BufferCacheConfig cfg;
  std::unique_ptr<BufferCache> bc;
  unsigned c0 = 0, c1 = 0;

  void make(u64 capacity, Cycles flush_interval = 20000) {
    cfg.capacity_blocks = capacity;
    cfg.flush_interval = flush_interval;
    bc = std::make_unique<BufferCache>(sim, cfg, kPage, "bc");
    c0 = bc->register_client("p0");
    c1 = bc->register_client("p1");
  }

  Cycles transfer_time(Cycles access) const { return access + kPage / cfg.bytes_per_cycle; }
};

TEST_F(BufferCacheFixture, MissPaysTheDeviceThenHitIsSynchronousAndFree) {
  make(/*capacity=*/8);
  int done = 0;
  bc->read(c0, 0, 3, [&] { ++done; });
  EXPECT_EQ(done, 0);  // miss: queued, not synchronous
  const Cycles t0 = sim.now();
  sim.drain();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(sim.now() - t0, transfer_time(cfg.read_latency));
  EXPECT_EQ(bc->misses(), 1u);
  EXPECT_EQ(bc->device_reads(), 1u);
  EXPECT_TRUE(bc->block_cached(0, 3));

  bc->read(c1, 0, 3, [&] { ++done; });  // hit: fires before we even step
  EXPECT_EQ(done, 2);
  EXPECT_EQ(bc->hits(), 1u);
  // Per-client attribution on the shared cache.
  EXPECT_EQ(bc->client_misses(c0), 1u);
  EXPECT_EQ(bc->client_hits(c0), 0u);
  EXPECT_EQ(bc->client_hits(c1), 1u);
  EXPECT_EQ(sim.stats().counter_value("p0.file_misses"), 1.0);
  EXPECT_EQ(sim.stats().counter_value("p1.file_hits"), 1.0);
}

TEST_F(BufferCacheFixture, ConcurrentMissesOnOneBlockMergeIntoOneDeviceRead) {
  make(/*capacity=*/8);
  int done = 0;
  bc->read(c0, 0, 7, [&] { ++done; });
  bc->read(c1, 0, 7, [&] { ++done; });  // process B waits on A's buffer lock
  sim.drain();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(bc->device_reads(), 1u);  // one transfer served both
  EXPECT_EQ(bc->merged_reads(), 1u);
  EXPECT_EQ(bc->misses(), 2u);  // both were misses — attribution intact
}

TEST_F(BufferCacheFixture, WriteIsNonBlockingAndTheFlushDaemonDrains) {
  make(/*capacity=*/8);
  const Cycles t0 = sim.now();
  bc->write(c0, 0, 1);
  EXPECT_EQ(sim.now(), t0);  // pure bookkeeping, zero cycles
  EXPECT_TRUE(bc->block_dirty(0, 1));
  EXPECT_EQ(bc->dirty_blocks(), 1u);
  sim.drain();  // daemon fires, cleans, disarms — queue drains
  EXPECT_FALSE(bc->block_dirty(0, 1));
  EXPECT_TRUE(bc->block_cached(0, 1));  // write-allocate: stays cached clean
  EXPECT_EQ(bc->flushes(), 1u);
  EXPECT_EQ(bc->device_writes(), 1u);
  EXPECT_EQ(bc->dirty_blocks(), 0u);
}

TEST_F(BufferCacheFixture, CapacityEvictionWritesBackDirtyVictims) {
  make(/*capacity=*/2, /*flush_interval=*/0);  // no daemon: only capacity cleans
  bc->write(c0, 0, 0);
  bc->write(c0, 0, 1);
  bc->write(c0, 0, 2);  // LRU block 0 falls out dirty
  EXPECT_EQ(bc->evictions(), 1u);
  EXPECT_EQ(bc->cached_blocks(), 2u);
  EXPECT_FALSE(bc->block_cached(0, 0));
  sim.drain();
  EXPECT_EQ(bc->device_writes(), 1u);  // the victim's background write
  // Blocks 1 and 2 stay dirty forever (daemon off) — but nothing is queued,
  // so the event loop still drained above: dirtiness is not pending work.
  EXPECT_EQ(bc->dirty_blocks(), 2u);
}

TEST_F(BufferCacheFixture, ZeroBandwidthIsRejected) {
  cfg.bytes_per_cycle = 0;
  EXPECT_THROW(make(/*capacity=*/8), std::invalid_argument);
}

TEST_F(BufferCacheFixture, ZeroCapacityStreamsStraightThrough) {
  make(/*capacity=*/0);
  int done = 0;
  bc->read(c0, 0, 4, [&] { ++done; });
  bc->write(c0, 0, 5);
  sim.drain();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(bc->device_reads(), 1u);
  EXPECT_EQ(bc->device_writes(), 1u);
  EXPECT_EQ(bc->cached_blocks(), 0u);  // nothing retained
  bc->read(c0, 0, 4, [&] { ++done; });  // same block: misses again
  sim.drain();
  EXPECT_EQ(bc->hits(), 0u);
  EXPECT_EQ(bc->misses(), 2u);
}

// --- pager integration: the timed file fault path and its ledgers ---

struct FilePagerFixture : ::testing::Test {
  MemorySystem ms;
  rt::Process process{ms.sim, ms.as, "proc"};
  mem::FileStore store{kPage};
  std::unique_ptr<mem::PageWalker> walker;
  std::unique_ptr<mem::Mmu> mmu;
  std::unique_ptr<rt::OsModel> os;
  std::unique_ptr<rt::FaultHandler> faults;
  test::PagerPtr pager;

  void make(u64 budget) {
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
    pager = test::PagerPtr(ms.sim, process, cfg, "pager");
    faults->set_pager(pager.get());
  }

  mem::BackingFile& make_file(u64 pages) {
    mem::BackingFile& f = store.create("f", pages * kPage);
    for (u64 b = 0; b < pages; ++b) {
      const u64 t = 0xF11E'0000ull + b;
      f.write(b * kPage, std::span<const u8>(reinterpret_cast<const u8*>(&t), 8));
    }
    return f;
  }

  PhysAddr translate_sync(VirtAddr va, bool write = false) {
    PhysAddr out = ~0ull;
    mmu->translate(va, write, [&](PhysAddr pa) { out = pa; });
    ms.run_all();
    return out;
  }
};

TEST_F(FilePagerFixture, FirstTouchChargesTheFileDeviceNotSwap) {
  make(/*budget=*/8);
  mem::BackingFile& f = make_file(2);
  const VirtAddr base = process.mmap(f, 0, 2 * kPage, /*shared=*/true);

  const Cycles t0 = ms.sim.now();
  ASSERT_NE(translate_sync(base), ~0ull);
  const Cycles file_fill = ms.sim.now() - t0;
  EXPECT_EQ(pager->file_reads(), 1u);
  EXPECT_EQ(pager->swap_ins(), 0u);
  EXPECT_EQ(pager->swap().reads(), 0u);
  EXPECT_EQ(pager->buffer_cache().client_misses(pager->bcache_client()), 1u);
  EXPECT_EQ(ms.as.read_u64(base), 0xF11E'0000ull);  // the block's bytes landed

  // A cached block faults in faster than the cold miss: the hit is free.
  process.evict(base, kPage);
  const Cycles t1 = ms.sim.now();
  ASSERT_NE(translate_sync(base), ~0ull);
  EXPECT_LT(ms.sim.now() - t1, file_fill);
  EXPECT_EQ(pager->buffer_cache().client_hits(pager->bcache_client()), 1u);
  EXPECT_EQ(pager->file_drops(), 1u);  // the evict was a clean drop
}

TEST_F(FilePagerFixture, EvictionForkSendsDirtySharedThroughTheCacheNeverSwap) {
  make(/*budget=*/1);  // every second touch evicts
  mem::BackingFile& f = make_file(3);
  const VirtAddr base = process.mmap(f, 0, 3 * kPage, /*shared=*/true);

  ASSERT_NE(translate_sync(base, /*write=*/true), ~0ull);  // page 0 dirty
  ASSERT_NE(translate_sync(base + kPage), ~0ull);          // evicts page 0
  ms.sim.drain();  // background cache write retires
  EXPECT_EQ(pager->file_writebacks(), 1u);
  EXPECT_EQ(pager->writebacks(), 0u);     // swap writeback counter untouched
  EXPECT_EQ(pager->swap().writes(), 0u);  // and no swap device traffic
  EXPECT_GE(pager->buffer_cache().device_writes(), 0u);  // flush is async

  ASSERT_NE(translate_sync(base + 2 * kPage), ~0ull);  // evicts clean page 1
  EXPECT_EQ(pager->file_drops(), 1u);
  EXPECT_EQ(Ledger::of(*pager).check(), std::vector<std::string>{});
}

TEST_F(FilePagerFixture, FaultLedgerPartitionsFileSwapAndZeroFillTraffic) {
  make(/*budget=*/16);  // roomy: no evictions disturb the count
  mem::BackingFile& f = make_file(4);
  const VirtAddr file_base = process.mmap(f, 0, 4 * kPage, /*shared=*/true);

  // An anon page with a swap copy: write it, evict it (note_swapped).
  const VirtAddr anon = ms.as.alloc(kPage, kPage);
  ms.as.write_u64(anon, 0x1234);
  process.evict(anon, kPage);
  // An anon page never touched: first fault is a zero-fill.
  const VirtAddr fresh = ms.as.alloc(kPage, kPage);

  const u64 faults_before = static_cast<u64>(ms.sim.stats().counter_value("faults.faults"));
  const Ledger before = Ledger::of(*pager);
  for (u64 p = 0; p < 4; ++p) ASSERT_NE(translate_sync(file_base + p * kPage), ~0ull);
  ASSERT_NE(translate_sync(anon), ~0ull);
  ASSERT_NE(translate_sync(fresh, /*write=*/true), ~0ull);

  const u64 faults = static_cast<u64>(ms.sim.stats().counter_value("faults.faults")) -
                     faults_before;
  EXPECT_EQ(pager->file_reads(), 4u);
  EXPECT_EQ(pager->swap_ins(), 1u);
  EXPECT_EQ(pager->zero_fills(), 1u);
  LedgerExpect expect;
  expect.read_faults = faults;
  EXPECT_EQ((Ledger::of(*pager) - before).check(expect), std::vector<std::string>{});
  EXPECT_EQ(ms.as.read_u64(anon), 0x1234);  // swap round trip intact
}

}  // namespace
}  // namespace vmsls::paging
