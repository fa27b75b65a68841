// The paging ledger (mem/paging/ledger.hpp): violations name the bucket and
// both counts, driver-side counts gate only the read/COW partitions, the
// machine-wide checks catch an unlisted swap owner and a stray frame
// reference, and the pageout daemon's cleanings stay out of the unmap
// buckets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/backing_file.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/ledger.hpp"
#include "mem/paging/pager.hpp"
#include "rt/process.hpp"
#include "test_util.hpp"

namespace vmsls::paging {
namespace {

constexpr u64 kPage = 4096;
using Violations = std::vector<std::string>;

TEST(LedgerTest, UnbalancedDeltaNamesTheBucketAndBothCounts) {
  Ledger base;
  base.name = "p0.pager";
  base.evictions = 10;
  base.swap_releases = 10;  // balanced setup traffic
  Ledger now = base;
  now.evictions = 14;
  now.swap_releases = 11;
  now.file_writebacks = 6;

  const Ledger run = now - base;
  EXPECT_EQ(run.check(), Violations{"p0.pager: evictions + external unmaps 4 != swap_releases + "
                                    "file_drops + file_writebacks + shared_releases 7"});
  // Unmaps the pager never saw close the partition.
  EXPECT_EQ(run.check({std::nullopt, std::nullopt, 3}), Violations{});
}

TEST(LedgerTest, OmittedDriverCountsSkipOnlyTheReadAndCowPartitions) {
  Ledger l;
  l.name = "w1.pager";
  l.zero_fills = 2;
  l.share_hits = 1;
  l.cow_copies = 1;
  l.evictions = 1;  // no bucket: unbalanced either way

  const std::string unmap =
      "w1.pager: evictions + external unmaps 1 != swap_releases + file_drops + "
      "file_writebacks + shared_releases 0";
  EXPECT_EQ(l.check(), Violations{unmap});
  EXPECT_EQ(l.check({3, 1, 0}), Violations{unmap});
  EXPECT_EQ(l.check({2, 2, 0}),
            (Violations{"w1.pager: read faults 2 != swap_ins + file_reads + zero_fills + "
                        "share_hits + inherited_fills 3",
                        "w1.pager: COW faults 2 != cow_copies + cow_upgrades 1", unmap}));
}

TEST(LedgerTest, AnOwnerMissingFromThePagerSetUnbalancesTheSwapPartition) {
  test::MemorySystem ms;
  rt::Process process{ms.sim, ms.as, "p"};
  SwapScheduler swap(ms.sim, SwapConfig{}, kPage, "swap");
  BufferCache bcache(ms.sim, BufferCacheConfig{}, kPage, "bcache");
  Pager pager(ms.sim, process, PagerConfig{}, "pager", swap, bcache);
  EXPECT_EQ(check_machine({&pager}), Violations{});

  const unsigned other = swap.register_owner("other");
  swap.note_swapped(other, 7);
  swap.read(other, 7, SwapReqClass::kDemandRead, [] {});
  ms.sim.drain();
  EXPECT_EQ(check_machine({&pager}), Violations{"swap: owner reads 0 != device reads 1"});
}

TEST(LedgerTest, RefcountMismatchIsReported) {
  test::MemorySystem ms;
  rt::Process process{ms.sim, ms.as, "p"};
  FramePool pool(ms.sim, FramePoolConfig{}, "pool");  // outlives its member
  const test::PagerPtr owned(ms.sim, process, PagerConfig{}, "pager");
  Pager& pager = *owned;
  pool.attach(pager);
  const VirtAddr va = ms.as.alloc(kPage, kPage);
  process.map_in(va);
  EXPECT_EQ(check_machine({&pager}, &pool), Violations{});

  const u64 frame = *ms.as.frame_of(va / kPage);
  ms.frames.ref(frame);  // a reference no page table accounts for
  EXPECT_EQ(check_machine({&pager}, &pool),
            Violations{"frame " + std::to_string(frame) + ": refcount 2 != page-table mappings 1"});
  ms.frames.free(frame);
}

TEST(LedgerTest, PageoutCleaningOfSharedFilePagesIsNotAnUnmap) {
  // Three dirty MAP_SHARED pages reach the daemon's watermark and are
  // cleaned through the buffer cache; five more touches then evict four
  // pages, each a clean drop. Counting the cleanings as file writebacks
  // would put 7 entries in the unmap buckets for 4 evictions.
  test::MemorySystem ms;
  rt::Process process{ms.sim, ms.as, "p"};
  mem::FileStore files{kPage};
  mem::BackingFile& file = files.create("f", 8 * kPage);
  const VirtAddr base = process.mmap(file, 0, 8 * kPage, /*shared=*/true);
  PagerConfig cfg;
  cfg.frame_budget = 4;
  cfg.pageout_interval = 100;
  const test::PagerPtr owned(ms.sim, process, cfg, "pager");
  Pager& pager = *owned;

  auto touch = [&](u64 p, bool write) {
    const VirtAddr va = base + p * kPage;
    pager.handle_fault(va, write, [&, va, p, write] {
      if (!ms.as.is_mapped(va)) process.map_in(va);
      if (write) ms.as.write_u64(va, 0xD1'0000 + p);
    });
    ms.sim.drain();
  };
  for (u64 p = 0; p < 3; ++p) touch(p, /*write=*/true);
  for (u64 p = 3; p < 8; ++p) touch(p, /*write=*/false);

  EXPECT_EQ(pager.evictions(), 4u);
  EXPECT_EQ(pager.buffer_cache().device_writes(), 3u);  // the cleanings reached the file
  EXPECT_EQ(Ledger::of(pager).check(), Violations{});
  EXPECT_EQ(check_machine({&pager}), Violations{});
  for (u64 p = 0; p < 3; ++p) EXPECT_EQ(ms.as.read_u64(base + p * kPage), 0xD1'0000 + p);
}

}  // namespace
}  // namespace vmsls::paging
