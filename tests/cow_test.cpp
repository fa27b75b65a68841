// Copy-on-write page sharing: fork's map-by-reference semantics, the COW
// fault path (split vs in-place upgrade), owner-set eviction of shared
// frames (one pool victim, one shootdown per sharer, exactly one
// writeback), the pool's owner-set answers (a pin held by ANY sharer
// protects the frame for ALL sharers; the accessed bit is the OR over every
// sharer; a frame is speculative only while every mapping is an
// unreferenced readahead landing), and serial-vs-sharded bit-identity
// of a COW storm. The full fig14 configuration re-checks the sharded gate
// in bench/fig14_page_sharing.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/backing_file.hpp"
#include "sls/episode.hpp"
#include "sls/process_group.hpp"
#include "sls/sharded_runner.hpp"
#include "test_util.hpp"

namespace vmsls::paging {
namespace {

constexpr u64 kPageSz = 4096;

/// Pager-only members of one ProcessGroup: parent "p0" and a second
/// process "p1", forked from p0 or added fresh.
struct CowFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<sls::ProcessGroup> group;
  sls::System* s0 = nullptr;
  sls::System* s1 = nullptr;

  /// Creates the group and p0. `budget` > 0 puts every member under a
  /// kGlobal pool of that many machine-wide frames; 0 leaves them unbudgeted
  /// (COW mechanics only). `readahead` is every pager's swap-in readahead.
  void make(u64 budget = 0, unsigned readahead = 0) {
    sls::PlatformSpec plat;
    plat.dram.size_bytes = 64 * MiB;
    plat.pager.swap.readahead = readahead;
    FramePoolConfig pc;
    if (budget > 0) {
      pc.mode = BudgetMode::kGlobal;
      pc.total_frames = budget;
      plat.pager.budget_mode = BudgetMode::kGlobal;
    }
    group = std::make_unique<sls::ProcessGroup>(sim, plat, pc);
    s0 = &group->add_process("p0");
  }
  void fork() { s1 = &group->fork(*s0, "p1"); }
  void add_p1() { s1 = &group->add_process("p1"); }

  mem::AddressSpace& as0() { return s0->address_space(); }
  mem::AddressSpace& as1() { return s1->address_space(); }
  rt::Process& p0() { return s0->process(); }
  rt::Process& p1() { return s1->process(); }
  Pager& pg0() { return *s0->pager(); }
  Pager& pg1() { return *s1->pager(); }
  FramePool& pool() { return group->pool(); }
  mem::FrameAllocator& frames() { return group->frames(); }

  void run_all() { group->drain(); }

  /// Drives one fault to completion, mapping in the ready callback when the
  /// page is still unmapped (the OS tail the bench drivers play).
  void fault(Pager& pg, rt::Process& p, VirtAddr va, bool is_write) {
    bool done = false;
    pg.handle_fault(va, is_write, [&] {
      if (!p.address_space().is_mapped(va)) p.map_in(va);
      done = true;
    });
    run_all();
    ASSERT_TRUE(done);
  }

  u64 frame_at(mem::AddressSpace& as, VirtAddr va) {
    const auto pte = as.page_table().lookup(va);
    EXPECT_TRUE(pte.has_value());
    return pte ? pte->frame : ~0ull;
  }
};

TEST_F(CowFixture, ForkSharesThenDivergesOnFirstWrite) {
  make();
  const VirtAddr va = as0().alloc(2 * kPageSz, kPageSz);
  as0().write_u64(va, 0xAAAA);
  as0().write_u64(va + kPageSz, 0xBBBB);

  fork();
  EXPECT_EQ(as1().resident_pages(), 2u);  // every resident page shared
  const u64 f0 = frame_at(as0(), va);
  EXPECT_EQ(frame_at(as1(), va), f0);  // one frame backs both mappings
  EXPECT_EQ(frames().refcount(f0), 2u);
  EXPECT_FALSE(as0().page_table().lookup(va)->writable);  // both sides downgraded
  EXPECT_FALSE(as1().page_table().lookup(va)->writable);
  EXPECT_EQ(as1().read_u64(va), 0xAAAAu);  // child reads the parent's bytes

  // Child's first write: a COW fault that splits the frame.
  const u64 child_shootdowns = p1().shootdowns();
  fault(pg1(), p1(), va, /*is_write=*/true);
  as1().write_u64(va, 0xA1A1);
  EXPECT_EQ(pg1().cow_copies(), 1u);
  EXPECT_EQ(pg1().cow_upgrades(), 0u);
  const u64 f1 = frame_at(as1(), va);
  EXPECT_NE(f1, f0);  // private copy
  EXPECT_EQ(frames().refcount(f0), 1u);
  EXPECT_EQ(frames().refcount(f1), 1u);
  EXPECT_GT(p1().shootdowns(), child_shootdowns);  // stale translation flushed
  EXPECT_EQ(as1().read_u64(va), 0xA1A1u);          // diverged...
  EXPECT_EQ(as0().read_u64(va), 0xAAAAu);          // ...and the parent kept its value

  // Parent's write after the split: refcount is 1, so the fault upgrades
  // the mapping in place — same frame, no copy.
  fault(pg0(), p0(), va, /*is_write=*/true);
  as0().write_u64(va, 0xA0A0);
  EXPECT_EQ(pg0().cow_upgrades(), 1u);
  EXPECT_EQ(pg0().cow_copies(), 0u);
  EXPECT_EQ(frame_at(as0(), va), f0);
  EXPECT_TRUE(as0().page_table().lookup(va)->writable);
  EXPECT_EQ(as0().read_u64(va), 0xA0A0u);
  EXPECT_EQ(as1().read_u64(va), 0xA1A1u);
}

TEST_F(CowFixture, ReadOnlySharingNeverCopies) {
  make();
  const VirtAddr va = as0().alloc(4 * kPageSz, kPageSz);
  for (u64 p = 0; p < 4; ++p) as0().write_u64(va + p * kPageSz, 0x100 + p);
  fork();
  EXPECT_EQ(as1().resident_pages(), 4u);  // every resident page shared
  const u64 f0 = frame_at(as0(), va);

  // Reads from both sides — driven faults on the resident pages and plain
  // software reads — must not touch the COW machinery or the refcounts.
  for (u64 p = 0; p < 4; ++p) {
    fault(pg1(), p1(), va + p * kPageSz, /*is_write=*/false);
    EXPECT_EQ(as1().read_u64(va + p * kPageSz), 0x100 + p);
    EXPECT_EQ(as0().read_u64(va + p * kPageSz), 0x100 + p);
  }
  EXPECT_EQ(pg0().cow_copies() + pg0().cow_upgrades(), 0u);
  EXPECT_EQ(pg1().cow_copies() + pg1().cow_upgrades(), 0u);
  EXPECT_EQ(frames().refcount(f0), 2u);
  EXPECT_EQ(frame_at(as1(), va), f0);
}

TEST_F(CowFixture, MapSharedFaultResolvesToTheSharersFrame) {
  make();
  add_p1();
  mem::BackingFile& file = group->files().create("lib.dat", kPageSz);
  file.write(0, std::vector<u8>(kPageSz, 0x5A));
  const VirtAddr va0 = p0().mmap(file, 0, kPageSz, /*shared=*/true);
  (void)as0().read_u64(va0);  // p0 faults the block in (software, zero cost)
  const u64 f = frame_at(as0(), va0);

  // p1 maps the same file: its demand fault must resolve to p0's frame
  // through the share index — no device read, no new frame, no COW.
  const VirtAddr va1 = p1().mmap(file, 0, kPageSz, /*shared=*/true);
  fault(pg1(), p1(), va1, /*is_write=*/false);
  EXPECT_EQ(pg1().share_hits(), 1u);
  EXPECT_EQ(pg1().file_reads(), 0u);
  EXPECT_EQ(frame_at(as1(), va1), f);
  EXPECT_EQ(frames().refcount(f), 2u);

  // MAP_SHARED stays writable: a store from one sharer lands in the one
  // frame and is visible to the other — sharing, not COW.
  as1().write_u64(va1, 0xD00Du);
  EXPECT_EQ(as0().read_u64(va0), 0xD00Du);
  EXPECT_EQ(pg1().cow_copies() + pg1().cow_upgrades(), 0u);
}

TEST_F(CowFixture, SharedFrameEvictionShootsDownEverySharerExactlyOnce) {
  make(/*budget=*/1);
  const VirtAddr va = as0().alloc(kPageSz, kPageSz);
  as0().write_u64(va, 0xD1D1);  // parent's mapping is dirty
  fork();
  EXPECT_EQ(as1().resident_pages(), 1u);  // every resident page shared
  EXPECT_EQ(pool().resident_pages(), 1u);  // one frame...
  EXPECT_EQ(pool().mapped_pages(), 2u);    // ...two mappings

  // p1 faults a fresh page: the global sweep's only candidate is the shared
  // frame — evicting it must fan out across BOTH sharers.
  const u64 sd0 = p0().shootdowns(), sd1 = p1().shootdowns();
  const VirtAddr fresh = va + 16 * kPageSz;
  fault(pg1(), p1(), fresh, /*is_write=*/false);

  EXPECT_FALSE(as0().is_mapped(va));
  EXPECT_FALSE(as1().is_mapped(va));
  EXPECT_EQ(p0().shootdowns(), sd0 + 1);  // each sharer shot down exactly once
  EXPECT_EQ(p1().shootdowns(), sd1 + 1);
  EXPECT_EQ(pool().evictions(), 1u);  // one victim frame, however many sharers
  EXPECT_EQ(pg0().evictions(), 1u);   // each owner performed its own unmap
  EXPECT_EQ(pg1().evictions(), 1u);
  // Exactly one writeback: the parent's mapping was dirty, the child's
  // fork-inherited mapping was clean — the frame's bytes are paid out once.
  EXPECT_EQ(pg0().writebacks(), 1u);
  EXPECT_EQ(pg1().writebacks(), 0u);
  EXPECT_EQ(pg0().swap_releases(), 1u);
  EXPECT_EQ(pg1().swap_releases(), 1u);
  // Both diverge into private swap lifecycles and keep their bytes.
  EXPECT_EQ(as0().read_u64(va), 0xD1D1u);
  EXPECT_EQ(as1().read_u64(va), 0xD1D1u);
}

TEST_F(CowFixture, DirtySharedFileFrameWritesBackExactlyOnce) {
  make(/*budget=*/1);
  add_p1();
  mem::BackingFile& file = group->files().create("data.dat", kPageSz);
  const VirtAddr va0 = p0().mmap(file, 0, kPageSz, /*shared=*/true);
  const VirtAddr va1 = p1().mmap(file, 0, kPageSz, /*shared=*/true);
  as0().write_u64(va0, 0xFACE);  // p0 faults it in and dirties it
  // p1 maps through the share index on the software path: with a one-frame
  // budget, a driven fault would evict the very frame it is about to share
  // (reservation runs before classification).
  as1().write_u64(va1, 0xFEED);  // shares the frame and dirties its PTE too
  EXPECT_EQ(pool().mapped_pages(), 2u);
  run_all();
  const u64 device_writes0 = pg0().buffer_cache().device_writes();

  // Evict the shared frame: both sharers are dirty, both report a
  // file_writeback — but the buffer cache dedups the two writes of the one
  // block into a single device write ("exactly one writeback").
  const VirtAddr fresh = as0().alloc(kPageSz, kPageSz);
  fault(pg0(), p0(), fresh, /*is_write=*/false);
  run_all();
  EXPECT_FALSE(as0().is_mapped(va0));
  EXPECT_FALSE(as1().is_mapped(va1));
  EXPECT_EQ(pg0().file_writebacks(), 1u);
  EXPECT_EQ(pg1().file_writebacks(), 1u);
  EXPECT_EQ(pg0().buffer_cache().device_writes() - device_writes0, 1u);
  // The file holds the final bytes; a fresh fault re-reads them.
  EXPECT_EQ(as1().read_u64(va1), 0xFEEDu);
}

TEST_F(CowFixture, PinBySharerProtectsFrameForAllSharers) {
  // Regression: the pool's pinned answer must aggregate over the owner-set.
  // Before the fix, a pin held by one sharer only protected that sharer's
  // own fault path — another process's fault could still nominate the
  // frame and rip it out from under the pinner.
  make(/*budget=*/2);
  const VirtAddr shared_va = as0().alloc(kPageSz, kPageSz);
  as0().write_u64(shared_va, 0x11);
  fork();
  EXPECT_EQ(as1().resident_pages(), 1u);  // every resident page shared
  const u64 shared_frame = frame_at(as0(), shared_va);

  // p1 maps a private page of its own: the pool is now at budget (2 frames)
  // with the shared frame first in the clock ring.
  const VirtAddr own_va = shared_va + 8 * kPageSz;
  as1().write_u64(own_va, 0x22);
  EXPECT_EQ(pool().resident_pages(), 2u);

  // p0 pins the shared page (in-flight DMA, say); p1 — a different process
  // — faults a third page. The sweep must skip the pinned shared frame and
  // evict p1's own unpinned page instead.
  as0().pin(shared_va);
  fault(pg1(), p1(), own_va + 8 * kPageSz, /*is_write=*/false);
  as0().unpin(shared_va);

  EXPECT_TRUE(as0().is_mapped(shared_va));  // survived, for every sharer
  EXPECT_TRUE(as1().is_mapped(shared_va));
  EXPECT_EQ(frames().refcount(shared_frame), 2u);
  EXPECT_FALSE(as1().is_mapped(own_va));  // the unpinned page paid instead
  EXPECT_EQ(pool().evictions(), 1u);
}

TEST_F(CowFixture, PoolAccessedBitIsTheOrOverEverySharer) {
  // The pool reads a shared frame's accessed bit through every sharer's
  // PTE. A short-circuiting OR would stop at the first referenced sharer
  // and leave the others' bits set, so the frame would look hot forever.
  make(/*budget=*/8);
  const VirtAddr va = as0().alloc(kPageSz, kPageSz);
  as0().write_u64(va, 0x11);
  fork();
  const u64 frame = frame_at(as0(), va);
  EXPECT_EQ(as0().read_u64(va), 0x11u);  // both sharers reference the page
  EXPECT_EQ(as1().read_u64(va), 0x11u);
  ASSERT_TRUE(as0().page_table().lookup(va)->accessed);
  ASSERT_TRUE(as1().page_table().lookup(va)->accessed);

  EXPECT_TRUE(pool().test_and_clear_accessed(frame));  // one reference...
  EXPECT_FALSE(as0().page_table().lookup(va)->accessed);  // ...consumed from both
  EXPECT_FALSE(as1().page_table().lookup(va)->accessed);
  EXPECT_FALSE(pool().test_and_clear_accessed(frame));
}

TEST_F(CowFixture, PoolFrameIsSpeculativeOnlyWhileEveryMappingIsALanding) {
  // A readahead landing is reclaimed first, but only while no process
  // uses the frame: a mapping that is not a landing makes it an ordinary
  // page for the whole owner-set.
  make(/*budget=*/16, /*readahead=*/2);
  const VirtAddr va = as0().alloc(3 * kPageSz, kPageSz);
  for (u64 p = 0; p < 3; ++p) as0().write_u64(va + p * kPageSz, 0x100 + p);
  p0().evict(va, 3 * kPageSz);  // three adjacent swap slots
  fault(pg0(), p0(), va, /*is_write=*/false);  // pages 1 and 2 ride along
  const VirtAddr landing = va + kPageSz;
  ASSERT_TRUE(pg0().is_speculative(landing / kPageSz));
  const u64 frame = frame_at(as0(), landing);
  EXPECT_TRUE(pool().speculative(frame));  // its one mapping is a landing

  fork();  // p1 maps the frame as a plain resident page
  EXPECT_TRUE(pg0().is_speculative(landing / kPageSz));
  EXPECT_FALSE(pg1().is_speculative(landing / kPageSz));
  EXPECT_FALSE(pool().speculative(frame));

  p1().evict(landing, kPageSz);  // only the landing maps the frame again
  EXPECT_TRUE(pool().speculative(frame));
  p0().evict(landing, kPageSz);  // no mapping left
  EXPECT_FALSE(pool().speculative(frame));
  run_all();
}

TEST(CowSharded, SerialEqualsShardedOnCowStorm) {
  // Four identical fork + COW-storm instances, each on a private simulator:
  // the merged registry must be bit-identical whether the shards ran
  // serially or on a host thread pool (fig14's --shards gate in miniature).
  const auto body = [](sim::Simulator& sim) {
    sls::PlatformSpec plat;
    plat.dram.size_bytes = 8 * MiB;
    plat.pager.budget_mode = BudgetMode::kGlobal;
    FramePoolConfig pc;
    pc.mode = BudgetMode::kGlobal;
    pc.total_frames = 6;
    sls::ProcessGroup group(sim, plat, pc);
    sls::System& parent = group.add_process("p0");
    const VirtAddr base = parent.address_space().alloc(4 * kPageSz, kPageSz);
    for (u64 p = 0; p < 4; ++p) parent.address_space().write_u64(base + p * kPageSz, 0x40 + p);
    sls::System& child = group.fork(parent, "p1");

    // Child COW-writes every page, chained fault to fault; the parent then
    // upgrades its now-sole mappings. Budget pressure (6 frames, up to 8
    // mappings) keeps the global sweep in play during the storm.
    sls::EpisodeDriver driver(sim);
    for (sls::System* s : {&parent, &child})
      driver.add_worker(s->address_space(), s->process(), *s->pager());
    for (u64 p = 0; p < 4; ++p) {
      driver.touches(1).push_back({base + p * kPageSz, true, 0xC0DE + p});
      driver.touches(0).push_back({base + p * kPageSz, true, 0xAB + p});
    }
    driver.start(1, 0);
    group.drain();
    driver.start(0, 0);
    group.drain();
  };

  std::vector<sls::Shard> shards;
  for (unsigned i = 0; i < 4; ++i) shards.push_back({std::string("s") + std::to_string(i), body});
  sls::ShardedRunner runner(2);
  const sls::ShardedReport report = runner.run(shards);
  EXPECT_NO_THROW(runner.verify_against_serial(shards, report));
}

}  // namespace
}  // namespace vmsls::paging
