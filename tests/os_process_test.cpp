#include <gtest/gtest.h>

#include "hwt/hw_port.hpp"
#include "mem/mmu.hpp"
#include "mem/walker.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "test_util.hpp"

namespace vmsls::rt {
namespace {

using test::MemorySystem;

struct OsFixture : ::testing::Test {
  MemorySystem ms;
  OsConfig cfg;
  std::unique_ptr<OsModel> os;
  std::unique_ptr<Process> process;

  void make(unsigned cores = 1) {
    cfg.service_cores = cores;
    os = std::make_unique<OsModel>(ms.sim, cfg, "os");
    process = std::make_unique<Process>(ms.sim, ms.as, "proc");
  }
};

TEST_F(OsFixture, ServiceTakesConfiguredTime) {
  make();
  Cycles done_at = 0;
  os->exec_service(100, [&] { done_at = ms.sim.now(); });
  ms.run_all();
  EXPECT_EQ(done_at, 100u);
}

TEST_F(OsFixture, SingleCoreSerializesServices) {
  make(1);
  Cycles a = 0, b = 0;
  os->exec_service(100, [&] { a = ms.sim.now(); });
  os->exec_service(100, [&] { b = ms.sim.now(); });
  ms.run_all();
  EXPECT_EQ(a, 100u);
  EXPECT_EQ(b, 200u);
}

TEST_F(OsFixture, TwoCoresOverlapServices) {
  make(2);
  Cycles a = 0, b = 0;
  os->exec_service(100, [&] { a = ms.sim.now(); });
  os->exec_service(100, [&] { b = ms.sim.now(); });
  ms.run_all();
  EXPECT_EQ(a, 100u);
  EXPECT_EQ(b, 100u);
}

TEST_F(OsFixture, ZeroServiceCoresAreRejected) {
  EXPECT_THROW(make(/*cores=*/0), std::invalid_argument);
}

TEST_F(OsFixture, ZeroCopyBandwidthIsRejected) {
  cfg.copy_bytes_per_cycle = 0;
  make();
  EXPECT_THROW(FaultHandler(ms.sim, *os, *process, "fh"), std::invalid_argument);
}

TEST_F(OsFixture, FaultHandlerMapsAndRetries) {
  make();
  FaultHandler fh(ms.sim, *os, *process, "fh");
  const VirtAddr va = ms.as.alloc(4096);
  bool retried = false;
  mem::FaultRequest req;
  req.va = va;
  req.retry = [&] { retried = true; };
  fh.raise(std::move(req));
  ms.run_all();
  EXPECT_TRUE(retried);
  EXPECT_TRUE(ms.as.is_mapped(va));
  EXPECT_EQ(fh.faults_serviced(), 1u);
}

TEST_F(OsFixture, FaultServiceChargesFullPath) {
  make();
  FaultHandler fh(ms.sim, *os, *process, "fh");
  const VirtAddr va = ms.as.alloc(4096);
  Cycles done_at = 0;
  mem::FaultRequest req;
  req.va = va;
  req.retry = [&] { done_at = ms.sim.now(); };
  fh.raise(std::move(req));
  ms.run_all();
  // At least irq + fault_service + map cost.
  EXPECT_GE(done_at, cfg.irq_latency + cfg.fault_service + cfg.map_page_cost);
}

TEST_F(OsFixture, DelegatePortPaysDelegateCosts) {
  make();
  process->add_mailbox(4, "m");
  DelegateOsPort port(ms.sim, *os, *process, "dp");
  process->mailbox(0).put(5, [] {});
  Cycles done_at = 0;
  i64 got = 0;
  port.mbox_get(0, [&](i64 v) {
    got = v;
    done_at = ms.sim.now();
  });
  ms.run_all();
  EXPECT_EQ(got, 5);
  EXPECT_GE(done_at, cfg.irq_latency + cfg.syscall_service + cfg.response_latency);
}

TEST_F(OsFixture, DirectPortIsCheaper) {
  make();
  process->add_mailbox(4, "m");
  DirectOsPort direct(ms.sim, cfg, *process, "sp");
  process->mailbox(0).put(5, [] {});
  Cycles done_at = 0;
  direct.mbox_get(0, [&](i64) { done_at = ms.sim.now(); });
  ms.run_all();
  EXPECT_EQ(done_at, cfg.sw_syscall);
  EXPECT_LT(done_at, cfg.irq_latency);
}

TEST_F(OsFixture, BindingsRemapObjectIndices) {
  make();
  process->add_mailbox(4, "zero");
  process->add_mailbox(4, "one");
  DirectOsPort port(ms.sim, cfg, *process, "sp");
  OsBindings b;
  b.mailboxes = {1};  // kernel mailbox 0 -> process mailbox 1
  port.set_bindings(b);
  port.mbox_put(0, 77, [] {});
  ms.run_all();
  i64 v = 0;
  EXPECT_FALSE(process->mailbox(0).try_get(v));
  EXPECT_TRUE(process->mailbox(1).try_get(v));
  EXPECT_EQ(v, 77);
}

TEST_F(OsFixture, UnboundIndexThrows) {
  make();
  process->add_mailbox(4, "only");
  DirectOsPort port(ms.sim, cfg, *process, "sp");
  OsBindings b;
  b.mailboxes = {0};
  port.set_bindings(b);
  EXPECT_THROW(port.mbox_put(1, 1, [] {}), std::invalid_argument);
}

TEST_F(OsFixture, DelegateSemaphoreBlocksAndWakes) {
  make();
  process->add_semaphore(0, "s");
  DelegateOsPort port(ms.sim, *os, *process, "dp");
  bool acquired = false;
  port.sem_wait(0, [&] { acquired = true; });
  ms.run_all();
  EXPECT_FALSE(acquired);
  port.sem_post(0, [] {});
  ms.run_all();
  EXPECT_TRUE(acquired);
}

// --- process ---

TEST_F(OsFixture, ProcessObjectTables) {
  make();
  process->add_mailbox(4, "a");
  process->add_semaphore(1, "b");
  EXPECT_EQ(process->mailbox_count(), 1u);
  EXPECT_EQ(process->semaphore_count(), 1u);
  EXPECT_EQ(process->mailbox(0).name(), "a");
  EXPECT_THROW(process->mailbox(1), std::out_of_range);
  EXPECT_THROW(process->semaphore(9), std::out_of_range);
}

TEST_F(OsFixture, ProcessEvictShootsDownTlbs) {
  make();
  mem::WalkerConfig wcfg;
  mem::PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), wcfg, "w");
  mem::Mmu mmu(ms.sim, walker, mem::MmuConfig{}, "mmu", 0);
  process->register_mmu(&mmu);
  process->register_walker(&walker);

  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  // Warm the TLB.
  bool done = false;
  mmu.translate(va, false, [&](PhysAddr) { done = true; });
  ms.run_all();
  ASSERT_TRUE(done);
  ASSERT_TRUE(mmu.tlb().peek(va >> 12).has_value());

  EXPECT_EQ(process->evict(va, 4096), 1u);
  EXPECT_FALSE(mmu.tlb().peek(va >> 12).has_value());
  EXPECT_EQ(process->shootdowns(), 1u);
}

TEST_F(OsFixture, ShootdownAllFlushesEverything) {
  make();
  mem::WalkerConfig wcfg;
  mem::PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), wcfg, "w");
  mem::Mmu mmu(ms.sim, walker, mem::MmuConfig{}, "mmu", 0);
  process->register_mmu(&mmu);
  const VirtAddr va = ms.as.alloc(2 * 4096);
  ms.as.populate(va, 2 * 4096);
  for (int i = 0; i < 2; ++i) {
    mmu.translate(va + static_cast<u64>(i) * 4096, false, [](PhysAddr) {});
  }
  ms.run_all();
  process->shootdown_all();
  EXPECT_FALSE(mmu.tlb().peek(va >> 12).has_value());
}

// --- eviction and saved copies ---
//
// An evicted page's bytes go to the backing store and come back when it is
// mapped again: moved, for a frame no other space maps, copied otherwise.
// Every eviction saves; the PTE dirty bit plays no part, and none of the
// writes below sets it (no observer, no file region, hardware A/D tracking
// off), yet every one must survive.

TEST_F(OsFixture, EvictedPagesMoveToTheirSlotAndBack) {
  make();
  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.write_u64(va, 1);
  ASSERT_EQ(process->evict(va, 4096), 1u);
  EXPECT_TRUE(ms.as.has_backing(va / 4096));
  process->map_in(va);
  EXPECT_TRUE(ms.as.has_backing(va / 4096));  // the slot stays, holding the frame's old page
  EXPECT_EQ(ms.as.read_u64(va), 1u);
  ms.as.write_u64(va + 8, 2);
  // An unmodified round trip keeps the bytes too.
  ASSERT_EQ(process->evict(va, 4096), 1u);
  process->map_in(va);
  ASSERT_EQ(process->evict(va, 4096), 1u);
  EXPECT_EQ(ms.as.read_u64(va), 1u);
  EXPECT_EQ(ms.as.read_u64(va + 8), 2u);
  EXPECT_EQ(ms.as.copied_pages(), 0u);  // every save and fill was a move
}

TEST_F(OsFixture, EvictResavesAFrameWrittenBehindThePte) {
  make();
  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.write_u64(va, 1);
  ASSERT_EQ(process->evict(va, 4096), 1u);
  process->map_in(va);  // filled from the saved copy
  // A write straight into the frame, as a bus or DMA completion lands it.
  ms.pm.write_u64(*ms.as.translate(va + 8), 2);
  ASSERT_FALSE(ms.as.page_table().lookup(va)->dirty);
  ASSERT_EQ(process->evict(va, 4096), 1u);
  EXPECT_EQ(ms.as.read_u64(va), 1u);
  EXPECT_EQ(ms.as.read_u64(va + 8), 2u);
}

TEST_F(OsFixture, EvictResavesAHardwareWriteWithAdTrackingOff) {
  make();
  mem::PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), mem::WalkerConfig{}, "w");
  mem::MmuConfig mcfg;
  mcfg.ad_tracking = false;
  mem::Mmu mmu(ms.sim, walker, mcfg, "mmu", 0);
  process->register_mmu(&mmu);
  process->register_walker(&walker);
  hwt::HwMemPort port(ms.sim, mmu, ms.bus, ms.pm, hwt::HwPortConfig{}, "port");

  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.write_u64(va, 1);
  ASSERT_EQ(process->evict(va, 4096), 1u);
  process->map_in(va);
  // A read fills the TLB; the store then hits it, and with A/D tracking
  // off a TLB hit leaves the PTE alone.
  u64 word = 0;
  bool done = false;
  port.read(va, std::span<u8>(reinterpret_cast<u8*>(&word), 8), [&done] { done = true; });
  ms.run_all();
  ASSERT_TRUE(done);
  ASSERT_EQ(word, 1u);
  word = 2;
  done = false;
  port.write(va + 16, std::span<const u8>(reinterpret_cast<const u8*>(&word), 8),
             [&done] { done = true; });
  ms.run_all();
  ASSERT_TRUE(done);
  ASSERT_FALSE(ms.as.page_table().lookup(va)->dirty);
  ASSERT_EQ(process->evict(va, 4096), 1u);
  EXPECT_EQ(ms.as.read_u64(va), 1u);
  EXPECT_EQ(ms.as.read_u64(va + 16), 2u);
}

TEST_F(OsFixture, AForkSharedFrameEvictedByOneSharerIsCopied) {
  make();
  mem::AddressSpace child_as(ms.pm, ms.frames, mem::PageTableConfig{});
  Process child(ms.sim, child_as, "child");
  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.write_u64(va, 1);
  ASSERT_EQ(process->fork(child), 1u);
  // The parent's eviction leaves the child mapping the frame: a copy.
  ASSERT_EQ(process->evict(va, 4096), 1u);
  EXPECT_EQ(ms.as.copied_pages(), 1u);
  EXPECT_EQ(child_as.read_u64(va), 1u);
  // The child is now the frame's only mapping: its eviction moves.
  ASSERT_EQ(child.evict(va, 4096), 1u);
  EXPECT_EQ(child_as.copied_pages(), 0u);
  EXPECT_EQ(child_as.read_u64(va), 1u);
  EXPECT_EQ(ms.as.read_u64(va), 1u);
}

TEST_F(OsFixture, ForkSharedFramesEvictedFromBothSpacesKeepTheirBytes) {
  make();
  mem::AddressSpace child_as(ms.pm, ms.frames, mem::PageTableConfig{});
  Process child(ms.sim, child_as, "child");
  // Three pages, each saved once as 1 and mapped back from that copy:
  // `clean` stays unmodified, `stale` is rewritten in software before the
  // fork (both spaces then hold an out-of-date copy of it), and `dma` is
  // written straight into the shared frame after the fork.
  const VirtAddr va = ms.as.alloc(3 * 4096, 4096);
  const VirtAddr clean = va, stale = va + 4096, dma = va + 2 * 4096;
  for (const VirtAddr p : {clean, stale, dma}) ms.as.write_u64(p, 1);
  ASSERT_EQ(process->evict(va, 3 * 4096), 3u);
  for (const VirtAddr p : {clean, stale, dma}) process->map_in(p);
  ms.as.write_u64(stale, 2);
  ASSERT_EQ(process->fork(child), 3u);
  ms.pm.write_u64(*child_as.translate(dma), 3);
  ASSERT_EQ(process->evict(va, 3 * 4096), 3u);
  ASSERT_EQ(child.evict(va, 3 * 4096), 3u);
  for (mem::AddressSpace* as : {&ms.as, &child_as}) {
    EXPECT_EQ(as->read_u64(clean), 1u);
    EXPECT_EQ(as->read_u64(stale), 2u);
    EXPECT_EQ(as->read_u64(dma), 3u);
  }
}

TEST(SubChunkPages, PagesSmallerThanAChunkAreCopied) {
  // 1 KiB pages share a 4 KiB host page with their neighbours, so they
  // cannot move: every save and every fill from a slot copies.
  MemorySystem ms{mem::PageTableConfig{32, 10}};
  const VirtAddr va = ms.as.alloc(2 * 1024, 1024);
  ms.as.write_u64(va, 1);
  ms.as.write_u64(va + 1024, 2);
  ASSERT_EQ(ms.as.evict(va, 2 * 1024), 2u);
  ms.as.map_page(va);
  ms.pm.write_u64(*ms.as.translate(va + 8), 3);
  ASSERT_EQ(ms.as.evict(va, 2 * 1024), 1u);
  EXPECT_EQ(ms.as.read_u64(va), 1u);
  EXPECT_EQ(ms.as.read_u64(va + 8), 3u);
  EXPECT_EQ(ms.as.read_u64(va + 1024), 2u);
  // Saves: 2 + 1; fills: map_page, then the two reads that map back.
  EXPECT_EQ(ms.as.copied_pages(), 6u);
}

TEST(BackingSlots, ADestroyedSpaceReturnsItsSlotsToThePool) {
  MemorySystem ms;
  {
    mem::AddressSpace as(ms.pm, ms.frames, mem::PageTableConfig{});
    const VirtAddr va = as.alloc(4 * 4096, 4096);
    for (u64 p = 0; p < 4; ++p) as.write_u64(va + p * 4096, p + 1);
    ASSERT_EQ(as.evict(va, 4 * 4096), 4u);
    EXPECT_EQ(ms.pm.pool_pages(), ms.pm.touched_chunks() + 4);  // four slot pages
  }
  // Only frames' pages (the page tables') are still handed out.
  EXPECT_EQ(ms.pm.pool_pages(), ms.pm.touched_chunks());
}

TEST(HugePages, A2MiBPageMovesAsOneSlotOf512HostPages) {
  MemorySystem ms{mem::PageTableConfig{32, 21}};
  constexpr u64 kHuge = 2 * MiB;
  constexpr u64 kOffsets[] = {0, 300 * 4096 + 8, kHuge - 8};  // first, a middle, last chunk
  const VirtAddr va = ms.as.alloc(kHuge, kHuge);
  for (const u64 off : kOffsets) ms.as.write_u64(va + off, off + 1);
  const std::size_t chunks = ms.pm.touched_chunks();
  ASSERT_EQ(ms.as.evict(va, kHuge), 1u);
  EXPECT_TRUE(ms.as.has_backing(va / kHuge));
  EXPECT_EQ(ms.pm.touched_chunks(), chunks - 3);  // the frame's pages left with it
  ms.as.map_page(va);
  for (const u64 off : kOffsets) EXPECT_EQ(ms.as.read_u64(va + off), off + 1) << off;
  EXPECT_EQ(ms.as.read_u64(va + 4096), 0u);  // a chunk never written is still zero
  EXPECT_EQ(ms.as.copied_pages(), 0u);
  // Written again and evicted again: the new bytes win.
  ms.as.write_u64(va + 4096, 7);
  ASSERT_EQ(ms.as.evict(va, kHuge), 1u);
  EXPECT_EQ(ms.as.read_u64(va + 4096), 7u);
  EXPECT_EQ(ms.as.read_u64(va), 1u);
}

}  // namespace
}  // namespace vmsls::rt
