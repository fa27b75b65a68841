// Exact allocation gate for the hardware-thread memory path.
//
// This binary links the counting global operator new/delete of
// alloc_counter.cpp, then asserts that once the pools have warmed up, a
// hardware thread's memory traffic — port, MMU/TLB, shared walker, fault
// retry, bus and the engine driving them — performs zero heap allocations,
// and so do software accesses to resident pages, an address space's
// evict -> map cycle, a copy-based offload transfer in either copy mode,
// and the pager's fault -> evict -> dirty writeback -> swap-in cycle in
// either budget mode, with swap-in readahead and driven by the episode
// driver, whose read touches check what they read. A TLB hit and a
// tail-call bus request that complete in place call their completion
// directly, so even one too large for a Callback's inline storage costs
// nothing there.
// The count is a deterministic work count, so the gate is exact and
// host-independent.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "dma/dma_engine.hpp"
#include "dma/offload.hpp"
#include "hwt/builder.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/pager.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "sls/episode.hpp"
#include "test_util.hpp"

namespace vmsls::hwt {
namespace {

using test::MemorySystem;

/// Heap allocations `fn` performs.
template <typename Fn>
unsigned long long allocs_during(Fn&& fn) {
  const unsigned long long before = alloc_counter::count();
  fn();
  return alloc_counter::count() - before;
}

constexpr unsigned kPages = 64;

struct AllocFreeFixture : ::testing::Test, mem::FaultSink {
  MemorySystem ms;
  std::unique_ptr<mem::PageWalker> walker;
  std::unique_ptr<mem::Mmu> mmu;
  std::unique_ptr<HwMemPort> port;
  VirtAddr base = 0;
  mem::FaultRequest parked;  // the fault in service
  u64 spare_frame = 0;
  unsigned faults = 0;

  void SetUp() override {
    base = ms.as.alloc(kPages * 4096, 4096);
    ms.as.populate(base, kPages * 4096);
    spare_frame = *ms.frames.alloc();
  }

  void make_port(unsigned tlb_entries) {
    walker = std::make_unique<mem::PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(),
                                               mem::WalkerConfig{}, "w");
    mem::MmuConfig cfg;
    cfg.tlb = cfg.tlb.with_entries(tlb_entries);
    mmu = std::make_unique<mem::Mmu>(ms.sim, *walker, cfg, "mmu", 0);
    mmu->set_fault_sink(this);
    port = std::make_unique<HwMemPort>(ms.sim, *mmu, ms.bus, ms.pm, HwPortConfig{}, "port");
  }

  /// An MMU (no port) whose TLB hits take `hit_latency` cycles, with the
  /// first four pages of the buffer in its TLB.
  void make_warm_mmu(Cycles hit_latency) {
    walker = std::make_unique<mem::PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(),
                                               mem::WalkerConfig{}, "w");
    mem::MmuConfig cfg;
    cfg.tlb.hit_latency = hit_latency;
    mmu = std::make_unique<mem::Mmu>(ms.sim, *walker, cfg, "mmu", 0);
    for (unsigned p = 0; p < 4; ++p) mmu->translate(base + p * 4096ull, false, [](PhysAddr) {});
    ms.run_all();
  }

  // The sink maps the page straight into the page table with a frame set
  // aside up front, then retries from a stored request: no allocation of
  // its own, so the count isolates the MMU/walker/port fault path.
  void raise(mem::FaultRequest req) override {
    ++faults;
    parked = std::move(req);
    ms.sim.schedule_in(50, [this] {
      ms.as.page_table().map(parked.va, spare_frame, /*writable=*/true);
      auto retry = std::move(parked.retry);
      retry();
    });
  }

  /// Reads then writes one word on each of `pages` pages, draining after
  /// every access.
  void sweep(unsigned pages) {
    for (unsigned p = 0; p < pages; ++p) {
      const VirtAddr va = base + p * 4096ull + 8 * (p % 16);
      u64 word = 0;
      bool done = false;
      port->read(va, std::span<u8>(reinterpret_cast<u8*>(&word), 8), [&done] { done = true; });
      ms.run_all();
      ASSERT_TRUE(done);
      ++word;
      done = false;
      port->write(va, std::span<const u8>(reinterpret_cast<const u8*>(&word), 8),
                  [&done] { done = true; });
      ms.run_all();
      ASSERT_TRUE(done);
    }
  }
};

TEST_F(AllocFreeFixture, TlbHitsDoNotAllocate) {
  make_port(/*tlb_entries=*/16);
  sweep(4);  // warm-up: TLB fill, pools, bus ring
  const u64 walks = ms.sim.stats().counter_value("w.walks");
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < 200; ++i) sweep(4);
            }),
            0u);
  EXPECT_EQ(ms.sim.stats().counter_value("w.walks"), walks);  // every access hit
}

TEST_F(AllocFreeFixture, TlbMissesAndWalksDoNotAllocate) {
  make_port(/*tlb_entries=*/4);
  sweep(kPages);  // warm-up
  const u64 walks = ms.sim.stats().counter_value("w.walks");
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < 10; ++i) sweep(kPages);
            }),
            0u);
  // 64 pages through a 4-entry TLB: every read misses and walks.
  EXPECT_GE(ms.sim.stats().counter_value("w.walks") - walks, 10u * kPages);
}

TEST_F(AllocFreeFixture, FaultAndRetryDoesNotAllocate) {
  make_port(/*tlb_entries=*/16);
  const VirtAddr va = base + kPages * 4096ull;  // past the populated buffer
  auto fault_round_trip = [&] {
    u64 word = 0;
    bool done = false;
    port->read(va, std::span<u8>(reinterpret_cast<u8*>(&word), 8), [&done] { done = true; });
    ms.run_all();
    ASSERT_TRUE(done);
    ms.as.page_table().unmap(va);
    mmu->shootdown(va);
  };
  ms.as.page_table().map(va, spare_frame, true);  // build the interior tables
  ms.as.page_table().unmap(va);
  fault_round_trip();  // warm-up
  EXPECT_EQ(faults, 1u);
  EXPECT_EQ(allocs_during(fault_round_trip), 0u);
  EXPECT_EQ(faults, 2u);
}

// A completion whose captures exceed a Callback's 56 inline bytes spills to
// the heap once it is type-erased. The MMU and the bus type-erase a
// completion only when the access waits, so one that completes in place
// calls even such a completion without allocating.
using Pad = std::array<u64, 8>;  // 64 bytes of captures

TEST_F(AllocFreeFixture, InlineTlbHitCallsAWideCompletionWithoutAllocating) {
  make_warm_mmu(/*hit_latency=*/0);
  const Pad pad{1};
  PhysAddr sum = 0;
  auto wide = [pad, &sum](PhysAddr pa) { sum += pa + pad[0]; };
  static_assert(!sim::Callback<PhysAddr>::fits_inline<decltype(wide)>());
  const u64 inline_before = mmu->inline_completions();
  EXPECT_EQ(allocs_during([&] {
              for (unsigned i = 0; i < 400; ++i)
                mmu->translate(base + (i % 4) * 4096ull, false, wide);
            }),
            0u);
  EXPECT_EQ(mmu->inline_completions() - inline_before, 400u);
  EXPECT_GT(sum, 400u);
}

TEST_F(AllocFreeFixture, RunAheadTlbHitCallsAWideCompletionWithoutAllocating) {
  make_warm_mmu(/*hit_latency=*/1);
  const Pad pad{1};
  unsigned hits = 0;
  auto wide = [pad, &hits](PhysAddr) { hits += static_cast<unsigned>(pad[0]); };
  static_assert(!sim::Callback<PhysAddr>::fits_inline<decltype(wide)>());
  // Each translation runs inside a token-holding event with nothing else
  // pending, so its timed hit runs ahead to completion in place.
  auto round = [&] {
    for (unsigned i = 0; i < 4; ++i) {
      ms.sim.schedule_run_ahead(ms.sim.now(),
                                [&, i] { mmu->translate(base + i * 4096ull, false, wide); });
      ms.run_all();
    }
  };
  round();  // warm-up: event pool
  const u64 steps = ms.sim.run_ahead_steps();
  hits = 0;
  EXPECT_EQ(allocs_during([&] {
              for (int r = 0; r < 100; ++r) round();
            }),
            0u);
  EXPECT_EQ(hits, 400u);
  EXPECT_EQ(ms.sim.run_ahead_steps() - steps, 400u);
}

TEST_F(AllocFreeFixture, TailCallBusRequestOnAnIdleChannelCallsAWideCompletionDirectly) {
  const Pad pad{1};
  unsigned completed = 0;
  auto wide = [pad, &completed] { completed += static_cast<unsigned>(pad[0]); };
  static_assert(!sim::EventFn::fits_inline<decltype(wide)>());
  const PhysAddr pa = *ms.as.translate(base);
  // The channel is idle at each event (the last drain retired everything),
  // so the read completes in place inside request().
  auto round = [&] {
    ms.sim.schedule_run_ahead(ms.sim.now(), [&] {
      ms.bus.request(pa, 8, /*is_write=*/false, wide, /*tail_call=*/true);
    });
    ms.run_all();
  };
  round();  // warm-up: event pool, DRAM row
  const u64 steps = ms.sim.run_ahead_steps();
  completed = 0;
  EXPECT_EQ(allocs_during([&] {
              for (int r = 0; r < 400; ++r) round();
            }),
            0u);
  EXPECT_EQ(completed, 400u);
  EXPECT_EQ(ms.sim.run_ahead_steps() - steps, 400u);
}

/// An engine kernel that runs `iters` rounds of load, store, burst load and
/// burst store through a real HwMemPort.
Kernel mem_loop(VirtAddr buf, i64 iters) {
  KernelBuilder kb("memloop", /*spad_bytes=*/1024);
  kb.li(1, static_cast<i64>(buf))  // r1 = buffer
      .li(2, 0)                    // r2 = i
      .li(3, iters)
      .li(6, 0)      // r6 = scratchpad offset
      .li(7, 1024)   // r7 = burst length (spans a page boundary below)
      .label("loop")
      .seq(4, 2, 3)
      .bnez(4, "out")
      .load(5, 1, 8)
      .addi(5, 5, 1)
      .store(1, 5, 8)
      .burst_load(6, 8, 7)
      .burst_store(8, 6, 7)
      .addi(2, 2, 1)
      .jmp("loop")
      .label("out")
      .halt();
  return kb.build();
}

/// Allocations of a whole engine run of mem_loop(iters) on a fresh system.
unsigned long long engine_run_allocs(i64 iters) {
  MemorySystem ms;
  const VirtAddr buf = ms.as.alloc(4 * 4096, 4096);
  ms.as.populate(buf, 4 * 4096);
  mem::PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), mem::WalkerConfig{}, "w");
  mem::Mmu mmu(ms.sim, walker, mem::MmuConfig{}, "mmu", 0);
  HwMemPort port(ms.sim, mmu, ms.bus, ms.pm, HwPortConfig{}, "port");
  Kernel k = mem_loop(buf, iters);
  // r8 = burst address: 1 KiB straddling the first page boundary.
  Engine engine(ms.sim, std::move(k), EngineConfig{}, "eng");
  engine.set_reg(8, static_cast<i64>(buf + 4096 - 512));
  engine.attach_mem_port(0, &port);
  bool halted = false;
  const unsigned long long n = allocs_during([&] {
    engine.start([&halted] { halted = true; });
    ms.run_all();
  });
  EXPECT_TRUE(halted);
  EXPECT_EQ(ms.pm.read_u64(*ms.as.translate(buf + 8)), static_cast<u64>(iters));
  return n;
}

TEST_F(AllocFreeFixture, SoftwareAccessToResidentPagesDoesNotAllocate) {
  auto touch_all = [&] {
    for (unsigned p = 0; p < kPages; ++p) {
      const VirtAddr va = base + p * 4096ull + 8 * (p % 16);
      ms.as.write_u64(va, ms.as.read_u64(va) + 1);
    }
  };
  EXPECT_EQ(allocs_during(touch_all), 0u);
  EXPECT_EQ(ms.as.read_u64(base), 1u);
}

TEST_F(AllocFreeFixture, EvictMapCycleDoesNotAllocate) {
  // Every page is pinned and unpinned, evicted and mapped back; odd pages
  // are written in between, even pages are not. Either way the eviction
  // moves the frame's host page into the backing slot and the map moves it
  // back, so no host page is taken or returned. Warm-up sizes the
  // vpn-indexed backing store and pin table; after it neither grows.
  auto cycle = [&](u64 value) {
    for (unsigned p = 0; p < kPages; ++p) {
      const VirtAddr va = base + p * 4096ull;
      ms.as.pin(va);
      ms.as.unpin(va);
      if (p % 2 == 1) ms.as.write_u64(va, value);
      ASSERT_EQ(ms.as.evict(va, 4096), 1u);
      ms.as.map_page(va);
    }
  };
  cycle(1);
  EXPECT_EQ(allocs_during([&] {
              for (u64 i = 2; i < 6; ++i) cycle(i);
            }),
            0u);
  EXPECT_EQ(ms.as.read_u64(base), 0u);
  EXPECT_EQ(ms.as.read_u64(base + 4096), 5u);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
}

TEST(AllocFree, EngineMemoryLoopAllocatesNothingPerIteration) {
  // Warm-up cost is the same for any iteration count; steady state is 0.
  const unsigned long long short_run = engine_run_allocs(100);
  EXPECT_GT(short_run, 0u);  // the counter does see the warm-up
  EXPECT_EQ(engine_run_allocs(400), short_run);
}

}  // namespace
}  // namespace vmsls::hwt

namespace vmsls::dma {
namespace {

using hwt::allocs_during;
using test::MemorySystem;

/// An offload driver over eight resident user pages, with an optional pager.
struct OffloadAllocFixture : ::testing::Test {
  static constexpr u64 kBytes = 8 * 4096;
  MemorySystem ms;
  rt::OsModel os{ms.sim, rt::OsConfig{}, "os"};
  rt::Process process{ms.sim, ms.as, "p"};
  DmaEngine dma{ms.sim, ms.bus, ms.pm, DmaConfig{}, "dma"};
  test::PagerPtr pager;
  std::unique_ptr<OffloadDriver> driver;
  VirtAddr va = 0;
  PinnedBuffer buf;

  /// `frame_budget` 0 runs without a pager.
  void make(CopyMode mode, u64 frame_budget) {
    va = ms.as.alloc(kBytes, 4096);
    ms.as.populate(va, kBytes);
    if (frame_budget > 0) {
      paging::PagerConfig pc;
      pc.frame_budget = frame_budget;
      pager = test::PagerPtr(ms.sim, process, pc, "pager");
    }
    OffloadConfig cfg;
    cfg.mode = mode;
    driver = std::make_unique<OffloadDriver>(ms.sim, os, process, dma, ms.bus, ms.pm, cfg,
                                             "offload", pager.get());
    buf = driver->alloc_pinned(kBytes);
  }

  void copy(bool in) {
    bool done = false;
    if (in)
      driver->copy_in(va, buf, 0, kBytes, [&done] { done = true; });
    else
      driver->copy_out(buf, 0, va, kBytes, [&done] { done = true; });
    ms.run_all();
    ASSERT_TRUE(done);
  }

  void round_trip() {
    copy(/*in=*/true);
    copy(/*in=*/false);
  }
};

TEST_F(OffloadAllocFixture, SgTransferWithoutPagerDoesNotAllocate) {
  make(CopyMode::kSgDma, /*frame_budget=*/0);
  round_trip();  // warm-up: transfer and DMA pools, pin table, bus ring
  EXPECT_EQ(allocs_during([&] { round_trip(); }), 0u);
}

TEST_F(OffloadAllocFixture, SgTransferUnderCoveringBudgetDoesNotAllocate) {
  make(CopyMode::kSgDma, /*frame_budget=*/32);
  round_trip();
  EXPECT_EQ(allocs_during([&] { round_trip(); }), 0u);
  EXPECT_EQ(driver->chunked_runs(), 0u);  // the quota covers the range
  EXPECT_EQ(ms.sim.stats().counter_value("offload.pin_faults"), 0u);
}

TEST_F(OffloadAllocFixture, CpuCopyInDoesNotAllocate) {
  make(CopyMode::kCpuCopy, /*frame_budget=*/0);
  copy(/*in=*/true);
  EXPECT_EQ(allocs_during([&] { copy(/*in=*/true); }), 0u);
}

}  // namespace
}  // namespace vmsls::dma

namespace vmsls::paging {
namespace {

using hwt::allocs_during;
using test::MemorySystem;

/// One pager cycling four pages through a two-frame budget: every fault
/// evicts a dirty victim (a swap write the fault waits on) and swaps its
/// own page back in.
struct PagingCycleFixture : ::testing::Test {
  static constexpr unsigned kPages = 4;
  static constexpr u64 kBudget = 2;
  MemorySystem ms;
  // A small frame region: the allocator hands out frames next-fit, so the
  // frame numbers the pool's tables are indexed by wrap within warm-up.
  mem::FrameAllocator frames{1 * MiB, 16, 4096};
  mem::AddressSpace as{ms.pm, frames, mem::PageTableConfig{}};
  rt::Process process{ms.sim, as, "p"};
  std::unique_ptr<FramePool> pool;
  test::PagerPtr pager;
  VirtAddr base = 0;

  void make(BudgetMode mode, unsigned readahead = 0) {
    PagerConfig pc;
    pc.budget_mode = mode;
    pc.swap.readahead = readahead;
    if (mode == BudgetMode::kGlobal) {
      FramePoolConfig fc;
      fc.mode = BudgetMode::kGlobal;
      fc.total_frames = kBudget;
      pool = std::make_unique<FramePool>(ms.sim, fc);
    } else {
      pc.frame_budget = kBudget;
    }
    pager = test::PagerPtr(ms.sim, process, pc, "pager");
    if (pool) pool->attach(*pager);
    base = as.alloc(kPages * 4096, 4096);
  }

  /// Faults every page in turn, writing each once it maps.
  void cycle() {
    for (unsigned p = 0; p < kPages; ++p) {
      const VirtAddr va = base + p * 4096ull;
      bool done = false;
      pager->handle_fault(va, /*is_write=*/true, [this, va, &done] {
        if (!as.is_mapped(va)) process.map_in(va);
        as.write_u64(va, va);
        done = true;
      });
      ms.run_all();
      ASSERT_TRUE(done);
    }
  }

  void expect_cycles_do_not_allocate() {
    for (int i = 0; i < 8; ++i) cycle();  // warm-up: tables, pools, queue
    const u64 writebacks = pager->writebacks();
    const u64 swap_ins = pager->swap_ins();
    EXPECT_EQ(allocs_during([&] {
                for (int i = 0; i < 8; ++i) cycle();
              }),
              0u);
    // Every measured fault paid the whole cycle.
    EXPECT_EQ(pager->writebacks() - writebacks, 8u * kPages);
    EXPECT_EQ(pager->swap_ins() - swap_ins, 8u * kPages);
    EXPECT_LE(as.resident_pages(), kBudget);
  }
};

TEST_F(PagingCycleFixture, PerProcessBudgetCycleDoesNotAllocate) {
  make(BudgetMode::kPerProcess);
  expect_cycles_do_not_allocate();
}

TEST_F(PagingCycleFixture, GlobalPoolCycleDoesNotAllocate) {
  make(BudgetMode::kGlobal);
  expect_cycles_do_not_allocate();
  EXPECT_GT(pool->evictions(), 0u);
}

TEST_F(PagingCycleFixture, EpisodeCycleDoesNotAllocate) {
  // The serving plane's loop over the same pages: each page is read (the
  // value the previous episode stored is checked) and then written, and
  // every touch faults through the two-frame budget.
  make(BudgetMode::kPerProcess);
  sls::EpisodeDriver driver{ms.sim};
  driver.add_worker(as, process, *pager);
  for (unsigned p = 0; p < kPages; ++p) {
    driver.touches(0).push_back({base + p * 4096ull, false, 0});
    driver.touches(0).push_back({base + p * 4096ull, true, 100 + p});
  }
  auto episode = [&] {
    driver.start(0, 0);
    ms.run_all();
    ASSERT_FALSE(driver.busy(0));
  };
  for (int i = 0; i < 8; ++i) episode();
  const u64 swap_ins = pager->swap_ins();
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < 8; ++i) episode();
            }),
            0u);
  EXPECT_EQ(pager->swap_ins() - swap_ins, 8u * kPages);
}

TEST_F(PagingCycleFixture, ReadaheadCycleDoesNotAllocate) {
  // Evicting every page in vpn order clusters their swap slots; faulting
  // the first back in then fills the readahead neighbor list and pulls the
  // next two pages as prefetch faults in the same device operation. The
  // prefetch path must be as allocation-free as the demand one.
  make(BudgetMode::kPerProcess, /*readahead=*/2);
  auto readahead_cycle = [this] {
    process.evict(base, kPages * 4096);
    bool done = false;
    pager->handle_fault(base, /*is_write=*/false, [this, &done] {
      if (!as.is_mapped(base)) process.map_in(base);
      done = true;
    });
    ms.run_all();
    ASSERT_TRUE(done);
  };
  for (int i = 0; i < 8; ++i) cycle();
  for (int i = 0; i < 8; ++i) readahead_cycle();
  const u64 prefetches = pager->prefetches();
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < 8; ++i) readahead_cycle();
            }),
            0u);
  EXPECT_EQ(pager->prefetches() - prefetches, 8u * 2);
}

}  // namespace
}  // namespace vmsls::paging

namespace vmsls {
namespace {

// The sharded smokes allocate on several host threads at once, so the
// counter must not lose a concurrent increment. The threads start before
// the first read and stay alive past the second, so thread setup and
// teardown stay outside the window and the sum is exact.
TEST(AllocCounter, AllocationsFromSeveralThreadsSumExactly) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 20'000;
  std::atomic<bool> go{false};
  std::atomic<unsigned> finished{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      // Direct operator calls: a new-expression pair may be elided.
      for (unsigned i = 0; i < kPerThread; ++i) ::operator delete(::operator new(16));
      ++finished;
      while (!release.load()) std::this_thread::yield();
    });
  const unsigned long long before = alloc_counter::count();
  go = true;
  while (finished.load() < kThreads) std::this_thread::yield();
  const unsigned long long after = alloc_counter::count();
  release = true;
  for (auto& t : threads) t.join();
  EXPECT_EQ(after - before, static_cast<unsigned long long>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace vmsls
