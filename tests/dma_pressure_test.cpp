// DMA offload under memory pressure: the pinned scatter-gather path and
// its deadlock-safe admission. Pins the nasty cases — a frame budget
// smaller than one scatter-gather run (must chunk and drain), two
// concurrent offloads whose combined pin demand exceeds the budget (must
// serialize, not deadlock), a chunked run that starts mid-page, pin-count
// invariants (every pin released at completion, no pinned page ever
// selected as victim), the CPU-copy fault-through-pager path, and the DSE
// offload × pager grid.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dma/dma_engine.hpp"
#include "dma/offload.hpp"
#include "mem/paging/pager.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "sls/dse.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::dma {
namespace {

using test::MemorySystem;

/// More pages than any fixture maps: an exhaustive reclaim request.
constexpr u64 kMemorySystemReclaim = 64;

struct PressureRig : ::testing::Test {
  MemorySystem ms;
  rt::OsModel os{ms.sim, rt::OsConfig{}, "os"};
  rt::Process process{ms.sim, ms.as, "p"};
  DmaEngine dma{ms.sim, ms.bus, ms.pm, DmaConfig{}, "dma"};
  test::PagerPtr pager;
  std::unique_ptr<OffloadDriver> driver;

  void make(u64 budget, OffloadConfig cfg = {}) {
    paging::PagerConfig pc;
    pc.frame_budget = budget;
    pager = test::PagerPtr(ms.sim, process, pc, "pager");
    driver = std::make_unique<OffloadDriver>(ms.sim, os, process, dma, ms.bus, ms.pm, cfg,
                                             "offload", pager.get());
  }

  /// Allocates `pages` user pages, writes one marker word per page, and
  /// evicts them all so their contents sit in swap (cold start).
  VirtAddr cold_region(u64 pages) {
    const VirtAddr base = ms.as.alloc(pages * 4096, 4096);
    for (u64 p = 0; p < pages; ++p) ms.as.write_u64(base + p * 4096, 0xC0DE0000 + p);
    process.evict(base, pages * 4096);
    EXPECT_EQ(ms.as.resident_pages(), 0u);
    return base;
  }

  u64 stat(const std::string& name) const { return ms.sim.stats().counter_value(name); }
};

TEST_F(PressureRig, BudgetSmallerThanRunChunksAndDrains) {
  // Six pages through a two-frame budget (pin quota 1): without chunked
  // admission the transfer would pin its whole run and wedge the fault
  // path. The queue must drain with the data intact.
  make(/*budget=*/2);
  const VirtAddr base = cold_region(6);
  const auto buf = driver->alloc_pinned(6 * 4096);

  bool done = false;
  driver->copy_in(base, buf, 0, 6 * 4096, [&] { done = true; });
  ms.sim.drain();

  EXPECT_TRUE(done);
  EXPECT_EQ(driver->chunked_runs(), 1u);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);  // every transfer pin released
  EXPECT_EQ(driver->pins_held(), 0u);
  EXPECT_LE(ms.as.resident_pages(), 2u);       // budget honored after release
  EXPECT_EQ(pager->swap_ins(), 6u);            // cold pages charged through swap
  EXPECT_EQ(stat("offload.pin_faults"), 6u);
  for (u64 p = 0; p < 6; ++p) {
    u64 word = 0;
    ms.pm.read(buf.pa + p * 4096, std::span<u8>(reinterpret_cast<u8*>(&word), sizeof(word)));
    EXPECT_EQ(word, 0xC0DE0000 + p) << "page " << p;
  }
}

TEST_F(PressureRig, ConcurrentOffloadsSerializeInsteadOfDeadlocking) {
  // Two transfers of three pages each under a four-frame budget (pin quota
  // 3): combined demand exceeds the quota, so the second must queue behind
  // the first's pin release — serialization, not deadlock, and no pin ever
  // stranded.
  make(/*budget=*/4);
  const VirtAddr base = cold_region(6);
  const auto buf_a = driver->alloc_pinned(3 * 4096);
  const auto buf_b = driver->alloc_pinned(3 * 4096);

  bool done_a = false, done_b = false;
  driver->copy_in(base, buf_a, 0, 3 * 4096, [&] { done_a = true; });
  driver->copy_in(base + 3 * 4096, buf_b, 0, 3 * 4096, [&] { done_b = true; });
  ms.sim.drain();

  EXPECT_TRUE(done_a);
  EXPECT_TRUE(done_b);
  EXPECT_GE(driver->pin_stalls(), 1u);  // the admission queue was exercised
  EXPECT_EQ(driver->chunked_runs(), 0u);  // each run fits the quota alone
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
  EXPECT_EQ(driver->pins_held(), 0u);
  for (u64 p = 0; p < 3; ++p) {
    u64 word = 0;
    ms.pm.read(buf_b.pa + p * 4096, std::span<u8>(reinterpret_cast<u8*>(&word), sizeof(word)));
    EXPECT_EQ(word, 0xC0DE0000 + 3 + p) << "page " << p;
  }
}

TEST_F(PressureRig, UnalignedChunkedTransfersMoveEveryByte) {
  // A range starting 100 bytes into a page and spanning five pages, under
  // pin quota 1: every chunk but the first starts page-aligned, and the
  // first and last pieces are partial pages.
  make(/*budget=*/2);
  constexpr u64 kOff = 100;
  constexpr u64 kBytes = 4 * 4096 + 1000;  // ends inside the fifth page
  const VirtAddr base = ms.as.alloc(5 * 4096, 4096);
  std::vector<u8> user(kBytes);
  for (std::size_t i = 0; i < user.size(); ++i) user[i] = static_cast<u8>(i * 7 + 1);
  ms.as.write(base + kOff, std::span<const u8>(user.data(), user.size()));
  process.evict(base, 5 * 4096);
  const auto buf = driver->alloc_pinned(kBytes);

  bool done = false;
  driver->copy_in(base + kOff, buf, 0, kBytes, [&] { done = true; });
  ms.sim.drain();
  ASSERT_TRUE(done);
  EXPECT_EQ(driver->chunked_runs(), 1u);
  EXPECT_EQ(stat("offload.pages_pinned"), 5u);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
  EXPECT_EQ(driver->pins_held(), 0u);
  std::vector<u8> pinned(kBytes);
  ms.pm.read(buf.pa, std::span<u8>(pinned.data(), pinned.size()));
  EXPECT_EQ(pinned, user);

  // Copy a fresh pattern back out: it must survive the evictions the
  // budget forces, so every chunk's pages must have been marked dirty.
  for (std::size_t i = 0; i < pinned.size(); ++i) pinned[i] = static_cast<u8>(i * 13 + 5);
  ms.pm.write(buf.pa, std::span<const u8>(pinned.data(), pinned.size()));
  done = false;
  driver->copy_out(buf, 0, base + kOff, kBytes, [&] { done = true; });
  ms.sim.drain();
  ASSERT_TRUE(done);
  EXPECT_EQ(driver->chunked_runs(), 2u);
  EXPECT_EQ(stat("offload.pages_pinned"), 10u);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
  EXPECT_EQ(driver->pins_held(), 0u);
  EXPECT_LE(ms.as.resident_pages(), 2u);
  std::vector<u8> back(kBytes);
  ms.as.read(base + kOff, std::span<u8>(back.data(), back.size()));
  EXPECT_EQ(back, pinned);
}

TEST_F(PressureRig, PinnedPagesAreNeverSelectedAsVictims) {
  // Eviction pressure lands while a transfer holds its chunk pinned: victim
  // selection must route around the pinned pages, and
  // Pager::evict_resident hard-fails (throwing out of Simulator::drain)
  // if a pinned page is ever nominated.
  make(/*budget=*/3);
  const VirtAddr base = cold_region(4);
  const VirtAddr storm = ms.as.alloc(4 * 4096, 4096);
  const auto buf = driver->alloc_pinned(4 * 4096);

  bool done = false;
  driver->copy_in(base, buf, 0, 4 * 4096, [&] { done = true; });

  // Step to the middle of the transfer: the first chunk faulted in, mapped,
  // and still pinned for its in-flight DMA.
  auto pinned_resident = [this] {
    std::vector<u64> vpns;
    ms.as.for_each_resident([this, &vpns](u64 vpn) {
      if (ms.as.is_pinned_vpn(vpn)) vpns.push_back(vpn);
    });
    return vpns;
  };
  ASSERT_TRUE(ms.sim.run_until([&] { return !pinned_resident().empty(); }));
  ASSERT_GT(driver->pins_held(), 0u);

  // Worst-case pressure: an exhaustive reclaim sweep takes every page the
  // policy will surrender. Every page pinned before it must survive it,
  // and nothing unpinned may be left behind.
  const std::vector<u64> pinned_before = pinned_resident();
  ASSERT_FALSE(pinned_before.empty());
  pager->reclaim(kMemorySystemReclaim);
  for (const u64 vpn : pinned_before)
    EXPECT_TRUE(ms.as.is_mapped(vpn * 4096)) << "pinned vpn " << vpn << " was evicted";
  u64 unpinned_survivors = 0;
  ms.as.for_each_resident(
      [this, &unpinned_survivors](u64 vpn) { unpinned_survivors += ms.as.is_pinned_vpn(vpn) ? 0 : 1; });
  EXPECT_EQ(unpinned_survivors, 0u);

  // Fault-path pressure on top: concurrent demand faults must evict around
  // the pins and the whole tangle must still drain.
  for (u64 i = 0; i < 4; ++i) {
    pager->handle_fault(storm + i * 4096, /*is_write=*/true, [this, storm, i] {
      if (!ms.as.is_mapped(storm + i * 4096)) ms.as.map_page(storm + i * 4096);
    });
  }
  ms.sim.drain();

  EXPECT_TRUE(done);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
  for (u64 p = 0; p < 4; ++p) {
    u64 word = 0;
    ms.pm.read(buf.pa + p * 4096, std::span<u8>(reinterpret_cast<u8*>(&word), sizeof(word)));
    EXPECT_EQ(word, 0xC0DE0000 + p) << "page " << p;
  }
}

TEST_F(PressureRig, CopyOutDirtiesUserPagesAndReleasesPins) {
  make(/*budget=*/3);
  const VirtAddr base = cold_region(2);
  const auto buf = driver->alloc_pinned(2 * 4096);
  for (u64 p = 0; p < 2; ++p) {
    const u64 word = 0xF00D0000 + p;
    ms.pm.write(buf.pa + p * 4096, std::span<const u8>(reinterpret_cast<const u8*>(&word),
                                                       sizeof(word)));
  }

  bool done = false;
  driver->copy_out(buf, 0, base, 2 * 4096, [&] { done = true; });
  ms.sim.drain();

  EXPECT_TRUE(done);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
  for (u64 p = 0; p < 2; ++p) {
    if (!ms.as.is_mapped(base + p * 4096)) continue;  // already re-evicted
    // DMA wrote the page behind the MMU: the PTE must be dirty so a later
    // eviction pays the writeback.
    EXPECT_TRUE(pager->page_dirty((base + p * 4096) >> 12)) << "page " << p;
    EXPECT_EQ(ms.as.read_u64(base + p * 4096), 0xF00D0000 + p);
  }
}

TEST_F(PressureRig, CpuCopyFaultsThroughThePagerUnderBudget) {
  OffloadConfig cfg;
  cfg.mode = CopyMode::kCpuCopy;
  make(/*budget=*/2, cfg);
  const VirtAddr base = cold_region(4);
  const auto buf = driver->alloc_pinned(4 * 4096);

  bool done = false;
  driver->copy_in(base, buf, 0, 4 * 4096, [&] { done = true; });
  ms.sim.drain();

  EXPECT_TRUE(done);
  EXPECT_EQ(pager->swap_ins(), 4u);  // every cold page charged through swap
  EXPECT_EQ(stat("offload.pin_faults"), 4u);
  EXPECT_LE(ms.as.resident_pages(), 2u);
  EXPECT_EQ(ms.as.pinned_pages(), 0u);
  for (u64 p = 0; p < 4; ++p) {
    u64 word = 0;
    ms.pm.read(buf.pa + p * 4096, std::span<u8>(reinterpret_cast<u8*>(&word), sizeof(word)));
    EXPECT_EQ(word, 0xC0DE0000 + p) << "page " << p;
  }
}

}  // namespace
}  // namespace vmsls::dma

// --- DSE: offload-mode × pager-budget grid --------------------------------

namespace vmsls {
namespace {

TEST(DseOffloadGrid, SerialAndParallelGridIdentical) {
  workloads::WorkloadParams p;
  p.n = 16;
  auto wl = workloads::make_workload("matmul", p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  // SVM candidates run the workload cold; DMA candidates score the copy-in
  // phase (the kernel-side flow is exercised by bench_fig11 end to end).
  auto evaluate = [&wl](const sls::SystemImage& image) -> Cycles {
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    wl.setup(*system);
    for (const auto& buf : system->image().app().buffers)
      system->process().evict(system->buffer(buf.name), buf.bytes);
    if (image.options().include_dma) {
      auto& args = system->process().mailbox(system->image().app().mailbox_index("args"));
      i64 v = 0;
      while (args.try_get(v)) {
      }
      const Cycles t0 = sim.now();
      for (const auto& buf : system->image().app().buffers) {
        const auto pb = system->offload().alloc_pinned(buf.bytes);
        bool done = false;
        system->offload().copy_in(system->buffer(buf.name), pb, 0, buf.bytes,
                                  [&done] { done = true; });
        if (!sim.run_until([&done] { return done; })) throw std::runtime_error("copy-in stalled");
      }
      return sim.now() - t0;
    }
    system->start_all();
    return system->run_to_completion();
  };

  const std::vector<sls::OffloadCandidate> offloads = {
      {false, dma::CopyMode::kSgDma},  // SVM
      {true, dma::CopyMode::kCpuCopy},
      {true, dma::CopyMode::kSgDma},
  };
  const std::vector<sls::PagerCandidate> pagers = {
      {0, paging::PolicyKind::kClock},  // pressure-free baseline
      {6, paging::PolicyKind::kClock},
  };

  sls::DesignSpaceExplorer serial(sls::zynq7020());
  serial.set_threads(1);
  const std::vector<sls::DseAxis> grid = {sls::offload_axis(offloads), sls::pager_axis(pagers)};
  const auto a = serial.explore(app, "worker", grid, evaluate);

  sls::DesignSpaceExplorer parallel(sls::zynq7020());
  parallel.set_threads(4);
  const auto b = parallel.explore(app, "worker", grid, evaluate);

  ASSERT_EQ(a.candidates.size(), offloads.size() * pagers.size());
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const sls::SystemImage& ia = a.candidates[i].image;
    const sls::SystemImage& ib = b.candidates[i].image;
    EXPECT_EQ(ia.options().include_dma, ib.options().include_dma);
    EXPECT_EQ(ia.platform().offload.mode, ib.platform().offload.mode);
    EXPECT_EQ(ia.platform().pager.frame_budget, ib.platform().pager.frame_budget);
    EXPECT_EQ(a.candidates[i].measured, b.candidates[i].measured);
    EXPECT_EQ(a.candidates[i].cycles, b.candidates[i].cycles);
  }
  EXPECT_EQ(a.best, b.best);
  ASSERT_GE(a.best, 0);
  // Candidate order is offload-major over the pager points.
  const sls::SystemImage& first = a.candidates[0].image;
  const sls::SystemImage& last = a.candidates.back().image;
  EXPECT_FALSE(first.options().include_dma);
  EXPECT_EQ(first.platform().pager.frame_budget, 0u);
  EXPECT_TRUE(last.options().include_dma);
  EXPECT_EQ(last.platform().offload.mode, dma::CopyMode::kSgDma);
  EXPECT_EQ(last.platform().pager.frame_budget, 6u);
}

}  // namespace
}  // namespace vmsls
