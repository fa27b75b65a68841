// The episode driver: its per-touch classification (functional access, read
// fault, COW fault) and the counts the paging ledger closes with, touch-cost
// timing, re-arming a worker from its own completion, and the busy-worker
// guard.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>

#include "mem/paging/ledger.hpp"
#include "mem/paging/pager.hpp"
#include "rt/process.hpp"
#include "sls/episode.hpp"
#include "test_util.hpp"

namespace vmsls::sls {
namespace {

constexpr u64 kPage = 4096;
using Touch = EpisodeDriver::Touch;

/// A parent and its forked child, each with a pager, bound as workers 0
/// and 1 of one driver.
struct EpisodeFixture : ::testing::Test {
  sim::Simulator sim;
  mem::PhysicalMemory pm{16 * MiB};
  mem::FrameAllocator frames{0, (16 * MiB) / kPage, kPage};
  mem::AddressSpace as0{pm, frames, mem::PageTableConfig{}};
  mem::AddressSpace as1{pm, frames, mem::PageTableConfig{}};
  rt::Process p0{sim, as0, "p0"};
  rt::Process p1{sim, as1, "p1"};
  paging::Pager pg0{sim, p0, paging::PagerConfig{}, "p0.pager"};
  paging::Pager pg1{sim, p1, paging::PagerConfig{}, "p1.pager"};
  std::unique_ptr<EpisodeDriver> driver;

  void bind(Cycles touch_cost) {
    driver = std::make_unique<EpisodeDriver>(sim, touch_cost);
    ASSERT_EQ(driver->add_worker(as0, p0, pg0), 0u);
    ASSERT_EQ(driver->add_worker(as1, p1, pg1), 1u);
  }

  /// `n` pages of the parent, each written once so it is resident.
  VirtAddr resident_pages(u64 n) {
    const VirtAddr base = as0.alloc(n * kPage, kPage);
    for (u64 p = 0; p < n; ++p) as0.write_u64(base + p * kPage, 100 + p);
    return base;
  }
};

TEST_F(EpisodeFixture, ClassifiesEachTouchOnAForkedPair) {
  bind(0);
  const VirtAddr shared = resident_pages(2);  // read-only in both after fork
  const VirtAddr absent = as0.alloc(kPage, kPage);
  ASSERT_EQ(p0.fork(p1), 2u);
  const paging::MachineLedger base = paging::MachineLedger::of({&pg0, &pg1});

  driver->touches(1) = {
      {shared, false, 0},         // resident read: functional, no fault
      {shared + kPage, true, 7},  // resident read-only write: COW
      {absent, true, 9},          // absent: read-fault path, then the store
      {absent, false, 0},         // now resident: functional
      {shared + kPage, true, 8},  // now private and writable: plain store
  };
  int done = 0;
  driver->start(1, 0, [&] { ++done; });
  EXPECT_TRUE(driver->busy(1));
  sim.drain();

  EXPECT_EQ(done, 1);
  EXPECT_FALSE(driver->busy(1));
  EXPECT_EQ(driver->read_faults(1), 1u);
  EXPECT_EQ(driver->cow_faults(1), 1u);
  EXPECT_EQ(driver->read_faults(0), 0u);
  EXPECT_EQ(pg1.cow_copies(), 1u);
  EXPECT_EQ(pg1.zero_fills(), 1u);
  EXPECT_EQ(as1.read_u64(shared + kPage), 8u);
  EXPECT_EQ(as1.read_u64(absent), 9u);
  EXPECT_EQ(as0.read_u64(shared + kPage), 101u);  // the parent's copy is untouched
  // The classification is exactly what the ledger's partitions need.
  const paging::MachineLedger run = paging::MachineLedger::of({&pg0, &pg1}) - base;
  EXPECT_TRUE(run.check({{driver->read_faults(0), driver->cow_faults(0), 0},
                         {driver->read_faults(1), driver->cow_faults(1), 0}})
                  .empty());
  EXPECT_TRUE(paging::check_machine({&pg0, &pg1}).empty());
}

TEST_F(EpisodeFixture, ResidentTouchesTakeExactlyTheTouchCost) {
  constexpr Cycles kCost = 20, kDelay = 7;
  constexpr u64 kTouches = 5;
  bind(kCost);
  const VirtAddr base = resident_pages(kTouches);
  for (u64 p = 0; p < kTouches; ++p)
    driver->touches(0).push_back({base + p * kPage, p % 2 == 1, p});

  Cycles finished = 0;
  driver->start(0, 0, [&] { finished = sim.now(); });
  sim.drain();
  EXPECT_EQ(finished, kTouches * kCost);

  const Cycles t0 = sim.now();
  driver->start(0, kDelay, [&] { finished = sim.now(); });
  sim.drain();
  EXPECT_EQ(finished - t0, kDelay + kTouches * kCost);
  EXPECT_EQ(driver->read_faults(0) + driver->cow_faults(0), 0u);
  EXPECT_EQ(as0.read_u64(base + 3 * kPage), 3u);  // writes store their value
}

TEST_F(EpisodeFixture, DoneMayRestartTheSameWorker) {
  constexpr Cycles kCost = 10;
  bind(kCost);
  const VirtAddr base = resident_pages(2);
  driver->touches(0) = {{base, false, 0}, {base + kPage, true, 1}};

  // The serving plane's shape: a completion re-dispatches its own worker.
  int episodes = 0;
  std::function<void()> rearm = [&] {
    ++episodes;
    EXPECT_FALSE(driver->busy(0));
    if (episodes < 3) driver->start(0, 0, [&] { rearm(); });
  };
  driver->start(0, 0, [&] { rearm(); });
  sim.drain();
  EXPECT_EQ(episodes, 3);
  EXPECT_EQ(sim.now(), 3 * 2 * kCost);
  EXPECT_FALSE(driver->busy(0));
}

TEST_F(EpisodeFixture, StartOnABusyWorkerThrows) {
  bind(0);
  driver->touches(0) = {{resident_pages(1), false, 0}};
  driver->start(0, 5);
  EXPECT_THROW(driver->start(0, 0), std::logic_error);
  sim.drain();
  EXPECT_FALSE(driver->busy(0));
  EXPECT_NO_THROW(driver->start(0, 0));
  sim.drain();
}

}  // namespace
}  // namespace vmsls::sls
