// The episode driver: its per-touch classification (functional access, read
// fault, COW fault) and the counts the paging ledger closes with, touch-cost
// timing, re-arming a worker from its own completion, the busy-worker guard,
// and the check every read touch makes against the worker's last store.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "mem/paging/ledger.hpp"
#include "sls/episode.hpp"
#include "sls/process_group.hpp"
#include "test_util.hpp"

namespace vmsls::sls {
namespace {

constexpr u64 kPage = 4096;
using Touch = EpisodeDriver::Touch;

/// A parent process, a pager-only ProcessGroup member, bound as worker 0 of
/// one driver; a test that forks binds the child as worker 1.
struct EpisodeFixture : ::testing::Test {
  sim::Simulator sim;
  ProcessGroup group{sim, platform(), paging::FramePoolConfig{}};
  System& parent = group.add_process("p0");
  mem::AddressSpace& as0 = parent.address_space();
  std::unique_ptr<EpisodeDriver> driver;

  static PlatformSpec platform() {
    PlatformSpec p;
    p.dram.size_bytes = 16 * MiB;
    return p;
  }

  void bind(Cycles touch_cost) {
    driver = std::make_unique<EpisodeDriver>(sim, touch_cost);
    ASSERT_EQ(add_worker(parent), 0u);
  }

  std::size_t add_worker(System& s, std::optional<std::size_t> parent = std::nullopt) {
    return driver->add_worker(s.address_space(), s.process(), *s.pager(), parent);
  }

  /// Runs worker `w`'s touches to the end; the message of what it threw,
  /// or "" when it finished.
  std::string run_worker(std::size_t w) {
    try {
      driver->start(w, 0);
      group.drain();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
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
  System& child = group.fork(parent, "p1");
  mem::AddressSpace& as1 = child.address_space();
  const paging::Pager& pg1 = *child.pager();
  ASSERT_EQ(as1.resident_pages(), 2u);
  ASSERT_EQ(add_worker(child, 0), 1u);
  const paging::MachineLedger base = paging::MachineLedger::of(group.pagers());

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
  group.drain();  // the machine ledger balances

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
  const paging::MachineLedger run = paging::MachineLedger::of(group.pagers()) - base;
  EXPECT_TRUE(run.check({{driver->read_faults(0), driver->cow_faults(0), 0},
                         {driver->read_faults(1), driver->cow_faults(1), 0}})
                  .empty());
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
  group.drain();
  EXPECT_EQ(finished, kTouches * kCost);

  const Cycles t0 = sim.now();
  driver->start(0, kDelay, [&] { finished = sim.now(); });
  group.drain();
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
  group.drain();
  EXPECT_EQ(episodes, 3);
  EXPECT_EQ(sim.now(), 3 * 2 * kCost);
  EXPECT_FALSE(driver->busy(0));
}

TEST_F(EpisodeFixture, StartOnABusyWorkerThrows) {
  bind(0);
  driver->touches(0) = {{resident_pages(1), false, 0}};
  driver->start(0, 5);
  EXPECT_THROW(driver->start(0, 0), std::logic_error);
  group.drain();
  EXPECT_FALSE(driver->busy(0));
  EXPECT_NO_THROW(driver->start(0, 0));
  group.drain();
}

TEST_F(EpisodeFixture, ReadTouchesFindTheLastStoredValue) {
  bind(0);
  const VirtAddr base = resident_pages(2);
  driver->touches(0) = {{base, true, 0x11}, {base, false, 0}, {base + kPage, false, 0}};
  ASSERT_EQ(run_worker(0), "");  // the second page was never stored by a touch: unchecked

  // A hit that reads something else names the worker, the va and both values.
  as0.write_u64(base, 0x12);
  driver->touches(0) = {{base, false, 0}};
  std::ostringstream want;
  want << "worker 0 (p0.proc) read 0x12 at va 0x" << std::hex << base << ", expected 0x11";
  const std::string got = run_worker(0);
  EXPECT_NE(got.find(want.str()), std::string::npos) << got;
}

TEST_F(EpisodeFixture, ReadFaultsCheckTheFilledPage) {
  bind(0);
  const VirtAddr base = resident_pages(1);
  driver->touches(0) = {{base, true, 0x21}};
  ASSERT_EQ(run_worker(0), "");
  // Evicted, it refaults from its saved copy and reads back fine.
  parent.process().evict(base, kPage);
  driver->touches(0) = {{base, false, 0}};
  ASSERT_EQ(run_worker(0), "");
  EXPECT_EQ(driver->read_faults(0), 1u);

  // A saved copy that lost the store fails the read after its fault.
  as0.write_u64(base, 0x22);
  parent.process().evict(base, kPage);
  EXPECT_NE(run_worker(0).find("read 0x22"), std::string::npos);
  EXPECT_EQ(driver->read_faults(0), 2u);
}

TEST_F(EpisodeFixture, AForkedWorkerExpectsItsParentsStores) {
  bind(0);
  const VirtAddr base = resident_pages(1);
  driver->touches(0) = {{base, true, 0x31}};
  ASSERT_EQ(run_worker(0), "");
  System& child = group.fork(parent, "p1");
  ASSERT_EQ(add_worker(child, 0), 1u);
  driver->touches(1) = {{base, false, 0}};
  ASSERT_EQ(run_worker(1), "");  // the shared frame holds the parent's store

  child.address_space().write_u64(base, 0x32);  // a COW split the driver never saw
  EXPECT_NE(run_worker(1).find("worker 1 (p1.proc) read 0x32"), std::string::npos);
  EXPECT_EQ(run_worker(0), "");  // the parent's copy is untouched
}

}  // namespace
}  // namespace vmsls::sls
