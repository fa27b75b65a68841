// Swap device tests, through the SwapScheduler API with one registered
// owner: transfer timing, port serialization, and the slot bookkeeping edges
// the pager and pageout daemon rely on — note_swapped by-fiat entries, slot
// recycling across swap-in / re-eviction cycles and the busy() yield window.
// The slot_limit hard error is SwapScheduler.SlotLimitErrorNamesDeviceOwnerAndUsage
// in swap_sched_test.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mem/paging/swap_scheduler.hpp"
#include "test_util.hpp"

namespace vmsls::paging {
namespace {

TEST(SwapPort, TransfersPayLatencyPlusBandwidth) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.read_latency = 50;
  cfg.bytes_per_cycle = 8;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");

  Cycles write_done = 0, read_done = 0;
  sched.write(owner, 7, SwapReqClass::kDemandWrite, [&] { write_done = sim.now(); });
  sim.drain();
  EXPECT_EQ(write_done, 100u + 4096 / 8);
  EXPECT_TRUE(sched.holds(owner, 7));

  const Cycles t0 = sim.now();
  sched.read(owner, 7, SwapReqClass::kDemandRead, [&] { read_done = sim.now(); });
  sim.drain();
  EXPECT_EQ(read_done - t0, 50u + 4096 / 8);
}

TEST(SwapPort, WritesSerializeOnThePort) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 8;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  const Cycles per_op = 100 + 4096 / 8;

  Cycles first = 0, second = 0;
  sched.write(owner, 1, SwapReqClass::kDemandWrite, [&] { first = sim.now(); });
  sched.write(owner, 2, SwapReqClass::kDemandWrite, [&] { second = sim.now(); });
  sim.drain();
  EXPECT_EQ(first, per_op);
  EXPECT_EQ(second, 2 * per_op);
  EXPECT_EQ(sched.slots_in_use(), 2u);
}

TEST(SwapPort, ReadOfUnheldPageIsAnError) {
  sim::Simulator sim;
  SwapScheduler sched(sim, SwapConfig{}, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  EXPECT_THROW(sched.read(owner, 3, SwapReqClass::kDemandRead, [] {}), std::logic_error);
  sched.note_swapped(owner, 3);
  EXPECT_NO_THROW(sched.read(owner, 3, SwapReqClass::kDemandRead, [] {}));
  sim.drain();
}

TEST(SwapPort, NoteSwappedIsInstantAndIdempotent) {
  // By-fiat bookkeeping: experiment setup lands pages in swap with zero
  // device time and no transfer, and re-noting a held page changes nothing.
  sim::Simulator sim;
  SwapScheduler sched(sim, SwapConfig{}, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  sched.note_swapped(owner, 11);
  sched.note_swapped(owner, 12);
  EXPECT_TRUE(sim.idle());  // no transfer scheduled
  EXPECT_EQ(sched.slots_in_use(), 2u);
  EXPECT_EQ(sched.writes(), 0u);
  EXPECT_FALSE(sched.busy());

  sched.note_swapped(owner, 11);  // idempotent: the slot is not double-allocated
  EXPECT_EQ(sched.slots_in_use(), 2u);
  EXPECT_TRUE(sched.holds(owner, 11));
  EXPECT_TRUE(sched.holds(owner, 12));
  EXPECT_FALSE(sched.holds(owner, 13));
}

TEST(SwapPort, SlotFreedOnReadCompletionAndReallocatedOnReEviction) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.read_latency = 50;
  cfg.bytes_per_cycle = 8;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  sched.write(owner, 5, SwapReqClass::kDemandWrite, [] {});
  sim.drain();
  ASSERT_TRUE(sched.holds(owner, 5));

  // The slot stays allocated for the whole transfer — freeing it at issue
  // time would let a concurrent eviction steal the slot mid-read — and is
  // released exactly at completion.
  bool read_done = false;
  sched.read(owner, 5, SwapReqClass::kDemandRead, [&] { read_done = true; });
  EXPECT_TRUE(sched.holds(owner, 5));  // still held: the transfer is in flight
  EXPECT_EQ(sched.slots_in_use(), 1u);
  sim.drain();
  EXPECT_TRUE(read_done);
  EXPECT_FALSE(sched.holds(owner, 5));  // freed at completion
  EXPECT_EQ(sched.slots_in_use(), 0u);

  // Re-eviction of the same page allocates a fresh slot and pays a second
  // write: occupancy tracks pages that are out, not pages that ever were.
  sched.write(owner, 5, SwapReqClass::kDemandWrite, [] {});
  sim.drain();
  EXPECT_TRUE(sched.holds(owner, 5));
  EXPECT_EQ(sched.slots_in_use(), 1u);
  EXPECT_EQ(sched.writes(), 2u);
  EXPECT_EQ(sched.reads(), 1u);
}

TEST(SwapPort, BusyUntilTheLastQueuedWriteCompletes) {
  // busy() is the pageout daemon's yield signal: it must hold from issue
  // until the *last* queued transfer completes, and clear exactly at the
  // completion instant so a tick landing then may submit its batch.
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 8;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  const Cycles per_op = 100 + 4096 / 8;

  EXPECT_FALSE(sched.busy());  // idle device
  bool busy_at_first_completion = false;
  bool busy_at_second_completion = true;
  sched.write(owner, 1, SwapReqClass::kWriteback,
              [&] { busy_at_first_completion = sched.busy(); });
  sched.write(owner, 2, SwapReqClass::kWriteback,
              [&] { busy_at_second_completion = sched.busy(); });
  EXPECT_TRUE(sched.busy());

  // Step to the first completion: the second transfer still occupies the
  // port, so the window must not have closed early.
  sim.run_until([&] { return sim.now() >= per_op; });
  EXPECT_TRUE(busy_at_first_completion);
  sim.drain();
  EXPECT_FALSE(busy_at_second_completion);  // port free at its own completion
  EXPECT_FALSE(sched.busy());
}

}  // namespace
}  // namespace vmsls::paging
