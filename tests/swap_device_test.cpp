// SwapDevice unit tests: transfer timing, port serialization, and the slot
// bookkeeping edges the pager and pageout daemon rely on — note_swapped
// by-fiat entries, slot recycling across swap-in / re-eviction cycles, the
// busy() yield window, and the slot_limit hard error.
#include <gtest/gtest.h>

#include "mem/paging/swap_device.hpp"
#include "test_util.hpp"

namespace vmsls::paging {
namespace {

TEST(SwapDevice, TransfersPayLatencyPlusBandwidth) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.read_latency = 50;
  cfg.bytes_per_cycle = 8;
  SwapDevice dev(sim, cfg, 4096, "swap");

  Cycles write_done = 0, read_done = 0;
  dev.write_page(7, [&] { write_done = sim.now(); });
  sim.drain();
  EXPECT_EQ(write_done, 100u + 4096 / 8);
  EXPECT_TRUE(dev.holds(7));

  const Cycles t0 = sim.now();
  dev.read_page(7, [&] { read_done = sim.now(); });
  sim.drain();
  EXPECT_EQ(read_done - t0, 50u + 4096 / 8);
}

TEST(SwapDevice, OperationsSerializeOnThePort) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 8;
  SwapDevice dev(sim, cfg, 4096, "swap");
  const Cycles per_op = 100 + 4096 / 8;

  Cycles first = 0, second = 0;
  dev.write_page(1, [&] { first = sim.now(); });
  dev.write_page(2, [&] { second = sim.now(); });
  sim.drain();
  EXPECT_EQ(first, per_op);
  EXPECT_EQ(second, 2 * per_op);
  EXPECT_EQ(dev.slots_in_use(), 2u);
}

TEST(SwapDevice, ReadOfUnheldPageIsAnError) {
  sim::Simulator sim;
  SwapDevice dev(sim, SwapConfig{}, 4096, "swap");
  EXPECT_THROW(dev.read_page(3, [] {}), std::logic_error);
  dev.note_swapped(3);
  EXPECT_NO_THROW(dev.read_page(3, [] {}));
}

TEST(SwapDevice, NoteSwappedIsInstantAndIdempotent) {
  // By-fiat bookkeeping: experiment setup lands pages in swap with zero
  // device time and no transfer, and re-noting a held page changes nothing.
  sim::Simulator sim;
  SwapDevice dev(sim, SwapConfig{}, 4096, "swap");
  dev.note_swapped(11);
  dev.note_swapped(12);
  EXPECT_TRUE(sim.idle());  // no transfer scheduled
  EXPECT_EQ(dev.slots_in_use(), 2u);
  EXPECT_EQ(dev.writes(), 0u);
  EXPECT_FALSE(dev.busy());

  dev.note_swapped(11);  // idempotent: the slot is not double-allocated
  EXPECT_EQ(dev.slots_in_use(), 2u);
  EXPECT_TRUE(dev.holds(11));
  EXPECT_TRUE(dev.holds(12));
  EXPECT_FALSE(dev.holds(13));
}

TEST(SwapDevice, SlotFreedOnReadCompletionAndReallocatedOnReEviction) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.read_latency = 50;
  cfg.bytes_per_cycle = 8;
  SwapDevice dev(sim, cfg, 4096, "swap");
  dev.write_page(5, [] {});
  sim.drain();
  ASSERT_TRUE(dev.holds(5));

  // The slot stays allocated for the whole transfer — freeing it at issue
  // time would let a concurrent eviction steal the slot mid-read — and is
  // released exactly at completion.
  bool read_done = false;
  dev.read_page(5, [&] { read_done = true; });
  EXPECT_TRUE(dev.holds(5));  // still held: the transfer is in flight
  EXPECT_EQ(dev.slots_in_use(), 1u);
  sim.drain();
  EXPECT_TRUE(read_done);
  EXPECT_FALSE(dev.holds(5));  // freed at completion
  EXPECT_EQ(dev.slots_in_use(), 0u);

  // Re-eviction of the same page allocates a fresh slot and pays a second
  // write: occupancy tracks pages that are out, not pages that ever were.
  dev.write_page(5, [] {});
  sim.drain();
  EXPECT_TRUE(dev.holds(5));
  EXPECT_EQ(dev.slots_in_use(), 1u);
  EXPECT_EQ(dev.writes(), 2u);
  EXPECT_EQ(dev.reads(), 1u);
}

TEST(SwapDevice, BusyWindowCoversQueuedTransfers) {
  // busy() is the pageout daemon's yield signal: it must hold from issue
  // until the *last* queued transfer completes, and clear exactly at the
  // completion instant so a tick landing then may submit its batch.
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 8;
  SwapDevice dev(sim, cfg, 4096, "swap");
  const Cycles per_op = 100 + 4096 / 8;

  EXPECT_FALSE(dev.busy());  // idle device
  Cycles busy_at_first_completion = 0;
  bool busy_at_second_completion = true;
  dev.write_page(1, [&] { busy_at_first_completion = dev.busy(); });
  dev.write_page(2, [&] { busy_at_second_completion = dev.busy(); });
  EXPECT_TRUE(dev.busy());

  // Step to the first completion: the second transfer still occupies the
  // port, so the window must not have closed early.
  sim.run_until([&] { return sim.now() >= per_op; });
  EXPECT_TRUE(busy_at_first_completion);
  sim.drain();
  EXPECT_FALSE(busy_at_second_completion);  // port free at its own completion
  EXPECT_FALSE(dev.busy());
}

TEST(SwapDevice, SlotLimitIsAHardError) {
  sim::Simulator sim;
  SwapConfig cfg;
  cfg.slot_limit = 2;
  SwapDevice dev(sim, cfg, 4096, "swap");
  dev.note_swapped(1);
  dev.note_swapped(2);
  dev.note_swapped(2);  // re-note of a held page does not consume a slot
  EXPECT_THROW(dev.note_swapped(3), std::runtime_error);
  // write_page allocates through the same bookkeeping, so it hits the same
  // wall; a held page can still be re-written (no new slot).
  EXPECT_THROW(dev.write_page(4, [] {}), std::runtime_error);
  EXPECT_NO_THROW(dev.write_page(1, [] {}));
}

}  // namespace
}  // namespace vmsls::paging
