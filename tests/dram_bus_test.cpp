#include <gtest/gtest.h>

#include "mem/bus.hpp"
#include "mem/dram.hpp"
#include "sim/simulator.hpp"

namespace vmsls::mem {
namespace {

DramConfig small_dram() {
  DramConfig cfg;
  cfg.size_bytes = 16 * MiB;
  return cfg;
}

TEST(Dram, RowHitFasterThanMiss) {
  sim::Simulator sim;
  DramModel dram(small_dram(), sim.stats(), "d");
  const Cycles first = dram.access(0, 8, false, 0);       // row miss (empty)
  const Cycles second = dram.access(8, 8, false, first);  // same row: hit
  EXPECT_GT(first, second - first);
  EXPECT_EQ(sim.stats().counter_value("d.row_hits"), 1u);
  EXPECT_EQ(sim.stats().counter_value("d.row_misses"), 1u);
}

TEST(Dram, ConflictPaysPrecharge) {
  sim::Simulator sim;
  const DramConfig cfg = small_dram();
  DramModel dram(cfg, sim.stats(), "d");
  const u64 bank_stride = cfg.row_bytes * cfg.banks;  // same bank, next row
  const Cycles t1 = dram.access(0, 8, false, 0);
  const Cycles t2 = dram.access(bank_stride, 8, false, t1);
  // Second access: precharge + activate + cas (conflict).
  EXPECT_EQ(t2 - t1, cfg.t_rp + cfg.t_rcd + cfg.t_cas + 1);
}

TEST(Dram, NonPowerOfTwoBankCountWrapsByModulo) {
  sim::Simulator sim;
  DramConfig cfg = small_dram();
  cfg.banks = 6;
  DramModel dram(cfg, sim.stats(), "d");
  const Cycles t1 = dram.access(0, 8, false, 0);
  // Row 6 wraps to bank 0, whose row 0 is open: a conflict.
  const Cycles t2 = dram.access(6 * cfg.row_bytes, 8, false, t1);
  EXPECT_EQ(t2 - t1, cfg.t_rp + cfg.t_rcd + cfg.t_cas + 1);
  // Row 10 lands on bank 4 (a mask of 5 would give bank 0): closed, so a
  // plain activation that overlaps the conflict.
  const Cycles t3 = dram.access(10 * cfg.row_bytes, 8, false, t1);
  EXPECT_EQ(t3 - t1, cfg.t_rcd + cfg.t_cas + 1);
  EXPECT_EQ(sim.stats().counter_value("d.row_misses"), 3u);
}

TEST(Dram, BankParallelismOverlaps) {
  sim::Simulator sim;
  const DramConfig cfg = small_dram();
  DramModel dram(cfg, sim.stats(), "d");
  // Different banks starting at the same time do not serialize.
  const Cycles a = dram.access(0, 8, false, 100);
  const Cycles b = dram.access(cfg.row_bytes, 8, false, 100);  // next bank
  EXPECT_EQ(a, b);
}

TEST(Dram, BusyBankSerializes) {
  sim::Simulator sim;
  DramModel dram(small_dram(), sim.stats(), "d");
  const Cycles a = dram.access(0, 8, false, 0);
  const Cycles b = dram.access(16, 8, false, 0);  // same bank/row, earliest 0
  EXPECT_GT(b, a);
}

TEST(Dram, LargeBurstCrossesRows) {
  sim::Simulator sim;
  const DramConfig cfg = small_dram();
  DramModel dram(cfg, sim.stats(), "d");
  dram.access(0, static_cast<u32>(cfg.row_bytes * 2), false, 0);
  EXPECT_EQ(sim.stats().counter_value("d.row_misses"), 2u);  // two activations
}

TEST(Dram, BestCaseLatencyScalesWithBytes) {
  sim::Simulator sim;
  DramModel dram(small_dram(), sim.stats(), "d");
  EXPECT_LT(dram.best_case_latency(8), dram.best_case_latency(512));
}

TEST(Dram, ZeroByteAccessRejected) {
  sim::Simulator sim;
  DramModel dram(small_dram(), sim.stats(), "d");
  EXPECT_THROW(dram.access(0, 0, false, 0), std::invalid_argument);
}

// --- bus ---

struct BusFixture : ::testing::Test {
  sim::Simulator sim;
  DramModel dram{small_dram(), sim.stats(), "d"};
  MemoryBus bus{sim, dram, BusConfig{}, "bus"};

  Cycles run_request(PhysAddr addr, u32 bytes, bool write) {
    Cycles done_at = 0;
    bus.request(addr, bytes, write, [&] { done_at = sim.now(); });
    sim.drain();
    return done_at;
  }
};

TEST_F(BusFixture, CompletionFires) {
  const Cycles done = run_request(0x100, 8, false);
  EXPECT_GT(done, 0u);
  EXPECT_EQ(sim.stats().counter_value("bus.requests"), 1u);
  EXPECT_EQ(sim.stats().counter_value("bus.reads"), 1u);
}

TEST_F(BusFixture, WritesCounted) {
  run_request(0x100, 64, true);
  EXPECT_EQ(sim.stats().counter_value("bus.writes"), 1u);
  EXPECT_EQ(sim.stats().counter_value("bus.bytes"), 64u);
}

TEST_F(BusFixture, ContentionSerializes) {
  Cycles first = 0, second = 0;
  bus.request(0, 256, false, [&] { first = sim.now(); });
  bus.request(8 * KiB, 256, false, [&] { second = sim.now(); });
  sim.drain();
  EXPECT_GT(second, first);  // shared channel forces ordering
}

TEST_F(BusFixture, LargerTransfersTakeLonger) {
  const Cycles small = run_request(0, 8, false);
  sim::Simulator sim2;
  DramModel dram2{small_dram(), sim2.stats(), "d2"};
  MemoryBus bus2{sim2, dram2, BusConfig{}, "bus2"};
  Cycles big = 0;
  bus2.request(0, 4096, false, [&] { big = sim2.now(); });
  sim2.drain();
  EXPECT_GT(big, small);
}

TEST_F(BusFixture, ManyRequestsAllComplete) {
  int completed = 0;
  for (int i = 0; i < 100; ++i)
    bus.request(static_cast<PhysAddr>(i) * 64, 64, (i % 2) == 0, [&] { ++completed; });
  sim.drain();
  EXPECT_EQ(completed, 100);
  EXPECT_GT(bus.busy_cycles(), 0u);
}

TEST_F(BusFixture, RejectsMalformedRequests) {
  EXPECT_THROW(bus.request(0, 0, false, [] {}), std::invalid_argument);
  EXPECT_THROW(bus.request(0, 8, false, nullptr), std::invalid_argument);
}

TEST_F(BusFixture, QueueWaitRecorded) {
  for (int i = 0; i < 10; ++i) bus.request(0, 512, false, [] {});
  sim.drain();
  EXPECT_GT(sim.stats().histograms().at("bus.queue_wait").max(), 0u);
}

}  // namespace
}  // namespace vmsls::mem
