#include <gtest/gtest.h>

#include "hwt/hw_port.hpp"
#include "test_util.hpp"

namespace vmsls::hwt {
namespace {

using test::MemorySystem;

struct HwPortFixture : ::testing::Test, mem::FaultSink {
  MemorySystem ms;
  mem::WalkerConfig wcfg;
  std::unique_ptr<mem::PageWalker> walker;
  std::unique_ptr<mem::Mmu> mmu;
  std::unique_ptr<HwMemPort> port;
  int faults = 0;

  void raise(mem::FaultRequest req) override {
    ++faults;
    ms.as.map_page(req.va);
    ms.sim.schedule_in(50, [retry = std::move(req.retry)]() mutable { retry(); });
  }

  void make_port(HwPortConfig cfg = {}) {
    walker = std::make_unique<mem::PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(), wcfg,
                                               "w");
    mmu = std::make_unique<mem::Mmu>(ms.sim, *walker, mem::MmuConfig{}, "mmu", 0);
    mmu->set_fault_sink(this);
    port = std::make_unique<HwMemPort>(ms.sim, *mmu, ms.bus, ms.pm, cfg, "port");
  }

  std::vector<u8> read_sync(VirtAddr va, u32 bytes) {
    std::vector<u8> out(bytes);
    bool done = false;
    port->read(va, out, [&] { done = true; });
    ms.run_all();
    EXPECT_TRUE(done);
    return out;
  }

  void write_sync(VirtAddr va, std::span<const u8> data) {
    bool done = false;
    port->write(va, data, [&] { done = true; });
    ms.run_all();
    ASSERT_TRUE(done);
  }
};

TEST_F(HwPortFixture, ReadSeesSoftwareWrites) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  ms.as.write_u64(va + 16, 0x1122334455667788ull);
  const auto data = read_sync(va + 16, 8);
  u64 v = 0;
  std::memcpy(&v, data.data(), 8);
  EXPECT_EQ(v, 0x1122334455667788ull);
}

TEST_F(HwPortFixture, WriteVisibleToSoftware) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  const u64 v = 0xfeedface;
  write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_EQ(ms.as.read_u64(va), v);
}

TEST_F(HwPortFixture, PageCrossingBurstSplits) {
  make_port();
  const VirtAddr va = ms.as.alloc(2 * 4096, 4096);
  ms.as.populate(va, 2 * 4096);
  std::vector<u8> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  // Write straddling the page boundary: two translations needed.
  write_sync(va + 4096 - 128, std::span<const u8>(data.data(), data.size()));
  const auto back = read_sync(va + 4096 - 128, 256);
  EXPECT_EQ(back, data);
  EXPECT_GE(ms.sim.stats().counter_value("mmu.translations"), 4u);
}

TEST_F(HwPortFixture, BurstCapSplitsLargeTransfers) {
  HwPortConfig cfg;
  cfg.max_burst_bytes = 64;
  make_port(cfg);
  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.populate(va, 4096);
  read_sync(va, 512);  // 8 bus transactions of 64 B
  EXPECT_GE(ms.sim.stats().counter_value("bus.requests"), 8u);
}

TEST_F(HwPortFixture, FaultingAccessCompletesAfterService) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);  // not populated
  const u64 v = 42;
  write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(ms.as.read_u64(va), 42u);
}

TEST_F(HwPortFixture, StatsCountTraffic) {
  make_port();
  const VirtAddr va = ms.as.alloc(4096);
  ms.as.populate(va, 4096);
  read_sync(va, 64);
  const u64 v = 1;
  write_sync(va, std::span<const u8>(reinterpret_cast<const u8*>(&v), 8));
  EXPECT_EQ(ms.sim.stats().counter_value("port.reads"), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("port.writes"), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("port.bytes"), 72u);
}

TEST_F(HwPortFixture, ZeroByteAccessRejected) {
  make_port();
  EXPECT_THROW(port->read(0, std::span<u8>(), [] {}), std::invalid_argument);
  EXPECT_THROW(port->write(0, std::span<const u8>(), [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace vmsls::hwt
