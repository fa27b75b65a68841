#include <gtest/gtest.h>

#include "dma/dma_engine.hpp"
#include "dma/offload.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "test_util.hpp"

namespace vmsls::dma {
namespace {

using test::MemorySystem;

struct DmaFixture : ::testing::Test {
  MemorySystem ms;
  DmaEngine dma{ms.sim, ms.bus, ms.pm, DmaConfig{}, "dma"};

  Cycles copy_sync(PhysAddr src, PhysAddr dst, u64 bytes) {
    const Cycles t0 = ms.sim.now();
    bool done = false;
    dma.copy(src, dst, bytes, [&] { done = true; });
    ms.run_all();
    EXPECT_TRUE(done);
    return ms.sim.now() - t0;
  }
};

TEST_F(DmaFixture, CopiesBytes) {
  std::vector<u8> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  ms.pm.write(0x1000, std::span<const u8>(data.data(), data.size()));
  copy_sync(0x1000, 0x8000, data.size());
  std::vector<u8> out(data.size());
  ms.pm.read(0x8000, std::span<u8>(out.data(), out.size()));
  EXPECT_EQ(out, data);
}

TEST_F(DmaFixture, CostScalesWithSize) {
  const Cycles small = copy_sync(0, 64 * KiB, 256);
  const Cycles large = copy_sync(0, 64 * KiB, 16 * KiB);
  EXPECT_GT(large, small * 10);
}

TEST_F(DmaFixture, SetupLatencyCharged) {
  const Cycles c = copy_sync(0, 4096, 8);
  EXPECT_GE(c, DmaConfig{}.setup_latency);
}

TEST_F(DmaFixture, TransfersCounted) {
  copy_sync(0, 8192, 100);
  EXPECT_EQ(dma.transfers(), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("dma.bytes"), 100u);
}

TEST_F(DmaFixture, ZeroBytesRejected) {
  EXPECT_THROW(dma.copy(0, 8, 0, [] {}), std::invalid_argument);
}

struct OffloadRig {
  MemorySystem ms;
  rt::OsConfig os_cfg;
  rt::OsModel os{ms.sim, os_cfg, "os"};
  rt::Process process{ms.sim, ms.as, "p"};
  DmaEngine dma{ms.sim, ms.bus, ms.pm, DmaConfig{}, "dma"};

  std::unique_ptr<OffloadDriver> driver;

  void make(OffloadConfig cfg = {}) {
    driver = std::make_unique<OffloadDriver>(ms.sim, os, process, dma, ms.bus, ms.pm, cfg,
                                             "off", /*pager=*/nullptr);
  }

  Cycles copy_in_sync(VirtAddr va, const PinnedBuffer& buf, u64 bytes) {
    const Cycles t0 = ms.sim.now();
    bool done = false;
    driver->copy_in(va, buf, 0, bytes, [&] { done = true; });
    ms.run_all();
    EXPECT_TRUE(done);
    return ms.sim.now() - t0;
  }
};

struct OffloadFixture : ::testing::Test, OffloadRig {};

TEST_F(OffloadFixture, PinnedBufferIsContiguous) {
  make();
  const auto buf = driver->alloc_pinned(3 * 4096 + 100);
  EXPECT_EQ(buf.frame_count, 4u);
  EXPECT_EQ(buf.pa, ms.frames.frame_addr(buf.first_frame));
  driver->free_pinned(buf);
}

TEST_F(OffloadFixture, SgDmaCopyInMovesData) {
  make();
  const VirtAddr va = ms.as.alloc(2 * 4096, 4096);
  std::vector<u8> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 3);
  ms.as.write(va, std::span<const u8>(data.data(), data.size()));
  const auto buf = driver->alloc_pinned(data.size());
  copy_in_sync(va, buf, data.size());
  std::vector<u8> out(data.size());
  ms.pm.read(buf.pa, std::span<u8>(out.data(), out.size()));
  EXPECT_EQ(out, data);
}

TEST_F(OffloadFixture, CopyOutRestoresUserData) {
  make();
  const VirtAddr va = ms.as.alloc(4096, 4096);
  ms.as.populate(va, 4096);
  const auto buf = driver->alloc_pinned(4096);
  std::vector<u8> data(4096, 0x5a);
  ms.pm.write(buf.pa, std::span<const u8>(data.data(), data.size()));
  bool done = false;
  driver->copy_out(buf, 0, va, 4096, [&] { done = true; });
  ms.run_all();
  ASSERT_TRUE(done);
  EXPECT_EQ(ms.as.read_u64(va), 0x5a5a5a5a5a5a5a5aull);
}

TEST_F(OffloadFixture, CpuCopySlowerThanSgDmaForLargeBuffers) {
  make(OffloadConfig{CopyMode::kSgDma, 280, 500, 32});
  const VirtAddr va = ms.as.alloc(64 * KiB, 4096);
  ms.as.populate(va, 64 * KiB);
  const auto buf = driver->alloc_pinned(64 * KiB);
  const Cycles dma_cycles = copy_in_sync(va, buf, 64 * KiB);

  OffloadRig other;  // fresh system for the CPU-copy run
  other.make(OffloadConfig{CopyMode::kCpuCopy, 280, 500, 32});
  const VirtAddr va2 = other.ms.as.alloc(64 * KiB, 4096);
  other.ms.as.populate(va2, 64 * KiB);
  const auto buf2 = other.driver->alloc_pinned(64 * KiB);
  const Cycles cpu_cycles = other.copy_in_sync(va2, buf2, 64 * KiB);

  EXPECT_GT(cpu_cycles, dma_cycles);
}

TEST_F(OffloadFixture, PinCostsScaleWithPages) {
  make();
  const VirtAddr va = ms.as.alloc(16 * 4096, 4096);
  ms.as.populate(va, 16 * 4096);
  const auto buf = driver->alloc_pinned(16 * 4096);
  copy_in_sync(va, buf, 16 * 4096);
  EXPECT_EQ(ms.sim.stats().counter_value("off.pages_pinned"), 16u);
}

TEST_F(OffloadFixture, CopyInMapsUnmappedUserPages) {
  make();
  const VirtAddr va = ms.as.alloc(4096, 4096);  // never touched
  const auto buf = driver->alloc_pinned(4096);
  copy_in_sync(va, buf, 4096);
  EXPECT_TRUE(ms.as.is_mapped(va));  // get_user_pages semantics
}

TEST_F(OffloadFixture, OverrunRejected) {
  make();
  const auto buf = driver->alloc_pinned(4096);
  EXPECT_THROW(driver->copy_in(0, buf, 4000, 200, [] {}), std::invalid_argument);
  // `off + bytes` wraps past zero for both of these; the bound must not.
  EXPECT_THROW(driver->copy_in(0, buf, ~0ull, 2, [] {}), std::invalid_argument);
  EXPECT_THROW(driver->copy_out(buf, ~0ull - 10, 0, 16, [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace vmsls::dma
