#include <gtest/gtest.h>

#include "mem/frames.hpp"
#include "mem/physmem.hpp"

namespace vmsls::mem {
namespace {

TEST(PhysicalMemory, ReadsZeroWhenUntouched) {
  PhysicalMemory pm(1 * MiB);
  EXPECT_EQ(pm.read_u64(0x1000), 0u);
  EXPECT_EQ(pm.touched_chunks(), 0u);
}

TEST(PhysicalMemory, RoundTripScalar) {
  PhysicalMemory pm(1 * MiB);
  pm.write_u64(64, 0xdeadbeefcafef00dull);
  EXPECT_EQ(pm.read_u64(64), 0xdeadbeefcafef00dull);
  pm.write_scalar<u8>(7, 0xab);
  EXPECT_EQ(pm.read_scalar<u8>(7), 0xab);
}

TEST(PhysicalMemory, CrossChunkBlockAccess) {
  PhysicalMemory pm(1 * MiB);
  std::vector<u8> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 13);
  pm.write(4090, std::span<const u8>(data.data(), data.size()));  // spans 3+ chunks
  std::vector<u8> back(data.size());
  pm.read(4090, std::span<u8>(back.data(), back.size()));
  EXPECT_EQ(back, data);
  // [4090, 14090) covers the tail of chunk 0, all of chunks 1-2, and the
  // head of chunk 3.
  EXPECT_EQ(pm.touched_chunks(), 4u);
}

TEST(PhysicalMemory, OutOfRangeThrows) {
  PhysicalMemory pm(64 * KiB);
  EXPECT_THROW(pm.read_u64(64 * KiB), std::out_of_range);
  EXPECT_THROW(pm.write_u64(64 * KiB - 4, 1), std::out_of_range);
  EXPECT_NO_THROW(pm.write_u64(64 * KiB - 8, 1));
}

TEST(PhysicalMemory, WrappingRangeThrows) {
  PhysicalMemory pm(64 * KiB);
  u64 v = 0;
  const auto out = std::span<u8>(reinterpret_cast<u8*>(&v), sizeof(v));
  // addr + bytes wraps past 2^64 to a small value inside memory.
  EXPECT_THROW(pm.read(~0ull - 3, out), std::out_of_range);
  EXPECT_THROW(pm.write(~0ull - 3, out), std::out_of_range);
  EXPECT_THROW(pm.clear(8, ~0ull - 3), std::out_of_range);
  EXPECT_EQ(pm.touched_chunks(), 0u);
}

TEST(PhysicalMemory, ClearZeroes) {
  PhysicalMemory pm(1 * MiB);
  pm.write_u64(100, ~0ull);
  pm.clear(96, 16);
  EXPECT_EQ(pm.read_u64(100), 0u);
}

TEST(PhysicalMemory, RejectsUnalignedSize) {
  EXPECT_THROW(PhysicalMemory(1000), std::invalid_argument);
  EXPECT_THROW(PhysicalMemory(0), std::invalid_argument);
}

TEST(PhysicalMemory, SparseStorageStaysSmall) {
  PhysicalMemory pm(512 * MiB);
  pm.write_u64(400 * MiB, 1);
  EXPECT_EQ(pm.touched_chunks(), 1u);
}

TEST(PhysicalMemory, FullSizeMemoryRoundTripsLastWord) {
  PhysicalMemory pm(1 * GiB);  // zynq7045 DRAM
  pm.write_u64(1 * GiB - 8, 0x0123456789abcdefull);
  EXPECT_EQ(pm.read_u64(1 * GiB - 8), 0x0123456789abcdefull);
  EXPECT_EQ(pm.touched_chunks(), 1u);
}

TEST(PhysicalMemory, ReadOfUnwrittenRangeIsZeroAndUntouched) {
  PhysicalMemory pm(1 * MiB);
  std::vector<u8> back(3 * 4096, 0xff);
  pm.read(2048, std::span<u8>(back.data(), back.size()));
  EXPECT_EQ(back, std::vector<u8>(back.size(), 0));
  EXPECT_EQ(pm.touched_chunks(), 0u);
}

TEST(PhysicalMemory, SavedBitsStartClearAndCoverWholeChunks) {
  PhysicalMemory pm(1 * MiB);
  EXPECT_FALSE(pm.saved(0, 4096));
  pm.mark_saved(4096, 2 * 4096);
  EXPECT_TRUE(pm.saved(4096, 2 * 4096));
  EXPECT_TRUE(pm.saved(8192, 4096));
  EXPECT_FALSE(pm.saved(0, 2 * 4096));       // chunk 0 was never marked
  EXPECT_FALSE(pm.saved(8192, 2 * 4096));    // nor chunk 3
  EXPECT_EQ(pm.touched_chunks(), 0u);        // marking writes nothing
}

TEST(PhysicalMemory, WritesCopiesAndClearsDropTheSavedBit) {
  PhysicalMemory pm(1 * MiB);
  pm.mark_saved(0, 8 * 4096);
  pm.write_u64(4096 + 100, 1);                // chunk 1
  pm.copy(0, 2 * 4096 + 8, 16);               // destination chunk 2; the source keeps its bit
  pm.clear(3 * 4096 + 4000, 200);             // straddles chunks 3 and 4
  pm.write_scalar<u8>(5 * 4096 + 4095, 0xab);  // last byte of chunk 5
  for (u64 c = 0; c < 8; ++c) EXPECT_EQ(pm.saved(c * 4096, 4096), c == 0 || c >= 6) << c;
  // Reads keep it.
  EXPECT_EQ(pm.read_u64(6 * 4096), 0u);
  EXPECT_TRUE(pm.saved(6 * 4096, 2 * 4096));
  // A marked chunk can be marked again after a write.
  pm.mark_saved(4096, 4096);
  EXPECT_TRUE(pm.saved(4096, 4096));
}

TEST(PhysicalMemory, SavedBitRangesMustBeWholeChunks) {
  PhysicalMemory pm(64 * KiB);
  EXPECT_THROW(pm.mark_saved(0, 0), std::invalid_argument);
  EXPECT_THROW(pm.mark_saved(0, 100), std::invalid_argument);
  EXPECT_THROW(pm.mark_saved(512, 4096), std::invalid_argument);
  EXPECT_THROW(pm.mark_saved(4096, 2048), std::invalid_argument);
  EXPECT_THROW(pm.saved(512, 4096), std::invalid_argument);
  EXPECT_THROW(pm.mark_saved(60 * KiB, 8 * KiB), std::out_of_range);
  EXPECT_NO_THROW(pm.mark_saved(60 * KiB, 4 * KiB));
}

// --- frame allocator ---

TEST(FrameAllocator, AllocReturnsDistinctFrames) {
  FrameAllocator fa(0, 16, 4 * KiB);
  std::set<u64> seen;
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(seen.insert(*fa.alloc()).second);
  EXPECT_EQ(fa.free_frames(), 0u);
  // Exhaustion is a normal event, reported as nullopt for the pager.
  EXPECT_FALSE(fa.alloc().has_value());
}

TEST(FrameAllocator, FreeMakesFrameReusable) {
  FrameAllocator fa(0, 2, 4 * KiB);
  const u64 a = *fa.alloc();
  fa.alloc();
  EXPECT_FALSE(fa.alloc().has_value());
  fa.free(a);
  EXPECT_EQ(fa.alloc(), a);
}

TEST(FrameAllocator, DoubleFreeThrows) {
  FrameAllocator fa(0, 4, 4 * KiB);
  const u64 f = *fa.alloc();
  fa.free(f);
  EXPECT_THROW(fa.free(f), std::invalid_argument);
}

TEST(FrameAllocator, FrameAddrMatchesRegionBase) {
  FrameAllocator fa(1 * MiB, 8, 64 * KiB);
  const u64 f = *fa.alloc();
  EXPECT_EQ(fa.frame_addr(f), 1 * MiB);
  EXPECT_TRUE(fa.is_allocated(f));
}

TEST(FrameAllocator, ContiguousRunIsContiguous) {
  FrameAllocator fa(0, 32, 4 * KiB);
  const u64 first = *fa.alloc_contiguous(8);
  for (u64 i = 0; i < 8; ++i) EXPECT_TRUE(fa.is_allocated(first + i));
  EXPECT_EQ(fa.used_frames(), 8u);
  fa.free_contiguous(first, 8);
  EXPECT_EQ(fa.used_frames(), 0u);
}

TEST(FrameAllocator, ContiguousFailsWhenFragmented) {
  FrameAllocator fa(0, 8, 4 * KiB);
  std::vector<u64> singles;
  for (int i = 0; i < 8; ++i) singles.push_back(*fa.alloc());
  // Free every other frame: max run is 1.
  for (std::size_t i = 0; i < singles.size(); i += 2) fa.free(singles[i]);
  EXPECT_FALSE(fa.alloc_contiguous(2).has_value());
  EXPECT_TRUE(fa.alloc_contiguous(1).has_value());
}

TEST(FrameAllocator, OutOfRegionFrameThrows) {
  FrameAllocator fa(0, 4, 4 * KiB);
  EXPECT_THROW(fa.free(100), std::invalid_argument);
}

}  // namespace
}  // namespace vmsls::mem
