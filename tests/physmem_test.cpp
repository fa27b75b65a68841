#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

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

TEST(PhysicalMemory, ClearingAWholeChunkReturnsItsPage) {
  PhysicalMemory pm(1 * MiB);
  pm.write_u64(4096 + 8, 1);
  pm.write_u64(2 * 4096 + 8, 2);
  EXPECT_EQ(pm.touched_chunks(), 2u);
  EXPECT_EQ(pm.pool_pages(), 2u);
  pm.clear(4096, 4096);           // whole chunk: its page goes back
  pm.clear(2 * 4096 + 8, 4088);   // a partial clear keeps it
  EXPECT_EQ(pm.touched_chunks(), 1u);
  EXPECT_EQ(pm.pool_pages(), 1u);
  EXPECT_EQ(pm.read_u64(4096 + 8), 0u);
  EXPECT_EQ(pm.read_u64(2 * 4096 + 8), 0u);
  pm.write_u64(5 * 4096, 3);      // reuses the returned page, zeroed
  EXPECT_EQ(pm.read_u64(5 * 4096 + 8), 0u);
  EXPECT_EQ(pm.touched_chunks(), 2u);
  EXPECT_EQ(pm.pool_pages(), 2u);
}

TEST(PhysicalMemory, SpansMatchAFlatModelAcrossChunkBoundaries) {
  // Every operation is mirrored on a flat byte array; overlapping copies
  // must behave as a read into a buffer followed by a write.
  constexpr u64 kBytes = 8 * 4096;
  PhysicalMemory pm(kBytes);
  std::vector<u8> model(kBytes, 0);
  std::vector<u8> data(3 * 4096 + 100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7 + 1);
  const auto expect_model = [&](const char* step) {
    std::vector<u8> back(kBytes);
    pm.read(0, std::span<u8>(back.data(), back.size()));
    EXPECT_EQ(back, model) << step;
  };
  const auto write = [&](u64 at, u64 n) {
    pm.write(at, std::span<const u8>(data.data(), n));
    std::copy_n(data.begin(), n, model.begin() + at);
  };
  const auto copy = [&](u64 src, u64 dst, u64 n) {
    pm.copy(src, dst, n);
    const std::vector<u8> tmp(model.begin() + src, model.begin() + src + n);
    std::copy(tmp.begin(), tmp.end(), model.begin() + dst);
  };
  write(4000, data.size());
  expect_model("write");
  copy(4000, 4000 + 1000, 2 * 4096);  // overlapping, destination above
  expect_model("copy up");
  copy(5000, 3000, 2 * 4096);         // overlapping, destination below
  expect_model("copy down");
  copy(6 * 4096 + 10, 100, 5000);     // from chunks never written: zeros
  expect_model("copy zeros");
  copy(100, 6 * 4096, 4096);          // into chunks that have no page yet
  expect_model("copy into untouched");
  pm.clear(3000, 2 * 4096 + 500);     // a partial, a whole and a partial chunk
  std::fill_n(model.begin() + 3000, 2 * 4096 + 500, 0);
  expect_model("clear");
}

TEST(PhysicalMemory, SwapPagesMovesBytesWithoutCopying) {
  PhysicalMemory pm(1 * MiB);
  pm.write_u64(4096 + 16, 0xabcd);
  pm.write_u64(3 * 4096, 0x1234);
  // Save chunks 1..3 into an empty three-entry slot.
  std::vector<u8*> slot(3, nullptr);
  pm.swap_pages(4096, slot);
  for (u8* p : slot) ASSERT_NE(p, nullptr);  // chunk 2 had no page: the slot got a zeroed one
  u64 word = 0;
  std::memcpy(&word, slot[0] + 16, 8);
  EXPECT_EQ(word, 0xabcdu);
  std::memcpy(&word, slot[1], 8);
  EXPECT_EQ(word, 0u);
  std::memcpy(&word, slot[2], 8);
  EXPECT_EQ(word, 0x1234u);
  const u8* saved_page = slot[0];
  EXPECT_EQ(pm.read_u64(4096 + 16), 0u);  // the frame is empty again
  EXPECT_EQ(pm.touched_chunks(), 0u);
  EXPECT_EQ(pm.pool_pages(), 3u);
  // Fill another frame from the slot: the same host page lands there.
  pm.swap_pages(8 * 4096, slot);
  EXPECT_EQ(pm.read_u64(8 * 4096 + 16), 0xabcdu);
  EXPECT_EQ(pm.read_u64(10 * 4096), 0x1234u);
  EXPECT_EQ(pm.touched_chunks(), 3u);
  for (u8* p : slot) EXPECT_NE(p, nullptr);  // never empty once saved
  EXPECT_NE(slot[0], saved_page);  // it holds the target frame's old (zeroed) pages
  EXPECT_EQ(pm.pool_pages(), 6u);
  for (u8* p : slot) pm.give_page(p);
  EXPECT_EQ(pm.pool_pages(), 3u);
  // Whole, aligned chunks only.
  EXPECT_THROW(pm.swap_pages(100, slot), std::invalid_argument);
  EXPECT_THROW(pm.swap_pages(1 * MiB - 4096, slot), std::out_of_range);
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

TEST(FrameAllocator, AllocScansFromTheLastFreeOrAllocAndWraps) {
  // Frames come out in a fixed order, which every simulated frame number
  // (and so DRAM row locality) depends on: alloc scans up from where the
  // last alloc stopped or the last free landed, wrapping once.
  FrameAllocator fa(0, 8, 4 * KiB);
  for (u64 i = 0; i < 6; ++i) EXPECT_EQ(fa.alloc(), i);
  fa.free(2);
  fa.free(4);
  EXPECT_EQ(fa.alloc(), 4u);  // the last free, not the lowest
  EXPECT_EQ(fa.alloc(), 6u);
  fa.free(1);
  fa.free(6);
  EXPECT_EQ(fa.alloc(), 6u);
  EXPECT_EQ(fa.alloc(), 7u);
  EXPECT_EQ(fa.alloc(), 1u);  // wrapped past the end
  EXPECT_EQ(fa.alloc(), 2u);
  EXPECT_FALSE(fa.alloc().has_value());
  EXPECT_EQ(fa.free(3), 0u);
  EXPECT_FALSE(fa.is_allocated(3));
  EXPECT_EQ(fa.refcount(3), 0u);
}

TEST(FrameAllocator, ContiguousRunSkipsAHoleAndLeavesTheScanHint) {
  FrameAllocator fa(0, 8, 4 * KiB);
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(fa.alloc(), i);
  fa.free(2);                           // a one-frame hole
  EXPECT_EQ(fa.alloc_contiguous(3), 4u);  // first fit past the hole
  EXPECT_EQ(fa.alloc_contiguous(1), 2u);  // first fit is the hole
  EXPECT_FALSE(fa.alloc_contiguous(2).has_value());
  EXPECT_EQ(fa.alloc(), 7u);  // the scan resumes from the last free (2)
  EXPECT_EQ(fa.used_frames(), 8u);
}

TEST(FrameAllocator, OutOfRegionFrameThrows) {
  FrameAllocator fa(0, 4, 4 * KiB);
  EXPECT_THROW(fa.free(100), std::invalid_argument);
}

}  // namespace
}  // namespace vmsls::mem
