#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/frames.hpp"
#include "mem/pagetable.hpp"
#include "mem/physmem.hpp"
#include "util/rng.hpp"

namespace vmsls::mem {
namespace {

struct PtFixture {
  PhysicalMemory pm{64 * MiB};
  FrameAllocator frames;
  PageTable pt;

  explicit PtFixture(PageTableConfig cfg = {})
      : frames(0, (64 * MiB) >> cfg.page_bits, 1ull << cfg.page_bits), pt(pm, frames, cfg) {}
};

TEST(Pte, EncodeDecodeRoundTrip) {
  Pte p;
  p.valid = true;
  p.writable = true;
  p.accessed = true;
  p.dirty = false;
  p.frame = 0x12345;
  const Pte q = Pte::decode(p.encode());
  EXPECT_EQ(q.valid, p.valid);
  EXPECT_EQ(q.writable, p.writable);
  EXPECT_EQ(q.accessed, p.accessed);
  EXPECT_EQ(q.dirty, p.dirty);
  EXPECT_EQ(q.frame, p.frame);
}

TEST(Pte, ZeroIsInvalid) { EXPECT_FALSE(Pte::decode(0).valid); }

TEST(PageTable, LevelCountsMatchGeometry) {
  // 4 KiB pages: 9-bit indices over a 32-bit VA -> 3 levels.
  PtFixture f4(PageTableConfig{32, 12});
  EXPECT_EQ(f4.pt.levels(), 3u);
  EXPECT_EQ(f4.pt.index_bits(), 9u);
  // 64 KiB pages: 13-bit indices -> 2 levels.
  PtFixture f64(PageTableConfig{32, 16});
  EXPECT_EQ(f64.pt.levels(), 2u);
  // 2 MiB pages: 18-bit indices -> 1 level.
  PtFixture f2m(PageTableConfig{32, 21});
  EXPECT_EQ(f2m.pt.levels(), 1u);
}

TEST(PageTable, UnmappedLookupIsEmpty) {
  PtFixture f;
  EXPECT_FALSE(f.pt.lookup(0x4000).has_value());
  EXPECT_FALSE(f.pt.is_mapped(0x4000));
}

TEST(PageTable, MapThenLookup) {
  PtFixture f;
  const u64 frame = *f.frames.alloc();
  f.pt.map(0x7000, frame, true);
  const auto pte = f.pt.lookup(0x7abc);  // same page, any offset
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->frame, frame);
  EXPECT_TRUE(pte->writable);
}

TEST(PageTable, ReadOnlyMapping) {
  PtFixture f;
  f.pt.map(0x3000, *f.frames.alloc(), false);
  EXPECT_FALSE(f.pt.lookup(0x3000)->writable);
}

TEST(PageTable, DoubleMapThrows) {
  PtFixture f;
  f.pt.map(0x1000, *f.frames.alloc(), true);
  EXPECT_THROW(f.pt.map(0x1234, *f.frames.alloc(), true), std::logic_error);
}

TEST(PageTable, UnmapInvalidates) {
  PtFixture f;
  f.pt.map(0x5000, *f.frames.alloc(), true);
  f.pt.unmap(0x5000);
  EXPECT_FALSE(f.pt.is_mapped(0x5000));
  EXPECT_THROW(f.pt.unmap(0x5000), std::logic_error);
}

TEST(PageTable, UnmapOfNeverMappedThrows) {
  PtFixture f;
  EXPECT_THROW(f.pt.unmap(0x9000), std::logic_error);
}

TEST(PageTable, DistinctPagesIndependent) {
  PtFixture f;
  const u64 fa = *f.frames.alloc(), fb = *f.frames.alloc();
  f.pt.map(0x1000, fa, true);
  f.pt.map(0x2000, fb, true);
  EXPECT_EQ(f.pt.lookup(0x1000)->frame, fa);
  EXPECT_EQ(f.pt.lookup(0x2000)->frame, fb);
  f.pt.unmap(0x1000);
  EXPECT_TRUE(f.pt.is_mapped(0x2000));
}

TEST(PageTable, InteriorTablesAllocatedOnDemand) {
  PtFixture f;
  const u64 before = f.pt.table_frames();
  // Two VAs far apart require distinct interior chains.
  f.pt.map(0x0000'1000, *f.frames.alloc(), true);
  f.pt.map(0x4000'0000ull & 0xffff'ffff, *f.frames.alloc(), true);
  EXPECT_GT(f.pt.table_frames(), before);
}

TEST(PageTable, VaWidthEnforced) {
  PtFixture f(PageTableConfig{32, 12});
  EXPECT_THROW(f.pt.lookup(1ull << 32), std::out_of_range);
  EXPECT_THROW(f.pt.map(1ull << 32, 0, true), std::out_of_range);
}

TEST(PageTable, AccessedDirtyBits) {
  PtFixture f;
  f.pt.map(0x1000, *f.frames.alloc(), true);
  f.pt.set_accessed_dirty(0x1000, false);
  EXPECT_TRUE(f.pt.lookup(0x1000)->accessed);
  EXPECT_FALSE(f.pt.lookup(0x1000)->dirty);
  f.pt.set_accessed_dirty(0x1000, true);
  EXPECT_TRUE(f.pt.lookup(0x1000)->dirty);
}

TEST(PageTable, IndexDecomposition) {
  PtFixture f(PageTableConfig{32, 12});
  // va = idx0:idx1:idx2:offset with 2,9,9,12 bits (top level partial):
  // level-0 shift is 30, level-1 is 21, level-2 is 12.
  const VirtAddr va = (1ull << 30) | (5ull << 21) | (7ull << 12) | 0x123;
  EXPECT_EQ(f.pt.index_at(va, 0), 1u);
  EXPECT_EQ(f.pt.index_at(va, 1), 5u);
  EXPECT_EQ(f.pt.index_at(va, 2), 7u);
}

TEST(PageTable, RejectsMismatchedFrameGranularity) {
  PhysicalMemory pm{4 * MiB};
  FrameAllocator frames(0, 1024, 4 * KiB);
  EXPECT_THROW(PageTable(pm, frames, PageTableConfig{32, 16}), std::invalid_argument);
}

// Parameterized sweep: map/lookup/unmap behaves for every page size.
class PageSizeSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PageSizeSweep, MapLookupUnmapAtEveryGeometry) {
  const unsigned page_bits = GetParam();
  PtFixture f(PageTableConfig{32, page_bits});
  const u64 page = 1ull << page_bits;
  for (u64 i = 0; i < 8; ++i) {
    const VirtAddr va = (i + 1) * page;
    const u64 frame = *f.frames.alloc();
    f.pt.map(va, frame, (i % 2) == 0);
    const auto pte = f.pt.lookup(va + page / 2);
    ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->frame, frame);
    EXPECT_EQ(pte->writable, (i % 2) == 0);
  }
  for (u64 i = 0; i < 8; ++i) f.pt.unmap((i + 1) * page);
  for (u64 i = 0; i < 8; ++i) EXPECT_FALSE(f.pt.is_mapped((i + 1) * page));
}

INSTANTIATE_TEST_SUITE_P(Geometries, PageSizeSweep, ::testing::Values(12u, 14u, 16u, 21u));

// The functional side resolves a leaf PTE through its leaf-table directory;
// the hardware walker reads every level's raw PTE word through memory. A
// seeded random mix of map / unmap / set_writable / A-D updates must leave
// both views agreeing on every VA after every step.

/// The hardware walker's view, computed from the geometry alone: the leaf
/// PTE's physical address from a level-by-level radix walk over the raw
/// words in physical memory, or nullopt at the first invalid interior PTE.
/// Frames are numbered from physical address 0.
std::optional<PhysAddr> reference_leaf(const PtFixture& f, unsigned page_bits, VirtAddr va) {
  const unsigned idx_bits = page_bits - 3;
  const unsigned levels = (32 - page_bits + idx_bits - 1) / idx_bits;
  const u64 mask = (1ull << idx_bits) - 1;
  PhysAddr table = f.pt.root_addr();
  for (unsigned level = 0;; ++level) {
    const unsigned shift = page_bits + idx_bits * (levels - 1 - level);
    const PhysAddr pte = table + ((va >> shift) & mask) * 8;
    if (level + 1 == levels) return pte;
    const u64 raw = f.pm.read_u64(pte);
    if ((raw & 1) == 0) return std::nullopt;
    table = (raw >> 16) << page_bits;
  }
}

class DirectoryVsRadixWalk : public ::testing::TestWithParam<unsigned> {};

TEST_P(DirectoryVsRadixWalk, RandomOperationsKeepBothViewsInAgreement) {
  const unsigned page_bits = GetParam();
  PtFixture f(PageTableConfig{32, page_bits});
  Rng rng(0x5eed + page_bits);
  // A fixed VA set spread over the whole 32-bit space (many distinct leaf
  // tables and interior chains) plus a run of neighbours sharing one leaf
  // table; few enough pages that 2 MiB frames do not run out.
  std::vector<VirtAddr> vas;
  auto add = [&vas](VirtAddr va) {
    if (std::find(vas.begin(), vas.end(), va) == vas.end()) vas.push_back(va);
  };
  while (vas.size() < 12) add(rng.below(1ull << (32 - page_bits)) << page_bits);
  for (u64 i = 1; i <= 6; ++i) add((vas[0] + (i << page_bits)) % (1ull << 32));
  std::vector<std::optional<u64>> frame_of(vas.size());  // test's own record

  auto check_all = [&](int step) {
    for (std::size_t i = 0; i < vas.size(); ++i) {
      const VirtAddr va = vas[i] + rng.below(1ull << page_bits);  // any offset in the page
      const auto ref = reference_leaf(f, page_bits, va);
      const auto leaf = f.pt.leaf(va);
      ASSERT_EQ(leaf.has_value(), ref.has_value()) << "step " << step << " va " << va;
      if (leaf) {
        ASSERT_EQ(leaf->addr, *ref) << "step " << step << " va " << va;
      }
      const auto pte = f.pt.lookup(va);
      const bool valid = ref && Pte::decode(f.pm.read_u64(*ref)).valid;
      ASSERT_EQ(pte.has_value(), valid) << "step " << step << " va " << va;
      ASSERT_EQ(valid, frame_of[i].has_value()) << "step " << step << " va " << va;
      if (!valid) continue;
      const Pte raw = Pte::decode(f.pm.read_u64(*ref));
      EXPECT_EQ(pte->frame, raw.frame);
      EXPECT_EQ(pte->frame, *frame_of[i]);
      EXPECT_EQ(pte->writable, raw.writable);
      EXPECT_EQ(pte->accessed, raw.accessed);
      EXPECT_EQ(pte->dirty, raw.dirty);
    }
  };

  for (int step = 0; step < 400; ++step) {
    const std::size_t i = rng.below(vas.size());
    const VirtAddr va = vas[i];
    if (!frame_of[i]) {
      if (rng.chance(0.5)) {
        const u64 frame = *f.frames.alloc();
        f.pt.map(va, frame, rng.chance(0.5));
        frame_of[i] = frame;
      } else {
        EXPECT_THROW(f.pt.set_writable(va, true), std::logic_error);
        EXPECT_FALSE(f.pt.set_accessed_dirty(va, true));
        EXPECT_FALSE(f.pt.test_and_clear_accessed(va));
      }
    } else {
      switch (rng.below(5)) {
        case 0: {
          const u64 tables = f.pt.table_frames();
          f.pt.unmap(va);
          EXPECT_EQ(f.pt.table_frames(), tables);  // interior tables are kept
          f.frames.free(*frame_of[i]);
          frame_of[i].reset();
          break;
        }
        case 1:
          f.pt.set_writable(va, rng.chance(0.5));
          break;
        case 2:
          f.pt.set_accessed_dirty(va, rng.chance(0.5));
          break;
        case 3:
          f.pt.test_and_clear_accessed(va);
          break;
        default:
          f.pt.test_and_clear_dirty(va);
          break;
      }
    }
    check_all(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, DirectoryVsRadixWalk,
                         ::testing::Values(12u, 14u, 16u, 21u));

}  // namespace
}  // namespace vmsls::mem
