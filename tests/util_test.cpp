#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace vmsls {
namespace {

// --- units / bit helpers ---

TEST(Units, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(Units, AlignDown) {
  EXPECT_EQ(align_down(0, 4096), 0u);
  EXPECT_EQ(align_down(4095, 4096), 0u);
  EXPECT_EQ(align_down(4096, 4096), 4096u);
  EXPECT_EQ(align_down(8191, 4096), 4096u);
}

TEST(Units, AlignUp) {
  EXPECT_EQ(align_up(0, 4096), 0u);
  EXPECT_EQ(align_up(1, 4096), 4096u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_up(4097, 4096), 8192u);
}

TEST(Units, IsAligned) {
  EXPECT_TRUE(is_aligned(0, 8));
  EXPECT_TRUE(is_aligned(64, 8));
  EXPECT_FALSE(is_aligned(65, 8));
}

TEST(Units, Log2i) {
  EXPECT_EQ(log2i(1), 0u);
  EXPECT_EQ(log2i(2), 1u);
  EXPECT_EQ(log2i(3), 1u);
  EXPECT_EQ(log2i(4096), 12u);
  EXPECT_EQ(log2i(1ull << 33), 33u);
  EXPECT_EQ(log2i(0), 0u);
  EXPECT_EQ(log2i(~0ull), 63u);
}

TEST(Units, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 8), 0u);
  EXPECT_EQ(ceil_div(1, 8), 1u);
  EXPECT_EQ(ceil_div(8, 8), 1u);
  EXPECT_EQ(ceil_div(9, 8), 2u);
}

TEST(Units, RequireThrowsOnFalse) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), std::invalid_argument);
  EXPECT_THROW(ensure(false, "bad"), std::logic_error);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(64 * KiB), "64 KiB");
  EXPECT_EQ(format_bytes(3 * MiB), "3 MiB");
  EXPECT_EQ(format_bytes(2 * GiB), "2 GiB");
  EXPECT_EQ(format_bytes(KiB + 1), "1025 B");
}

// --- RNG ---

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool low = false, high = false;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    low |= (v == 5);
    high |= (v == 8);
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(5);
  const u64 first = rng.next();
  rng.next();
  rng.reseed(5);
  EXPECT_EQ(rng.next(), first);
}

// --- statistics ---

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BasicMoments) {
  Histogram h;
  h.record(1);
  h.record(3);
  h.record(8);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 12u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, PercentileMonotone) {
  Histogram h;
  for (u64 v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_LE(h.percentile(0.1), h.percentile(0.5));
  EXPECT_LE(h.percentile(0.5), h.percentile(0.99));
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(100);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(Histogram, ResetRestoresExtremaTracking) {
  // Regression: reset() must re-seed min/max/sum, not just the buckets — a
  // stale min would survive into the next measurement interval.
  Histogram h;
  h.record(5);
  h.reset();
  h.record(100);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, PercentilesStayWithinASixteenthOfExactOverAllOfU64) {
  // Seeded samples at every magnitude, plus the layout's edges: the exact
  // buckets below 16, the first sub-bucketed octaves, 2^32, 2^63 and the
  // top bucket ending at ~0ull.
  std::vector<u64> samples = {0, 1, 15, 16, 31, 32, 1ull << 32, 1ull << 63, ~0ull};
  Rng rng(34);
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.next() >> rng.below(64));
  Histogram h, low, high, serial;
  for (const u64 v : samples) {
    h.record(v);
    serial.record(v);
    (v < (1ull << 32) ? low : high).record(v);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.buckets().size(), 976u);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    SCOPED_TRACE(q);
    const u64 exact = samples[nearest_rank(q, samples.size()) - 1];
    EXPECT_GE(h.percentile(q), exact);
    const u64 slack = std::min(exact / 16, ~u64{0} - exact);  // no wrap at ~0ull
    EXPECT_LE(h.percentile(q), std::min(h.max(), exact + slack));
  }
  EXPECT_EQ(h.percentile(0), h.min());
  EXPECT_EQ(h.percentile(1), h.max());

  // Shards with disjoint value ranges merge into the serial histogram.
  low.merge(high);
  EXPECT_EQ(low.buckets(), serial.buckets());
  EXPECT_EQ(low.count(), serial.count());
  EXPECT_EQ(low.sum(), serial.sum());
  EXPECT_EQ(low.min(), serial.min());
  EXPECT_EQ(low.max(), serial.max());
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(low.percentile(q), serial.percentile(q)) << q;
}

TEST(Histogram, MergeMatchesSerialRecording) {
  // Two shards recording disjoint sample streams must merge into exactly
  // the histogram one recorder would have produced.
  Histogram a, b, serial;
  for (u64 v = 1; v <= 500; ++v) {
    a.record(v);
    serial.record(v);
  }
  for (u64 v = 501; v <= 1000; ++v) {
    b.record(v * 3);
    serial.record(v * 3);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), serial.count());
  EXPECT_EQ(a.sum(), serial.sum());
  EXPECT_EQ(a.min(), serial.min());
  EXPECT_EQ(a.max(), serial.max());
  EXPECT_EQ(a.buckets(), serial.buckets());
  EXPECT_EQ(a.percentile(0.5), serial.percentile(0.5));
  EXPECT_EQ(a.percentile(0.99), serial.percentile(0.99));
}

TEST(Histogram, MergeEmptySidesAreNoOps) {
  Histogram a, empty;
  a.record(7);
  a.merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 7u);

  Histogram dst;
  dst.merge(a);  // merging INTO an empty histogram copies the state
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), 7u);  // the ~0 min sentinel must not leak through
  EXPECT_EQ(dst.sum(), 7u);
}

TEST(StatRegistry, MergeAddsCountersAndHistograms) {
  StatRegistry a, b;
  a.counter("hits").add(3);
  b.counter("hits").add(4);
  b.counter("only_b").add(9);
  a.histogram("lat").record(10);
  b.histogram("lat").record(20);
  b.histogram("only_b_h").record(5);
  a.merge(b);
  EXPECT_EQ(a.counter_value("hits"), 7u);
  EXPECT_EQ(a.counter_value("only_b"), 9u);
  EXPECT_EQ(a.histogram("lat").count(), 2u);
  EXPECT_EQ(a.histogram("lat").min(), 10u);
  EXPECT_EQ(a.histogram("lat").max(), 20u);
  EXPECT_EQ(a.histogram("only_b_h").count(), 1u);
}

TEST(StatRegistry, MergeWithPrefixNamespacesEntries) {
  // The sharded runner's merge: per-shard registries land under
  // "<instance>." prefixes, exactly like ProcessGroup's stat naming.
  StatRegistry merged, shard;
  shard.counter("pager.evictions").add(5);
  shard.histogram("pager.fault_stall").record(1000);
  merged.merge(shard, "p3.");
  EXPECT_EQ(merged.counter_value("p3.pager.evictions"), 5u);
  EXPECT_EQ(merged.histogram("p3.pager.fault_stall").count(), 1u);
  EXPECT_FALSE(merged.has_counter("pager.evictions"));
  const auto snap = merged.snapshot();
  EXPECT_EQ(snap.at("p3.pager.evictions"), 5.0);
  EXPECT_EQ(snap.at("p3.pager.fault_stall.max"), 1000.0);
}

TEST(StatRegistry, SnapshotIncludesPercentiles) {
  StatRegistry reg;
  auto& h = reg.histogram("h");
  for (u64 v = 1; v <= 100; ++v) h.record(v);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("h.p50"), static_cast<double>(h.percentile(0.50)));
  EXPECT_EQ(snap.at("h.p95"), static_cast<double>(h.percentile(0.95)));
  EXPECT_EQ(snap.at("h.p99"), static_cast<double>(h.percentile(0.99)));
  EXPECT_LE(snap.at("h.p50"), snap.at("h.p95"));
  EXPECT_LE(snap.at("h.p95"), snap.at("h.p99"));
  EXPECT_EQ(snap.count("h.overflow"), 0u);
}

TEST(StatRegistry, CountersByName) {
  StatRegistry reg;
  reg.counter("a.hits").add(3);
  reg.counter("a.hits").add(2);
  EXPECT_EQ(reg.counter_value("a.hits"), 5u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_TRUE(reg.has_counter("a.hits"));
  EXPECT_FALSE(reg.has_counter("missing"));
}

TEST(StatRegistry, SnapshotIncludesHistograms) {
  StatRegistry reg;
  reg.counter("c").add(7);
  reg.histogram("h").record(4);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("c"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("h.count"), 1.0);
  EXPECT_DOUBLE_EQ(snap.at("h.mean"), 4.0);
}

TEST(StatRegistry, ResetClearsAll) {
  StatRegistry reg;
  reg.counter("c").add(7);
  reg.histogram("h").record(4);
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

// --- table ---

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_NO_THROW(t.add_row({"1", "2"}));
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, PrintContainsHeaderAndCells) {
  Table t({"name", "value"});
  t.add_row({"x", "42"});
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvFormat) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(u64{42}), "42");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace vmsls
