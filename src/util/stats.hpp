// Statistics collection.
//
// Every simulated component owns named counters registered in a StatRegistry
// so experiments can dump a flat name -> value map after a run. Histograms
// record latency distributions (page walks, fault service, bus queueing).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/units.hpp"

namespace vmsls {

/// A monotonically increasing named counter. Cheap enough to bump per event.
class Counter {
 public:
  void add(u64 v = 1) noexcept { value_ += v; }
  void reset() noexcept { value_ = 0; }
  u64 value() const noexcept { return value_; }

 private:
  u64 value_ = 0;
};

/// Nearest-rank position (1-based) of the q-quantile among `n` sorted
/// samples: max(1, ceil(clamp(q, 0, 1) * n)). The one percentile rule —
/// Histogram::percentile and the serving driver's exact percentiles share it.
inline u64 nearest_rank(double q, u64 n) noexcept {
  const double clamped = std::clamp(q, 0.0, 1.0);
  return std::max<u64>(1, static_cast<u64>(std::ceil(clamped * static_cast<double>(n))));
}

/// Latency histogram over all of u64 with one global log-linear layout:
/// each value below 16 has its own bucket, and every power of two above
/// has 16 equal sub-buckets (976 buckets in all, the last ending at
/// ~0ull). A bucket is never wider than 1/16 of its lower bound, so
/// percentiles stay within 1/16 of the exact value at any magnitude. The
/// bucket vector grows only as far as the highest bucket recorded.
class Histogram {
 public:
  void record(u64 value);

  u64 count() const noexcept { return count_; }
  u64 sum() const noexcept { return sum_; }
  u64 min() const noexcept { return count_ == 0 ? 0 : min_; }
  u64 max() const noexcept { return max_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_); }

  /// The q-quantile (0..1) by nearest rank: the upper bound of the bucket
  /// holding that rank, capped at max(). Never below the exact
  /// nearest-rank sample and never more than 1/16 above it; q = 1 gives
  /// max(). 0 when empty.
  u64 percentile(double q) const noexcept;

  const std::vector<u64>& buckets() const noexcept { return buckets_; }
  void reset() noexcept;

  /// Folds `other`'s samples into this histogram. Exact, not approximate:
  /// bucket boundaries are global (bucket b always covers the same value
  /// range), so bucket counts add index-wise; count/sum add; min/max take
  /// the extrema across both. The shard-aggregation primitive: merging
  /// per-shard histograms yields the histogram a single serial run would
  /// have recorded.
  void merge(const Histogram& other);

 private:
  /// record()'s first sample past the last bucket: grows the vector, then
  /// records. Kept out of line so record() needs no stack frame.
  void grow_and_record(u64 value);

  std::vector<u64> buckets_;
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = ~0ull;
  u64 max_ = 0;
};

/// Flat registry mapping "component.stat" names to counters/histograms.
/// Components hold references to entries they create; the registry owns them.
///
/// Stability guarantee: Counter& / Histogram& references returned by
/// counter() / histogram() remain valid for the registry's lifetime.
/// Storage is an unordered_map (hot registration is a hash lookup, not a
/// red-black-tree walk), and unordered_map never invalidates references to
/// values on rehash or insert — only iterators. Components therefore cache
/// these references at construction and bump them per event with no lookup.
/// Iteration order of counters()/histograms() is unspecified; use
/// snapshot()/snapshot_prefix() for deterministic, name-sorted views.
class StatRegistry {
 public:
  StatRegistry();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Snapshot of all counter values (histograms contribute
  /// .count/.mean/.max and the .p50/.p95/.p99 of Histogram::percentile).
  /// Returned map is ordered by name — deterministic for reports and tests.
  std::map<std::string, double> snapshot() const;

  /// Snapshot restricted to entries whose name starts with `prefix` —
  /// component-scoped reporting ("pager.", "pager.swap.", "faults.").
  std::map<std::string, double> snapshot_prefix(const std::string& prefix) const;

  u64 counter_value(const std::string& name) const;
  bool has_counter(const std::string& name) const;

  /// Folds every counter and histogram of `other` into this registry,
  /// entry names prefixed with `prefix` ("p3." turns "pager.evictions"
  /// into "p3.pager.evictions"; "" merges name-onto-name). Counters add;
  /// histograms merge per Histogram::merge. Missing entries are created.
  /// The sharded runner's aggregation path: merging per-shard registries
  /// under per-shard prefixes reproduces, value for value, the registry a
  /// single simulator running all instances would expose.
  void merge(const StatRegistry& other, const std::string& prefix = "");

  void reset();

  const std::unordered_map<std::string, Counter>& counters() const { return counters_; }
  const std::unordered_map<std::string, Histogram>& histograms() const { return histograms_; }

 private:
  std::unordered_map<std::string, Counter> counters_;
  std::unordered_map<std::string, Histogram> histograms_;
};

}  // namespace vmsls
