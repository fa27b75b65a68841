#include "util/stats.hpp"

#include <algorithm>
#include <bit>

namespace vmsls {

namespace {

// Values below 32 index themselves. Above, each power of two has 16
// sub-buckets: `shift` drops all but the leading five bits, and
// `shift * 16 + (v >> shift)` numbers the octaves in order. `v | 16` gives
// small values shift 0 without a branch.
unsigned bucket_of(u64 v) noexcept {
  const unsigned shift = static_cast<unsigned>(std::bit_width(v | 16)) - 5;
  return shift * 16 + static_cast<unsigned>(v >> shift);
}

/// Largest value in bucket `b`: its lower bound plus its width minus one,
/// so the top bucket ends at ~0ull without shifting past bit 63.
u64 bucket_upper(unsigned b) noexcept {
  const unsigned shift = std::max(b / 16, 1u) - 1;
  return (u64{b - shift * 16} << shift) + ((u64{1} << shift) - 1);
}

}  // namespace

void Histogram::record(u64 value) {
  const unsigned bucket = bucket_of(value);
  if (bucket >= buckets_.size()) return grow_and_record(value);
  ++buckets_[bucket];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::grow_and_record(u64 value) {
  buckets_.resize(bucket_of(value) + 1, 0);
  record(value);
}

u64 Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  const u64 rank = nearest_rank(q, count_);
  u64 seen = 0;
  unsigned b = 0;
  while ((seen += buckets_[b]) < rank) ++b;
  return std::min(bucket_upper(b), max_);
}

void Histogram::merge(const Histogram& other) {
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  // Raw members, not the accessors: an empty histogram's min_ is the ~0
  // sentinel, which std::min ignores — merging an empty side is a no-op.
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ull;
  max_ = 0;
}

StatRegistry::StatRegistry() {
  // A full system registers a few counters per component across dozens of
  // components; reserving up front keeps registration rehash-free.
  counters_.reserve(128);
  histograms_.reserve(32);
}

Counter& StatRegistry::counter(const std::string& name) { return counters_[name]; }

Histogram& StatRegistry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(name, Histogram{}).first;
  return it->second;
}

std::map<std::string, double> StatRegistry::snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) out[name] = static_cast<double>(c.value());
  for (const auto& [name, h] : histograms_) {
    out[name + ".count"] = static_cast<double>(h.count());
    out[name + ".mean"] = h.mean();
    out[name + ".max"] = static_cast<double>(h.max());
    out[name + ".p50"] = static_cast<double>(h.percentile(0.50));
    out[name + ".p95"] = static_cast<double>(h.percentile(0.95));
    out[name + ".p99"] = static_cast<double>(h.percentile(0.99));
  }
  return out;
}

std::map<std::string, double> StatRegistry::snapshot_prefix(const std::string& prefix) const {
  std::map<std::string, double> out;
  for (auto& [name, value] : snapshot())
    if (name.compare(0, prefix.size(), prefix) == 0) out.emplace(name, value);
  return out;
}

u64 StatRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

bool StatRegistry::has_counter(const std::string& name) const {
  return counters_.find(name) != counters_.end();
}

void StatRegistry::merge(const StatRegistry& other, const std::string& prefix) {
  for (const auto& [name, c] : other.counters_) counter(prefix + name).add(c.value());
  for (const auto& [name, h] : other.histograms_) histogram(prefix + name).merge(h);
}

void StatRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace vmsls
