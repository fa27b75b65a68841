// The benchmark's arithmetic, kept free of simulator types so the self-test
// (test/arith_test.cpp) checks exactly what the benchmark reports:
//
//   * nearest-rank percentiles over exact samples, with the count of
//     samples beyond the reported rank,
//   * per-process aggregation of a StatRegistry snapshot (sum a counter, or
//     count-weight a histogram mean, across the "pN." instance prefixes),
//   * self time of a host span (its duration minus the part its child
//     spans cover),
//   * the max-QPS rule over a rate grid.
//
// The simulator has its own nearest-rank helper; the benchmark keeps one
// here so that a change to the code under measurement cannot change how the
// benchmark computes what it reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile (0 < q <= 1): the smallest sample with at least
/// ceil(q * n) samples <= it. 0 for an empty sample set.
template <typename T>
T nearest_rank(std::vector<T> values, double q) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Samples ranked above the nearest-rank q-quantile of n samples: how many
/// observations back a tail percentile (>= 10 for a reportable p99).
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const std::size_t rank =
      std::clamp<std::size_t>(static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

/// Median of a sample set (mean of the two middle values for even n).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Strips one leading process-instance prefix ("p0.", "p17.") from a stat
/// name; names without one come back unchanged.
inline std::string strip_instance(const std::string& name) {
  if (name.size() < 3 || name[0] != 'p') return name;
  std::size_t i = 1;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  if (i == 1 || i >= name.size() || name[i] != '.') return name;
  return name.substr(i + 1);
}

/// True when `name` matches `pattern` segment by segment, where a "*"
/// segment matches any one dotted segment (a thread name such as "worker").
inline bool match_segments(const std::string& name, const std::string& pattern) {
  const auto split = [](const std::string& s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t dot = s.find('.'); dot != std::string::npos; dot = s.find('.', start)) {
      out.push_back(s.substr(start, dot - start));
      start = dot + 1;
    }
    out.push_back(s.substr(start));
    return out;
  };
  const std::vector<std::string> n = split(name);
  const std::vector<std::string> p = split(pattern);
  if (n.size() != p.size()) return false;
  for (std::size_t i = 0; i < n.size(); ++i)
    if (p[i] != "*" && p[i] != n[i]) return false;
  return true;
}

using Snapshot = std::map<std::string, double>;

/// Sum of every snapshot entry whose name, with any "pN." instance prefix
/// removed, matches `pattern` ("walker.walks", "hwt.*.mem_ops"). Standalone
/// systems register unprefixed names and process groups prefixed ones, so
/// the same pattern aggregates both.
inline double sum_stat(const Snapshot& snap, const std::string& pattern) {
  double total = 0.0;
  for (const auto& [name, value] : snap)
    if (match_segments(strip_instance(name), pattern)) total += value;
  return total;
}

/// Count-weighted mean of every histogram matching `pattern` (as for
/// sum_stat, on the histogram's base name): sum(mean_i * count_i) /
/// sum(count_i), 0 when no samples were recorded.
inline double hist_mean(const Snapshot& snap, const std::string& pattern) {
  double weighted = 0.0;
  double count = 0.0;
  for (const auto& [name, value] : snap) {
    const std::string base = strip_instance(name);
    if (base.size() < 6 || base.compare(base.size() - 6, 6, ".count") != 0) continue;
    const std::string hist = base.substr(0, base.size() - 6);
    if (!match_segments(hist, pattern)) continue;
    const auto mean = snap.find(name.substr(0, name.size() - 6) + ".mean");
    if (mean == snap.end()) continue;
    weighted += mean->second * value;
    count += value;
  }
  return count > 0 ? weighted / count : 0.0;
}

/// Largest `.max` over the histograms matching `pattern`; 0 when none.
inline double hist_max(const Snapshot& snap, const std::string& pattern) {
  double best = 0.0;
  for (const auto& [name, value] : snap) {
    const std::string base = strip_instance(name);
    if (base.size() < 4 || base.compare(base.size() - 4, 4, ".max") != 0) continue;
    if (match_segments(base.substr(0, base.size() - 4), pattern)) best = std::max(best, value);
  }
  return best;
}

/// a / b, or 0 when b is 0 (a layer the workload bypasses reports zeros).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// A closed host-time interval [begin, end] in seconds.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Self time of `parent`: its duration minus the part of it that the union
/// of `children` covers (children are clipped to the parent and may
/// overlap one another).
inline double self_time(const Interval& parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double covered = 0.0;
  double cursor = parent.begin;
  for (const Interval& c : children) {
    const double b = std::max(c.begin, cursor);
    const double e = std::min(c.end, parent.end);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return (parent.end - parent.begin) - covered;
}

/// One rate point of a serving grid.
struct RatePoint {
  double mean_gap = 0;    ///< cycles between arrivals (smaller = higher rate)
  double p99 = 0;         ///< exact p99 latency, cycles
  double rejected = 0;    ///< arrivals the admission queue refused
  double qps_mcycle = 0;  ///< completions per million cycles
};

/// The max-QPS rule: among the points whose p99 is below `p99_bound` and
/// that rejected nothing, the highest-rate one (smallest mean gap). Returns
/// its index, or -1 when no point qualifies.
inline int max_qps_point(const std::vector<RatePoint>& grid, double p99_bound) {
  int best = -1;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const RatePoint& pt = grid[i];
    if (pt.p99 >= p99_bound || pt.rejected > 0) continue;
    if (best < 0 || pt.mean_gap < grid[static_cast<std::size_t>(best)].mean_gap)
      best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
