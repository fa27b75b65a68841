// Serving plane: open-arrival traffic over a ProcessGroup worker pool.
//
// The closed-loop harnesses ask "how long does this batch take"; the
// TrafficDriver asks the production question: at a given arrival rate, what
// latency does a request see, and what is the highest rate the machine
// sustains under a p99 bound? Requests arrive on a seeded ArrivalProcess
// (sim/arrival.hpp), wait in a bounded admission queue, and are dispatched
// to the lowest-indexed idle worker process of a ProcessGroup. A request's
// service is a *workload episode* on the EpisodeDriver (sls/episode.hpp):
// page touches over the worker's arena shaped like a workload family
// (sweep, strided, random, chase), so service time is touch_cost per touch
// plus every fault stall, eviction, swap queue wait and writeback. The p99
// curve bends exactly where the paging layer stops keeping up.
//
// Determinism: arrival gaps and episode shapes derive from TrafficConfig
// seeds only (no wall clock); dispatch is lowest-idle-index; the queue is
// FIFO. A serving run is bit-identical across reruns, shard placements,
// and trace on/off — the same contract every closed-loop bench enforces.
//
// Ledger (hard gate, checked by run()): every arrival is admitted or
// rejected, every admitted request completes, the queue drains, and every
// worker goes idle:
//
//   arrivals == admitted + rejected == config requests
//   completed == admitted == latency samples
//
// and the workers' pagers balance the paging ledger (mem/paging/ledger.hpp).
//
// Per-request spans: a causal id is minted at arrival and threads through
// "request" (arrival -> completion), "queue" (arrival -> dispatch), and
// "service" (dispatch -> completion) async spans, with rejected arrivals
// marked by an instant event.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sls/episode.hpp"
#include "sls/process_group.hpp"

namespace vmsls::sls {

/// Drives one open-arrival serving run over a ProcessGroup. Construction
/// binds every process already in the group as a worker (allocating each a
/// fresh lazily-faulted arena); run() injects the configured arrivals and
/// steps the shared simulator to completion.
class TrafficDriver {
 public:
  /// Per-run results. The three per-request vectors hold exact values in
  /// completion order — index i is one request across all of them, with
  /// latency[i] == queue_wait[i] + service[i] — so percentiles computed
  /// from them are exact. The registry histograms fed alongside (for
  /// telemetry and report_writer summaries) read at most 1/16 above them.
  struct Report {
    u64 arrivals = 0;
    u64 admitted = 0;
    u64 rejected = 0;
    u64 completed = 0;
    u64 peak_queue = 0;       ///< deepest admission-queue occupancy seen
    u64 peak_busy = 0;        ///< most workers simultaneously in service
    Cycles span = 0;          ///< first arrival -> last completion
    std::vector<Cycles> latency;     ///< arrival -> completion, per request
    std::vector<Cycles> queue_wait;  ///< arrival -> dispatch, per request
    std::vector<Cycles> service;     ///< dispatch -> completion, per request

    /// Exact q-quantile (0 <= q <= 1) of `values` by nearest_rank; 0 when
    /// empty. Sorts a copy — report-time only.
    static Cycles percentile(const std::vector<Cycles>& values, double q);
    Cycles latency_p(double q) const { return percentile(latency, q); }
    /// Sustained throughput: completed requests per million cycles.
    double qps_mcycle() const {
      return span > 0 ? static_cast<double>(completed) * 1e6 / static_cast<double>(span) : 0.0;
    }
  };

  /// Requires `cfg.requests > 0`, a non-empty group, and a pager on every
  /// member process (serving without a paging plane has no pressure story).
  TrafficDriver(ProcessGroup& group, const TrafficConfig& cfg,
                const std::string& name = "traffic");

  TrafficDriver(const TrafficDriver&) = delete;
  TrafficDriver& operator=(const TrafficDriver&) = delete;

  /// Injects the configured arrivals and drains the group (every request
  /// completes, ProcessGroup::drain's gates hold). Throws on a ledger
  /// violation, a stuck queue, or `max_cycles` elapsing. One run per
  /// driver instance.
  Report run(Cycles max_cycles = 4'000'000'000ull);

  const TrafficConfig& config() const noexcept { return cfg_; }
  u64 queue_depth() const noexcept { return queue_.size(); }
  u64 busy_workers() const noexcept { return busy_; }

 private:
  enum class Episode { kSweep, kStrided, kRandom, kChase };

  struct Pending {
    u64 id = 0;
    Cycles arrival = 0;
    u64 trace_id = 0;
  };

  /// Worker i is episodes_ worker i; it serves one request at a time.
  struct Worker {
    VirtAddr arena = 0;
    Pending req{};
    Cycles dispatched = 0;
  };

  void on_arrival();
  void dispatch(const Pending& req, std::size_t worker);
  void complete(std::size_t worker);
  /// Fills `out` with the seeded episode touches for request `id` over the
  /// arena at `arena`; a write stores the touch's 1-based position.
  void make_episode(u64 id, VirtAddr arena, std::vector<EpisodeDriver::Touch>& out) const;

  sim::Simulator& sim_;
  ProcessGroup& group_;
  TrafficConfig cfg_;
  std::string name_;
  std::vector<Episode> mix_;
  sim::ArrivalProcess arrivals_gen_;
  EpisodeDriver episodes_;
  std::vector<Worker> workers_;
  std::deque<Pending> queue_;
  u64 page_bytes_ = 0;
  u64 next_id_ = 0;
  u64 busy_ = 0;
  bool ran_ = false;
  Cycles first_arrival_ = 0;
  Cycles last_completion_ = 0;
  sim::TraceTrack trace_track_ = 0;

  Report report_;
  Counter& arrivals_;
  Counter& admitted_;
  Counter& rejected_;
  Counter& completed_;
  Histogram& latency_;
  Histogram& queue_wait_;
  Histogram& service_;
};

/// One point of a rate sweep: the arrival gap it ran at and the outcome.
struct RatePoint {
  Cycles mean_gap = 0;
  Cycles p99 = 0;
  double qps_mcycle = 0.0;
  u64 rejected = 0;
  bool violated = false;  ///< p99 over the bound, or any rejection
};

/// Rate-sweep outcome: every point walked (rate ascending) and the last
/// sustainable one. `saturated` is false when even the highest rate held
/// the bound (the sweep never found the knee).
struct RateSweepResult {
  std::vector<RatePoint> points;
  Cycles max_qps_gap = 0;     ///< mean_gap of the last sustainable point
  double max_qps_mcycle = 0;  ///< its throughput (the headline number)
  Cycles max_qps_p99 = 0;     ///< its p99 latency (must be <= the bound)
  bool saturated = false;
};

/// Walks `mean_gaps` in DESCENDING gap order (ascending arrival rate),
/// calling `run_point` per gap, until the first point that violates the
/// p99 bound or rejects a request; that point is recorded and the walk
/// stops (latency is monotone in rate for a work-conserving pool, so the
/// first violation is the knee). Throws when `mean_gaps` is empty, not
/// strictly descending, or the very first rate already violates.
RateSweepResult sweep_rates(const std::vector<Cycles>& mean_gaps, Cycles p99_bound,
                            const std::function<TrafficDriver::Report(Cycles mean_gap)>& run_point);

}  // namespace vmsls::sls
