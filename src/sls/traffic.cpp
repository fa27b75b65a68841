#include "sls/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace vmsls::sls {

Cycles TrafficDriver::Report::percentile(const std::vector<Cycles>& values, double q) {
  if (values.empty()) return 0;
  std::vector<Cycles> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(1.0, std::max(0.0, q));
  // Nearest-rank: the smallest value with at least ceil(q * n) values <= it.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(clamped * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

TrafficDriver::TrafficDriver(ProcessGroup& group, const TrafficConfig& cfg,
                             const std::string& name)
    : sim_(group.simulator()),
      group_(group),
      cfg_(cfg),
      name_(name),
      arrivals_gen_(cfg.arrival),
      arrivals_(sim_.stats().counter(name + ".arrivals")),
      admitted_(sim_.stats().counter(name + ".admitted")),
      rejected_(sim_.stats().counter(name + ".rejected")),
      completed_(sim_.stats().counter(name + ".completed")),
      latency_(sim_.stats().histogram(name + ".latency")),
      queue_wait_(sim_.stats().histogram(name + ".queue_wait")),
      service_(sim_.stats().histogram(name + ".service")) {
  require(cfg_.requests > 0, name_ + ": TrafficConfig::requests must be > 0 for a serving run");
  require(cfg_.episode_touches > 0, name_ + ": episode_touches must be > 0");
  require(cfg_.arena_pages > 0, name_ + ": arena_pages must be > 0");
  require(cfg_.write_ratio >= 0.0 && cfg_.write_ratio <= 1.0,
          name_ + ": write_ratio must lie in [0, 1]");
  require(group_.size() > 0, name_ + ": the process group has no worker processes");

  // Mix parse: comma-separated workload-family names -> episode shapes.
  std::stringstream ss(cfg_.mix);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    if (token == "saxpy" || token == "vecadd" || token == "merge" || token == "conv2d" ||
        token == "spmv") {
      mix_.push_back(Episode::kSweep);
    } else if (token == "matmul") {
      mix_.push_back(Episode::kStrided);
    } else if (token == "hash_join" || token == "histogram") {
      mix_.push_back(Episode::kRandom);
    } else if (token == "pointer_chase" || token == "bfs") {
      mix_.push_back(Episode::kChase);
    } else {
      throw std::invalid_argument(name_ + ": unknown episode pattern '" + token +
                                  "' in TrafficConfig::mix");
    }
  }
  require(!mix_.empty(), name_ + ": TrafficConfig::mix selects no episode patterns");

  page_bytes_ = 1ull << group_.platform().page_table.page_bits;
  trace_track_ = sim_.trace().track(name_);

  // Bind every group process as a serving worker: each gets a fresh arena,
  // reserved lazily so the first episode that touches a page demand-faults
  // it through the zero-fill path — no setup traffic, full pressure.
  workers_.reserve(group_.size());
  for (std::size_t i = 0; i < group_.size(); ++i) {
    System& sys = group_.process(i);
    Worker w;
    w.system = &sys;
    w.pager = sys.pager();
    require(w.pager != nullptr,
            name_ + ": worker process '" + sys.instance() + "' has no pager (serving mode "
            "needs a paging plane — set a frame budget)");
    w.process = &sys.process();
    w.as = &sys.address_space();
    w.arena = w.process->alloc(cfg_.arena_pages * page_bytes_, page_bytes_);
    workers_.push_back(w);
  }
}

void TrafficDriver::make_episode(u64 id, std::vector<Touch>& out) const {
  const Episode kind = mix_[id % mix_.size()];
  // Per-request stream: f(traffic seed, request id). SplitMix-style mixing
  // keeps neighboring ids decorrelated; Rng reseeds through SplitMix64
  // again, so even seed 0 behaves.
  Rng rng(cfg_.arrival.seed ^ (0x9E3779B97F4A7C15ull * (id + 1)));
  const u64 pages = cfg_.arena_pages;
  out.clear();
  out.reserve(cfg_.episode_touches);
  u64 idx = rng.below(pages);
  const u64 stride = 2 + rng.below(5);
  for (u64 i = 0; i < cfg_.episode_touches; ++i) {
    switch (kind) {
      case Episode::kSweep:
        idx = (idx + 1) % pages;
        break;
      case Episode::kStrided:
        idx = (idx + stride) % pages;
        break;
      case Episode::kRandom:
        idx = rng.below(pages);
        break;
      case Episode::kChase:
        // Dependent chain: the next page is a fixed function of the current
        // one (an LCG walk), the shape of pointer chasing — no lookahead
        // for prefetchers to exploit.
        idx = (idx * 6364136223846793005ull + 1442695040888963407ull) % pages;
        break;
    }
    out.push_back(Touch{idx, rng.chance(cfg_.write_ratio)});
  }
}

void TrafficDriver::on_arrival() {
  const u64 id = next_id_++;
  arrivals_.add();
  ++report_.arrivals;
  if (report_.arrivals == 1) first_arrival_ = sim_.now();
  // Schedule the next arrival FIRST: the arrival clock is open-loop and
  // must not shift with admission outcomes or service completions.
  if (next_id_ < cfg_.requests)
    sim_.schedule_in(arrivals_gen_.next_gap(sim_.now()), [this] { on_arrival(); });

  Pending req;
  req.id = id;
  req.arrival = sim_.now();
  req.trace_id = VMSLS_TRACE_NEW_ID(sim_.trace());
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "request", req.trace_id, id);

  // Admission: lowest-indexed idle worker, else the bounded queue, else
  // reject. A worker can only be idle when the queue is empty (completions
  // re-dispatch from the queue in the same cycle), so dispatch-first never
  // reorders around queued requests.
  std::size_t idle = workers_.size();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].busy) {
      idle = w;
      break;
    }
  }
  if (idle < workers_.size() && queue_.empty()) {
    admitted_.add();
    ++report_.admitted;
    dispatch(req, idle);
    return;
  }
  if (queue_.size() < cfg_.queue_capacity) {
    admitted_.add();
    ++report_.admitted;
    VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "queue", req.trace_id, queue_.size());
    queue_.push_back(req);
    report_.peak_queue = std::max<u64>(report_.peak_queue, queue_.size());
    return;
  }
  rejected_.add();
  ++report_.rejected;
  VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "reject", req.trace_id, id);
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "request", req.trace_id);
}

void TrafficDriver::dispatch(const Pending& req, std::size_t worker) {
  Worker& wk = workers_[worker];
  if (wk.busy) throw std::invalid_argument(name_ + ": dispatch to a busy worker");
  wk.busy = true;
  ++busy_;
  report_.peak_busy = std::max(report_.peak_busy, busy_);
  wk.req = req;
  wk.dispatched = sim_.now();
  queue_wait_.record(wk.dispatched - req.arrival);
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "service", req.trace_id, worker);

  // The episode: each touch charges touch_cost compute, then either
  // proceeds synchronously (resident page) or suspends on the worker
  // pager's fault path — fault stalls, swap queue waits, and writebacks
  // all land inside this request's service span.
  make_episode(req.id, wk.touches);
  wk.pos = 0;
  advance(worker);
}

void TrafficDriver::advance(std::size_t worker) {
  Worker& wk = workers_[worker];
  if (wk.pos == wk.touches.size()) {
    complete(worker);
    return;
  }
  const Touch t = wk.touches[wk.pos++];
  const VirtAddr va = wk.arena + t.page * page_bytes_;
  auto access = [this, worker, va, is_write = t.is_write] { touch(worker, va, is_write); };
  if (cfg_.touch_cost > 0)
    sim_.schedule_in(cfg_.touch_cost, access);
  else
    sim_.schedule_now(access);
}

void TrafficDriver::touch(std::size_t worker, VirtAddr va, bool is_write) {
  Worker& wk = workers_[worker];
  if (!wk.as->is_mapped(va)) {
    wk.pager->handle_fault(va, is_write, [this, worker, va, is_write] {
      Worker& done = workers_[worker];
      if (!done.as->is_mapped(va)) done.process->map_in(va);
      if (is_write) done.as->write_u64(va, done.pos);
      advance(worker);
    });
    return;
  }
  if (is_write)
    wk.as->write_u64(va, wk.pos);
  else
    (void)wk.as->read_u64(va);
  advance(worker);
}

void TrafficDriver::complete(std::size_t worker) {
  Worker& wk = workers_[worker];
  const Pending req = wk.req;
  const Cycles dispatched = wk.dispatched;
  wk.busy = false;
  --busy_;
  completed_.add();
  ++report_.completed;
  const Cycles now = sim_.now();
  latency_.record(now - req.arrival);
  service_.record(now - dispatched);
  // All three vectors are appended here, in completion order, so index i
  // is one request across them and latency[i] == queue_wait[i] + service[i].
  report_.latency.push_back(now - req.arrival);
  report_.queue_wait.push_back(dispatched - req.arrival);
  report_.service.push_back(now - dispatched);
  last_completion_ = now;
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "service", req.trace_id);
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "request", req.trace_id);
  if (!queue_.empty()) {
    const Pending next_req = queue_.front();
    queue_.pop_front();
    VMSLS_TRACE_END(sim_.trace(), trace_track_, "queue", next_req.trace_id);
    dispatch(next_req, worker);
  }
}

TrafficDriver::Report TrafficDriver::run(Cycles max_cycles) {
  require(!ran_, name_ + ": a TrafficDriver runs once (build a fresh one per run)");
  ran_ = true;
  if (sim::TelemetrySampler* t = group_.telemetry(); t != nullptr && !t->armed()) t->start();
  const Cycles t0 = sim_.now();
  sim_.schedule_in(arrivals_gen_.next_gap(sim_.now()), [this] { on_arrival(); });
  while (sim_.step())
    if (sim_.now() - t0 > max_cycles)
      throw std::runtime_error(name_ + ": serving run exceeded " + std::to_string(max_cycles) +
                               " cycles (arrival rate far beyond sustainable?)");

  // --- request-ledger identity (hard gates) ---
  const auto gate = [this](bool ok, const std::string& what) {
    if (!ok) throw std::runtime_error(name_ + ": ledger violation — " + what);
  };
  gate(report_.arrivals == cfg_.requests, "arrivals != configured requests");
  gate(report_.admitted + report_.rejected == report_.arrivals,
       "admitted + rejected != arrivals");
  gate(report_.completed == report_.admitted, "completed != admitted after drain");
  gate(queue_.empty(), "admission queue not drained");
  gate(busy_ == 0, "workers still in service after drain");
  gate(sim_.idle(), "simulator not idle after drain");
  if (report_.completed > 0) report_.span = last_completion_ - first_arrival_;
  return report_;
}

RateSweepResult sweep_rates(
    const std::vector<Cycles>& mean_gaps, Cycles p99_bound,
    const std::function<TrafficDriver::Report(Cycles mean_gap)>& run_point) {
  if (mean_gaps.empty()) throw std::invalid_argument("sweep_rates: no rate points");
  for (std::size_t i = 1; i < mean_gaps.size(); ++i)
    if (mean_gaps[i] >= mean_gaps[i - 1])
      throw std::invalid_argument(
          "sweep_rates: mean_gaps must be strictly descending (rate ascending)");

  RateSweepResult out;
  for (const Cycles gap : mean_gaps) {
    const TrafficDriver::Report rep = run_point(gap);
    RatePoint pt;
    pt.mean_gap = gap;
    pt.p99 = rep.latency_p(0.99);
    pt.qps_mcycle = rep.qps_mcycle();
    pt.rejected = rep.rejected;
    pt.violated = pt.p99 > p99_bound || pt.rejected > 0;
    out.points.push_back(pt);
    if (pt.violated) {
      if (out.points.size() == 1)
        throw std::runtime_error(
            "sweep_rates: the lowest arrival rate already violates the p99 bound — "
            "no sustainable point exists in this sweep");
      out.saturated = true;
      break;
    }
    out.max_qps_gap = pt.mean_gap;
    out.max_qps_mcycle = pt.qps_mcycle;
    out.max_qps_p99 = pt.p99;
  }
  return out;
}

}  // namespace vmsls::sls
