// Design-space exploration over interface-synthesis parameters.
//
// The flow's main tunables are each thread's TLB geometry (more entries
// cost fabric resources but cut miss/walk traffic) and — once the platform
// models memory pressure — the pager operating point (frame budget ×
// replacement policy), the offload mode and the swap I/O settings. The
// explorer synthesizes one image per candidate, checks the resource budget,
// and (optionally) scores candidates by running the elaborated system — the
// measure-everything approach a simulator substrate makes cheap. A search
// is one explore() call over a list of axes, each a public value (a list of
// point mutators); the cartesian product is walked first axis outermost.
// Scoring fans out over a host thread pool; results are bit-identical to
// the serial sweep.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dma/offload.hpp"
#include "mem/paging/replacement.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "sls/synthesis.hpp"

namespace vmsls::sls {

/// One pager operating point (pager_axis).
struct PagerCandidate {
  u64 frame_budget = 0;  // 0 = pressure-free (pager inert)
  paging::PolicyKind policy = paging::PolicyKind::kClock;
};

/// One offload operating point (offload_axis): the SVM flow (include_dma =
/// false, virtual addressing) or the copy-based baseline in one of its copy
/// modes (physical addressing, DMA engine + offload driver elaborated).
struct OffloadCandidate {
  bool include_dma = false;
  dma::CopyMode mode = dma::CopyMode::kSgDma;
};

/// One swap I/O operating point (swap_axis): request-queue dispatch policy ×
/// swap-in readahead depth.
struct SwapCandidate {
  paging::SwapSchedPolicy sched = paging::SwapSchedPolicy::kFifo;
  unsigned readahead = 0;
};

/// One grid point while the axes build it: the specs it is synthesized
/// from. `thread` points at the explored thread inside `app`.
struct DsePoint {
  PlatformSpec platform;
  AppSpec app;
  SynthesisOptions options;
  ThreadSpec* thread = nullptr;
};

/// One grid axis: each entry is one value of the axis, a mutator that sets
/// that value's fields of a point. Any list of mutators is an axis.
using DseAxis = std::vector<std::function<void(DsePoint&)>>;

/// The explored thread's TLB resized to each entry count, keeping the
/// point's geometry (its tlb_override, else the platform's default TLB).
/// Throws std::invalid_argument on a zero entry count when explored.
DseAxis tlb_axis(const std::vector<unsigned>& entries);
/// The pager's frame budget and replacement policy.
DseAxis pager_axis(const std::vector<PagerCandidate>& points);
/// The offload mode. A DMA point runs the explored thread against physical
/// addresses with the engine + driver included (the evaluator drives the
/// copy-in/compute/copy-out flow); an SVM point stays virtually addressed.
DseAxis offload_axis(const std::vector<OffloadCandidate>& points);
/// The swap scheduler's dispatch policy and readahead depth: runtime
/// configuration, not fabric, so every point shares one resource shape.
DseAxis swap_axis(const std::vector<SwapCandidate>& points);

struct DseCandidate {
  /// The image this candidate was synthesized as: its operating point is
  /// image.platform(), image.options() and image.hw_plan(thread), its
  /// resources image.report().
  SystemImage image;
  /// The explored thread's TLB override entries; 0 when it has none.
  unsigned tlb_entries = 0;
  bool fits = false;
  bool measured = false;
  Cycles cycles = 0;  // valid when measured
};

struct DseResult {
  std::vector<DseCandidate> candidates;
  /// Index into `candidates` of the chosen point: the fastest fitting
  /// candidate when measured, otherwise the largest fitting TLB (monotone
  /// miss-rate assumption) — on a grid with no TLB axis, the first fitting
  /// candidate. -1 if nothing fits.
  int best = -1;
};

class DesignSpaceExplorer {
 public:
  /// Evaluator: builds a simulator, elaborates the image, runs the
  /// workload, and returns the cycle count to minimize.
  ///
  /// Must be safe to call concurrently from several host threads when
  /// exploration is parallel (threads > 1): evaluate only through state
  /// local to the call — elaborate the image onto a fresh Simulator, as
  /// every existing evaluator already does — and the sweep stays
  /// deterministic, because each candidate's simulation is fully isolated.
  using Evaluator = std::function<Cycles(const SystemImage&)>;

  explicit DesignSpaceExplorer(PlatformSpec platform, SynthesisOptions options = {});

  /// Host threads used to score candidates. 1 (the default) evaluates on
  /// the calling thread; N > 1 fans candidates out over a worker pool.
  /// Synthesis itself stays serial (it is microseconds per candidate), and
  /// results — candidate order, every cycle count, and the chosen best
  /// point — are bit-identical to the serial sweep regardless of N.
  void set_threads(unsigned threads) noexcept { threads_ = threads == 0 ? 1 : threads; }
  unsigned threads() const noexcept { return threads_; }

  /// Sweeps the cartesian product of `axes` for `thread` of `app`, first
  /// axis outermost (candidate order), from the explorer's platform and
  /// options. Throws std::invalid_argument on an empty axis and
  /// std::out_of_range on an unknown thread.
  DseResult explore(const AppSpec& app, const std::string& thread,
                    const std::vector<DseAxis>& axes, const Evaluator& evaluate = nullptr);

  /// Sweeps `thread`'s TLB size over `entry_candidates` at the platform's
  /// configured pager operating point.
  DseResult explore_tlb(const AppSpec& app, const std::string& thread,
                        const std::vector<unsigned>& entry_candidates,
                        const Evaluator& evaluate = nullptr) {
    return explore(app, thread, {tlb_axis(entry_candidates)}, evaluate);
  }

 private:
  PlatformSpec platform_;
  SynthesisOptions options_;
  unsigned threads_ = 1;
};

}  // namespace vmsls::sls
