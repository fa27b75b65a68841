// Design-space exploration over interface-synthesis parameters.
//
// The flow's main tunables are each thread's TLB geometry (more entries
// cost fabric resources but cut miss/walk traffic) and — once the platform
// models memory pressure — the pager operating point (frame budget ×
// replacement policy). The explorer synthesizes one image per candidate,
// checks the resource budget, and (optionally) scores candidates by
// running the elaborated system — the measure-everything approach a
// simulator substrate makes cheap. The four explore_* grids are one loop
// over axes (each a list of spec mutators, the cartesian product walked
// first axis outermost). Scoring fans out over a host thread pool; results
// are bit-identical to the serial sweep.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dma/offload.hpp"
#include "mem/paging/replacement.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "sls/synthesis.hpp"

namespace vmsls::sls {

/// One pager operating point for the pager × TLB grid sweep.
struct PagerCandidate {
  u64 frame_budget = 0;  // 0 = pressure-free (pager inert)
  paging::PolicyKind policy = paging::PolicyKind::kClock;
};

/// One offload operating point for the offload-mode × pager grid: the SVM
/// flow (include_dma = false, virtual addressing) or the copy-based
/// baseline in one of its copy modes (physical addressing, DMA engine +
/// offload driver elaborated).
struct OffloadCandidate {
  bool include_dma = false;
  dma::CopyMode mode = dma::CopyMode::kSgDma;
};

/// One swap I/O operating point for the swap grid: request-queue dispatch
/// policy × swap-in readahead depth.
struct SwapCandidate {
  paging::SwapSchedPolicy sched = paging::SwapSchedPolicy::kFifo;
  unsigned readahead = 0;
};

struct DseCandidate {
  unsigned tlb_entries = 0;
  /// Pager operating point this candidate was synthesized with (the
  /// platform default for plain TLB sweeps).
  u64 frame_budget = 0;
  paging::PolicyKind policy = paging::PolicyKind::kClock;
  /// Offload operating point (explore_offload_pager axis; SVM otherwise).
  bool include_dma = false;
  dma::CopyMode copy_mode = dma::CopyMode::kSgDma;
  /// Swap I/O operating point (explore_swap axis; the platform default
  /// otherwise).
  paging::SwapSchedPolicy swap_sched = paging::SwapSchedPolicy::kFifo;
  unsigned readahead = 0;
  Resources total{};
  double resource_utilization = 0.0;
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

  /// Host threads used to score candidates, on every explore_* grid. 1 (the
  /// default) evaluates on the calling thread; N > 1 fans candidates out
  /// over a worker pool.
  /// Synthesis itself stays serial (it is microseconds per candidate), and
  /// results — candidate order, every cycle count, and the chosen best
  /// point — are bit-identical to the serial sweep regardless of N.
  void set_threads(unsigned threads) noexcept { threads_ = threads == 0 ? 1 : threads; }
  unsigned threads() const noexcept { return threads_; }

  /// Sweeps `thread`'s TLB size over `entry_candidates` at the platform's
  /// configured pager operating point.
  DseResult explore_tlb(const AppSpec& app, const std::string& thread,
                        const std::vector<unsigned>& entry_candidates,
                        const Evaluator& evaluate = nullptr);

  /// Grid sweep: pager operating points × TLB sizes, all candidates
  /// synthesized serially and scored through one thread pool. Candidate
  /// order is pager-major (pager_candidates[0] × every TLB size first).
  DseResult explore_pager_tlb(const AppSpec& app, const std::string& thread,
                              const std::vector<unsigned>& entry_candidates,
                              const std::vector<PagerCandidate>& pager_candidates,
                              const Evaluator& evaluate = nullptr);

  /// Grid sweep: offload modes × pager operating points — the paper's
  /// SVM-vs-DMA axis crossed with the memory-pressure axis. DMA candidates
  /// synthesize `thread` physically addressed with the engine + driver
  /// included (the evaluator drives the copy-in/compute/copy-out flow and
  /// can read the operating point off the image); SVM candidates stay
  /// virtually addressed. Candidate order is offload-major; scoring fans
  /// out over the same thread pool, bit-identical to the serial sweep.
  DseResult explore_offload_pager(const AppSpec& app, const std::string& thread,
                                  const std::vector<OffloadCandidate>& offload_candidates,
                                  const std::vector<PagerCandidate>& pager_candidates,
                                  const Evaluator& evaluate = nullptr);

  /// Grid sweep over the shared-swap subsystem's operating points: dispatch
  /// policy × readahead depth × pager budget point, all scored through the
  /// same thread pool. Candidate order is swap-major (swap_candidates[0] ×
  /// every pager point first); results are bit-identical to the serial
  /// sweep.
  DseResult explore_swap(const AppSpec& app, const std::string& thread,
                         const std::vector<SwapCandidate>& swap_candidates,
                         const std::vector<PagerCandidate>& pager_candidates,
                         const Evaluator& evaluate = nullptr);

 private:
  PlatformSpec platform_;
  SynthesisOptions options_;
  unsigned threads_ = 1;
};

}  // namespace vmsls::sls
