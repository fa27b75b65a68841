#include "sls/dse.hpp"

#include <utility>

#include "util/parallel.hpp"

namespace vmsls::sls {
namespace {

/// One grid point while its axes' mutators build it; `thread` points at the
/// explored thread inside `app`.
struct Point {
  PlatformSpec platform;
  AppSpec app;
  SynthesisOptions options;
  DseCandidate candidate;
  ThreadSpec* thread = nullptr;
};

/// One grid axis: each mutator sets this axis's fields of a point.
using Axis = std::vector<std::function<void(Point&)>>;

template <typename T, typename Set>
Axis make_axis(const std::vector<T>& values, Set set) {
  Axis axis;
  for (const T& v : values) axis.push_back([v, set](Point& p) { set(p, v); });
  return axis;
}

Axis pager_axis(const std::vector<PagerCandidate>& pagers) {
  return make_axis(pagers, [](Point& p, const PagerCandidate& pc) {
    p.platform.pager.frame_budget = p.candidate.frame_budget = pc.frame_budget;
    p.platform.pager.policy = p.candidate.policy = pc.policy;
  });
}

/// The fastest fitting candidate when measured, otherwise the largest
/// fitting TLB; -1 if nothing fits.
int pick_best(const std::vector<DseCandidate>& candidates) {
  int best = -1;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const DseCandidate& c = candidates[i];
    if (!c.fits) continue;
    const DseCandidate* b = best < 0 ? nullptr : &candidates[static_cast<std::size_t>(best)];
    if (!b || (c.measured ? c.cycles < b->cycles : c.tlb_entries > b->tlb_entries))
      best = static_cast<int>(i);
  }
  return best;
}

/// The one explorer loop. Phase 1 (serial) walks the cartesian product of
/// `axes`, first axis outermost, and synthesizes every point with its own
/// flow: host-microseconds per point, and the flow's passes are const over
/// its platform and options, so this equals a flow shared across points.
/// Phase 2 (parallel) scores the fitting candidates. Every candidate
/// elaborates onto its own Simulator inside `evaluate`, so workers share
/// nothing; each writes only its own slot, and the result is byte-identical
/// to the serial sweep whatever the thread count.
DseResult explore_grid(const PlatformSpec& platform, const SynthesisOptions& options,
                       unsigned threads, const AppSpec& app, const std::string& thread,
                       const std::vector<Axis>& axes,
                       const DesignSpaceExplorer::Evaluator& evaluate) {
  std::size_t points = 1;
  for (const Axis& axis : axes) {
    require(!axis.empty(), "DSE needs at least one candidate per axis");
    points *= axis.size();
  }
  // Throws for unknown thread names.
  const auto target = static_cast<std::size_t>(&app.thread(thread) - app.threads.data());

  DseResult result;
  std::vector<SystemImage> images;
  images.reserve(points);
  std::vector<std::size_t> at(axes.size(), 0);  // odometer, last axis fastest
  for (std::size_t n = 0; n < points; ++n) {
    Point p{platform, app, options, {}, nullptr};
    p.thread = &p.app.threads[target];
    for (std::size_t a = 0; a < axes.size(); ++a) axes[a][at[a]](p);
    images.push_back(SynthesisFlow(std::move(p.platform), p.options).synthesize(p.app));
    const SynthesisReport& report = images.back().report();
    p.candidate.total = report.total;
    p.candidate.resource_utilization = report.utilization;
    p.candidate.fits = report.fits_budget;
    result.candidates.push_back(p.candidate);
    for (std::size_t a = axes.size(); a-- > 0 && ++at[a] == axes[a].size();) at[a] = 0;
  }

  if (evaluate) {
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < result.candidates.size(); ++i)
      if (result.candidates[i].fits) work.push_back(i);
    parallel_for(threads, work.size(), [&](std::size_t j) {
      DseCandidate& c = result.candidates[work[j]];
      c.cycles = evaluate(images[work[j]]);
      c.measured = true;
    });
  }
  result.best = pick_best(result.candidates);
  return result;
}

}  // namespace

DesignSpaceExplorer::DesignSpaceExplorer(PlatformSpec platform, SynthesisOptions options)
    : platform_(std::move(platform)), options_(options) {
  // Infeasible candidates are data points, not errors, during exploration.
  options_.strict_budget = false;
}

DseResult DesignSpaceExplorer::explore_tlb(const AppSpec& app, const std::string& thread,
                                           const std::vector<unsigned>& entry_candidates,
                                           const Evaluator& evaluate) {
  // A single pager point — the platform's configured operating point — so
  // this stays the plain TLB sweep it always was.
  const PagerCandidate base{platform_.pager.frame_budget, platform_.pager.policy};
  return explore_pager_tlb(app, thread, entry_candidates, {base}, evaluate);
}

DseResult DesignSpaceExplorer::explore_pager_tlb(const AppSpec& app, const std::string& thread,
                                                 const std::vector<unsigned>& entry_candidates,
                                                 const std::vector<PagerCandidate>& pager_candidates,
                                                 const Evaluator& evaluate) {
  const mem::TlbConfig base = app.thread(thread).tlb_override.value_or(platform_.default_tlb);
  std::vector<mem::TlbConfig> tlbs;
  for (unsigned entries : entry_candidates) tlbs.push_back(base.with_entries(entries));
  const Axis tlb_axis = make_axis(tlbs, [](Point& p, const mem::TlbConfig& tlb) {
    p.thread->tlb_override = tlb;
    p.candidate.tlb_entries = tlb.entries;
  });
  return explore_grid(platform_, options_, threads_, app, thread,
                      {pager_axis(pager_candidates), tlb_axis}, evaluate);
}

DseResult DesignSpaceExplorer::explore_offload_pager(
    const AppSpec& app, const std::string& thread,
    const std::vector<OffloadCandidate>& offload_candidates,
    const std::vector<PagerCandidate>& pager_candidates, const Evaluator& evaluate) {
  // A DMA point runs the kernel against physical addresses (the copy-based
  // flow), so the target thread's addressing flips per offload candidate.
  const auto set_offload = [](Point& p, const OffloadCandidate& oc) {
    p.thread->addressing = oc.include_dma ? Addressing::kPhysical : Addressing::kVirtual;
    p.options.include_dma = p.candidate.include_dma = oc.include_dma;
    p.platform.offload.mode = p.candidate.copy_mode = oc.mode;
  };
  return explore_grid(platform_, options_, threads_, app, thread,
                      {make_axis(offload_candidates, set_offload), pager_axis(pager_candidates)},
                      evaluate);
}

DseResult DesignSpaceExplorer::explore_swap(const AppSpec& app, const std::string& thread,
                                            const std::vector<SwapCandidate>& swap_candidates,
                                            const std::vector<PagerCandidate>& pager_candidates,
                                            const Evaluator& evaluate) {
  // The swap knobs are runtime configuration, not fabric, so every point
  // shares one resource shape but elaborates with its own scheduler policy
  // and readahead depth for scoring.
  const Axis swap_axis = make_axis(swap_candidates, [](Point& p, const SwapCandidate& sc) {
    p.platform.pager.swap.sched = p.candidate.swap_sched = sc.sched;
    p.platform.pager.swap.readahead = p.candidate.readahead = sc.readahead;
  });
  return explore_grid(platform_, options_, threads_, app, thread,
                      {swap_axis, pager_axis(pager_candidates)}, evaluate);
}

}  // namespace vmsls::sls
