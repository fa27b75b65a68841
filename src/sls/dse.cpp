#include "sls/dse.hpp"

#include <utility>

#include "util/parallel.hpp"

namespace vmsls::sls {
namespace {

template <typename T, typename Set>
DseAxis make_axis(const std::vector<T>& values, Set set) {
  DseAxis axis;
  for (const T& v : values) axis.push_back([v, set](DsePoint& p) { set(p, v); });
  return axis;
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

}  // namespace

DseAxis tlb_axis(const std::vector<unsigned>& entries) {
  return make_axis(entries, [](DsePoint& p, unsigned n) {
    const mem::TlbConfig base = p.thread->tlb_override.value_or(p.platform.default_tlb);
    p.thread->tlb_override = base.with_entries(n);
  });
}

DseAxis pager_axis(const std::vector<PagerCandidate>& points) {
  return make_axis(points, [](DsePoint& p, const PagerCandidate& pc) {
    p.platform.pager.frame_budget = pc.frame_budget;
    p.platform.pager.policy = pc.policy;
  });
}

DseAxis offload_axis(const std::vector<OffloadCandidate>& points) {
  return make_axis(points, [](DsePoint& p, const OffloadCandidate& oc) {
    p.thread->addressing = oc.include_dma ? Addressing::kPhysical : Addressing::kVirtual;
    p.options.include_dma = oc.include_dma;
    p.platform.offload.mode = oc.mode;
  });
}

DseAxis swap_axis(const std::vector<SwapCandidate>& points) {
  return make_axis(points, [](DsePoint& p, const SwapCandidate& sc) {
    p.platform.pager.swap.sched = sc.sched;
    p.platform.pager.swap.readahead = sc.readahead;
  });
}

DesignSpaceExplorer::DesignSpaceExplorer(PlatformSpec platform, SynthesisOptions options)
    : platform_(std::move(platform)), options_(options) {
  // Infeasible candidates are data points, not errors, during exploration.
  options_.strict_budget = false;
}

/// Phase 1 (serial) walks the cartesian product of `axes`, first axis
/// outermost, and synthesizes every point with its own flow:
/// host-microseconds per point, and the flow's passes are const over its
/// platform and options, so this equals a flow shared across points.
/// Phase 2 (parallel) scores the fitting candidates. Every candidate
/// elaborates onto its own Simulator inside `evaluate`, so workers share
/// nothing; each writes only its own candidate, and the result is
/// byte-identical to the serial sweep whatever the thread count.
DseResult DesignSpaceExplorer::explore(const AppSpec& app, const std::string& thread,
                                       const std::vector<DseAxis>& axes,
                                       const Evaluator& evaluate) {
  std::size_t points = 1;
  for (const DseAxis& axis : axes) {
    require(!axis.empty(), "DSE needs at least one candidate per axis");
    points *= axis.size();
  }
  // Throws for unknown thread names.
  const auto target = static_cast<std::size_t>(&app.thread(thread) - app.threads.data());

  DseResult result;
  result.candidates.reserve(points);
  std::vector<std::size_t> at(axes.size(), 0);  // odometer, last axis fastest
  for (std::size_t n = 0; n < points; ++n) {
    DsePoint p{platform_, app, options_, nullptr};
    p.thread = &p.app.threads[target];
    for (std::size_t a = 0; a < axes.size(); ++a) axes[a][at[a]](p);
    DseCandidate c;
    c.tlb_entries = p.thread->tlb_override ? p.thread->tlb_override->entries : 0;
    c.image = SynthesisFlow(std::move(p.platform), p.options).synthesize(p.app);
    c.fits = c.image.report().fits_budget;
    result.candidates.push_back(std::move(c));
    for (std::size_t a = axes.size(); a-- > 0 && ++at[a] == axes[a].size();) at[a] = 0;
  }

  if (evaluate) {
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < result.candidates.size(); ++i)
      if (result.candidates[i].fits) work.push_back(i);
    parallel_for(threads_, work.size(), [&](std::size_t j) {
      DseCandidate& c = result.candidates[work[j]];
      c.cycles = evaluate(c.image);
      c.measured = true;
    });
  }
  result.best = pick_best(result.candidates);
  return result;
}

}  // namespace vmsls::sls
