#include "sls/dse.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace vmsls::sls {

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
  PagerCandidate base;
  base.frame_budget = platform_.pager.frame_budget;
  base.policy = platform_.pager.policy;
  return explore_pager_tlb(app, thread, entry_candidates, {base}, evaluate);
}

DseResult DesignSpaceExplorer::explore_pager_tlb(const AppSpec& app, const std::string& thread,
                                                 const std::vector<unsigned>& entry_candidates,
                                                 const std::vector<PagerCandidate>& pager_candidates,
                                                 const Evaluator& evaluate) {
  require(!entry_candidates.empty(), "DSE needs at least one TLB candidate");
  for (unsigned entries : entry_candidates)
    require(entries > 0, "DSE TLB candidates need at least one entry");
  require(!pager_candidates.empty(), "DSE needs at least one pager candidate");
  app.thread(thread);  // throws for unknown thread names

  DseResult result;

  // Phase 1 (serial): synthesize every grid point. This is host-microseconds
  // per point; keeping it on one thread keeps SynthesisFlow single-threaded.
  std::vector<SystemImage> images;
  images.reserve(entry_candidates.size() * pager_candidates.size());
  for (const PagerCandidate& pc : pager_candidates) {
    PlatformSpec plat = platform_;
    plat.pager.frame_budget = pc.frame_budget;
    plat.pager.policy = pc.policy;
    SynthesisFlow flow(plat, options_);
    for (unsigned entries : entry_candidates) {
      AppSpec variant = app;
      for (auto& t : variant.threads) {
        if (t.name != thread) continue;
        mem::TlbConfig tlb = t.tlb_override.value_or(platform_.default_tlb);
        tlb.entries = entries;
        tlb.ways = std::min(tlb.ways, entries);
        while (entries % tlb.ways != 0) tlb.ways /= 2;  // keep geometry legal
        t.tlb_override = tlb;
      }

      images.push_back(flow.synthesize(variant));
      DseCandidate cand;
      cand.tlb_entries = entries;
      cand.frame_budget = pc.frame_budget;
      cand.policy = pc.policy;
      cand.total = images.back().report().total;
      cand.resource_utilization = images.back().report().utilization;
      cand.fits = images.back().report().fits_budget;
      result.candidates.push_back(cand);
    }
  }

  score(images, result, evaluate);
  pick_best(result);
  return result;
}

DseResult DesignSpaceExplorer::explore_offload_pager(
    const AppSpec& app, const std::string& thread,
    const std::vector<OffloadCandidate>& offload_candidates,
    const std::vector<PagerCandidate>& pager_candidates, const Evaluator& evaluate) {
  require(!offload_candidates.empty(), "DSE needs at least one offload candidate");
  require(!pager_candidates.empty(), "DSE needs at least one pager candidate");
  app.thread(thread);  // throws for unknown thread names

  DseResult result;

  // Phase 1 (serial): synthesize the offload × pager grid. A DMA point
  // runs the kernel against physical addresses (the copy-based flow), so
  // the target thread's addressing flips per offload candidate.
  std::vector<SystemImage> images;
  images.reserve(offload_candidates.size() * pager_candidates.size());
  for (const OffloadCandidate& oc : offload_candidates) {
    AppSpec variant = app;
    for (auto& t : variant.threads) {
      if (t.name != thread) continue;
      t.addressing = oc.include_dma ? Addressing::kPhysical : Addressing::kVirtual;
    }
    SynthesisOptions opts = options_;
    opts.include_dma = oc.include_dma;
    for (const PagerCandidate& pc : pager_candidates) {
      PlatformSpec plat = platform_;
      plat.pager.frame_budget = pc.frame_budget;
      plat.pager.policy = pc.policy;
      plat.offload.mode = oc.mode;
      SynthesisFlow flow(plat, opts);

      images.push_back(flow.synthesize(variant));
      DseCandidate cand;
      cand.frame_budget = pc.frame_budget;
      cand.policy = pc.policy;
      cand.include_dma = oc.include_dma;
      cand.copy_mode = oc.mode;
      cand.total = images.back().report().total;
      cand.resource_utilization = images.back().report().utilization;
      cand.fits = images.back().report().fits_budget;
      result.candidates.push_back(cand);
    }
  }

  score(images, result, evaluate);
  pick_best(result);
  return result;
}

DseResult DesignSpaceExplorer::explore_swap(const AppSpec& app, const std::string& thread,
                                            const std::vector<SwapCandidate>& swap_candidates,
                                            const std::vector<PagerCandidate>& pager_candidates,
                                            const Evaluator& evaluate) {
  require(!swap_candidates.empty(), "DSE needs at least one swap candidate");
  require(!pager_candidates.empty(), "DSE needs at least one pager candidate");
  app.thread(thread);  // throws for unknown thread names

  DseResult result;

  // Phase 1 (serial): synthesize the swap × pager grid. The swap knobs are
  // runtime configuration, not fabric, so every point reuses the same
  // resource shape — but each still elaborates with its own scheduler
  // policy and readahead depth for scoring.
  std::vector<SystemImage> images;
  images.reserve(swap_candidates.size() * pager_candidates.size());
  for (const SwapCandidate& sc : swap_candidates) {
    for (const PagerCandidate& pc : pager_candidates) {
      PlatformSpec plat = platform_;
      plat.pager.frame_budget = pc.frame_budget;
      plat.pager.policy = pc.policy;
      plat.pager.swap.sched = sc.sched;
      plat.pager.swap.readahead = sc.readahead;
      SynthesisFlow flow(plat, options_);

      images.push_back(flow.synthesize(app));
      DseCandidate cand;
      cand.frame_budget = pc.frame_budget;
      cand.policy = pc.policy;
      cand.swap_sched = sc.sched;
      cand.readahead = sc.readahead;
      cand.total = images.back().report().total;
      cand.resource_utilization = images.back().report().utilization;
      cand.fits = images.back().report().fits_budget;
      result.candidates.push_back(cand);
    }
  }

  score(images, result, evaluate);
  pick_best(result);
  return result;
}

void DesignSpaceExplorer::pick_best(DseResult& result) {
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const auto& c = result.candidates[i];
    if (!c.fits) continue;
    if (result.best < 0) {
      result.best = static_cast<int>(i);
      continue;
    }
    const auto& b = result.candidates[static_cast<std::size_t>(result.best)];
    const bool better = c.measured ? (c.cycles < b.cycles) : (c.tlb_entries > b.tlb_entries);
    if (better) result.best = static_cast<int>(i);
  }
}

// Phase 2 (parallel): score the fitting candidates. Every candidate
// elaborates onto its own Simulator inside `evaluate`, so workers share
// nothing; each writes only its own slot, and the result vector is
// byte-identical to the serial sweep whatever the thread count.
void DesignSpaceExplorer::score(std::vector<SystemImage>& images, DseResult& result,
                                const Evaluator& evaluate) {
  if (!evaluate) return;
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < result.candidates.size(); ++i)
    if (result.candidates[i].fits) work.push_back(i);

  parallel_for(threads_, work.size(), [&](std::size_t j) {
    const std::size_t i = work[j];
    result.candidates[i].cycles = evaluate(images[i]);
    result.candidates[i].measured = true;
  });
}

}  // namespace vmsls::sls
