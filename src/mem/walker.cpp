#include "mem/walker.hpp"

#include <utility>

namespace vmsls::mem {

PageWalker::PageWalker(sim::Simulator& sim, MemoryBus& bus, PhysicalMemory& pm,
                       const PageTable& pt, const WalkerConfig& cfg, std::string name)
    : sim_(sim),
      bus_(bus),
      pm_(pm),
      pt_(pt),
      cfg_(cfg),
      name_(std::move(name)),
      cache_(1, cfg.walk_cache_entries),
      walks_(sim.stats().counter(name_ + ".walks")),
      faults_(sim.stats().counter(name_ + ".faults")),
      mem_reads_(sim.stats().counter(name_ + ".mem_reads")),
      ad_writebacks_(sim.stats().counter(name_ + ".ad_writebacks")),
      cache_hits_(sim.stats().counter(name_ + ".cache_hits")),
      cache_misses_(sim.stats().counter(name_ + ".cache_misses")),
      walk_latency_(sim.stats().histogram(name_ + ".walk_latency")),
      queue_wait_(sim.stats().histogram(name_ + ".queue_wait")) {
  require(cfg.ports > 0, "walker needs at least one port");
}

u64 PageWalker::cache_tag(VirtAddr va) const noexcept {
  return va >> (pt_.config().page_bits + pt_.index_bits());
}

void PageWalker::flush_cache() { cache_.clear(); }

void PageWalker::note_ad_update(VirtAddr va, bool dirty) {
  auto leaf = pt_.leaf(va);
  if (!leaf || !leaf->pte.valid || !pt_.set_accessed_dirty(*leaf, dirty))
    return;  // unmapped, or no bit flipped: free
  ad_writebacks_.add();
  bus_.request(leaf->addr, 8, /*is_write=*/true, nullptr);  // posted
}

void PageWalker::walk(VirtAddr va, sim::Callback<const WalkResult&> done, bool tail_call) {
  Walk* w = walk_pool_.acquire();
  w->va = va;
  w->done = std::move(done);
  w->enqueued = sim_.now();
  if (active_ < cfg_.ports && queue_.empty()) {
    begin(w, tail_call);
    return;
  }
  queue_.push_back(w);
  try_start();
}

void PageWalker::try_start() {
  // More work follows each begin in this loop, so none may run ahead.
  while (active_ < cfg_.ports && !queue_.empty()) begin(queue_.pop_front(), false);
}

void PageWalker::begin(Walk* w, bool run_ahead) {
  ++active_;
  queue_wait_.record(sim_.now() - w->enqueued);
  walks_.add();
  w->started = sim_.now();

  const auto* cached = walk_cache_on() ? cache_.find(cache_tag(w->va)) : nullptr;
  if (cached != nullptr) {
    cache_hits_.add();
    w->level = pt_.levels() - 1;
    w->base = cached->payload;
  } else {
    if (walk_cache_on()) cache_misses_.add();
    w->level = 0;
    w->base = pt_.root_addr();
  }
  const Cycles at = sim_.now() + cfg_.setup_latency;
  if (run_ahead && sim_.try_advance_to(at))
    read_level(w);
  else
    sim_.schedule_run_ahead(at, [this, w] { read_level(w); });
}

void PageWalker::read_level(Walk* w) {
  const PhysAddr pa = pt_.pte_addr(w->base, w->level, w->va);
  mem_reads_.add();
  bus_.request(pa, 8, /*is_write=*/false, [this, w, pa] { on_pte(w, pm_.read_u64(pa)); },
               /*tail_call=*/true);
}

void PageWalker::on_pte(Walk* w, u64 raw) {
  const Pte pte = Pte::decode(raw);
  if (!pte.valid) {
    WalkResult r;
    r.fault = true;
    r.fault_level = w->level;
    finish(w, r);
    return;
  }
  if (w->level + 1 == pt_.levels()) {
    // Leaf. The walker sets the accessed bit on fill — the hardware side of
    // the contract the replacement policies consume — and charges the PTE
    // write-back when the bit flips. `raw` is that leaf PTE, so when A is
    // already set the funnel would change nothing: skip its re-resolve.
    if (!pte.accessed) note_ad_update(w->va, /*dirty=*/false);
    // Remember the table it lives in for subsequent same-region walks.
    if (walk_cache_on()) cache_.place(cache_tag(w->va), w->base);
    WalkResult r;
    r.frame = pte.frame;
    r.writable = pte.writable;
    finish(w, r);
    return;
  }
  w->base = pt_.page_bytes() * pte.frame;
  ++w->level;
  read_level(w);
}

void PageWalker::finish(Walk* w, const WalkResult& r) {
  if (r.fault) faults_.add();
  walk_latency_.record(sim_.now() - w->started);
  --active_;
  auto done = std::move(w->done);
  walk_pool_.release(w);  // recycle before the continuation starts new walks
  if (queue_.empty()) {
    done(r);  // a tail call: it may run ahead
    return;
  }
  // The front waiter starts this cycle, after `done`, so `done` must not
  // run ahead.
  sim_.forgo_run_ahead();
  done(r);
  try_start();
}

}  // namespace vmsls::mem
