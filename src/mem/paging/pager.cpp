#include "mem/paging/pager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rt/os.hpp"
#include "rt/process.hpp"
#include "util/log.hpp"

namespace vmsls::paging {

Pager::Pager(sim::Simulator& sim, rt::Process& process, const PagerConfig& cfg, std::string name,
             SwapScheduler* shared_swap, BufferCache* shared_bcache)
    : sim_(sim),
      process_(process),
      as_(process.address_space()),
      cfg_(cfg),
      name_(std::move(name)),
      policy_(make_policy(
          cfg.policy, [this](u64 vpn) { return probe_accessed(vpn); }, cfg.policy_seed)),
      evictions_(sim.stats().counter(name_ + ".evictions")),
      swap_ins_(sim.stats().counter(name_ + ".swap_ins")),
      file_reads_(sim.stats().counter(name_ + ".file_reads")),
      file_drops_(sim.stats().counter(name_ + ".file_drops")),
      file_writebacks_(sim.stats().counter(name_ + ".file_writebacks")),
      zero_fills_(sim.stats().counter(name_ + ".zero_fills")),
      share_hits_(sim.stats().counter(name_ + ".share_hits")),
      inherited_fills_(sim.stats().counter(name_ + ".inherited_fills")),
      cow_copies_(sim.stats().counter(name_ + ".cow_copies")),
      cow_upgrades_(sim.stats().counter(name_ + ".cow_upgrades")),
      shared_releases_(sim.stats().counter(name_ + ".shared_releases")),
      swap_releases_(sim.stats().counter(name_ + ".swap_releases")),
      writebacks_(sim.stats().counter(name_ + ".writebacks")),
      reclaims_(sim.stats().counter(name_ + ".reclaims")),
      pageouts_(sim.stats().counter(name_ + ".pageouts")),
      ws_sweeps_(sim.stats().counter(name_ + ".ws_sweeps")),
      prefetches_(sim.stats().counter(name_ + ".prefetches")),
      prefetch_useful_(sim.stats().counter(name_ + ".prefetch_useful")),
      prefetch_wasted_(sim.stats().counter(name_ + ".prefetch_wasted")),
      prefetch_late_(sim.stats().counter(name_ + ".prefetch_late")),
      fault_stall_(sim.stats().histogram(name_ + ".fault_stall")),
      ws_hist_(sim.stats().histogram(name_ + ".ws_pages")) {
  trace_track_ = sim_.trace().track(name_);
  if (shared_swap != nullptr) {
    require(shared_swap->config().read_latency == cfg_.swap.read_latency &&
                shared_swap->config().write_latency == cfg_.swap.write_latency,
            name_ + ": shared swap device timing disagrees with this pager's swap config");
    sched_ = shared_swap;
  } else {
    owned_swap_ = std::make_unique<SwapScheduler>(sim, cfg_.swap, as_.page_bytes(),
                                                  name_ + ".swap");
    sched_ = owned_swap_.get();
  }
  swap_owner_ = sched_->register_owner(name_);
  if (shared_bcache != nullptr) {
    bcache_ = shared_bcache;
  } else {
    owned_bcache_ =
        std::make_unique<BufferCache>(sim, cfg_.bcache, as_.page_bytes(), name_ + ".bcache");
    bcache_ = owned_bcache_.get();
  }
  bcache_client_ = bcache_->register_client(name_);
  page_bits_ = as_.page_table().config().page_bits;
  track_ws_ = cfg_.ws_interval > 0;
  policy_->set_pinned_probe([this](u64 vpn) { return as_.is_pinned_vpn(vpn); });
  policy_->set_speculative_probe([this](u64 vpn) { return is_speculative(vpn); },
                                 [this] { return !speculative_.empty(); });
  as_.set_residency_observer(this);
  as_.set_reclaim_hook([this](u64 pages) { return reclaim(pages); });
  // Pages already resident when the pager attaches (pinned buffers mapped at
  // elaboration) enter policy tracking so they are evictable under pressure.
  as_.for_each_resident([this](u64 vpn) { policy_->on_insert(vpn); });
}

Pager::~Pager() {
  if (pool_) pool_->detach(*this);
  as_.set_residency_observer(nullptr);
  as_.set_reclaim_hook(nullptr);
}

void Pager::on_map(u64 vpn, u64 frame) {
  if (pending_maps_.erase(vpn) > 0 && pool_) pool_->note_pending(-1);
  policy_->on_insert(vpn);
  if (track_ws_) ws_last_ref_[vpn] = sim_.now();  // a fresh mapping is a reference
  if (pool_) pool_->note_map(*this, vpn, frame);
  note_activity();
}

void Pager::on_unmap(u64 vpn, bool dirty, u64 frame, u64 sharers_left) {
  policy_->on_remove(vpn);
  if (track_ws_) ws_last_ref_.erase(vpn);
  // An external unmap (experiment-setup eviction) of a speculative page is
  // wasted work; the pager's own evictions settle the flag beforehand with
  // the accessed bit still readable.
  if (speculative_.erase(vpn) > 0) prefetch_wasted_.add();
  // Lifecycle fork — each unmap lands in exactly ONE bucket, whoever
  // initiated it (own eviction loop, pool global sweep, emergency reclaim,
  // experiment-setup evictions), so the buckets partition all eviction
  // traffic and a frame unmapped by N sharers contributes N bucket entries,
  // never more (the double-count audit this ledger encodes). Anonymous
  // pages — and private file pages once they hold a diverged copy in the
  // backing store — live in swap: the page gets a slot and every refault
  // pays a swap-in (`swap_releases`). File pages whose truth is the file
  // get no slot: dirty shared ones write back through the buffer cache
  // (bookkeeping now, device time absorbed in the background; concurrent
  // sharers' writebacks of one block dedup into a single device write
  // inside the cache — "exactly one writeback" per shared frame), clean
  // ones whose frame other sharers still hold release for free
  // (`shared_releases`), and the last clean mapping drops the frame
  // (`file_drops`).
  const auto fp = as_.file_page(vpn);
  if (!fp || (!fp->shared && as_.has_backing(vpn))) {
    swap_releases_.add();
    sched_->note_swapped(swap_owner_, vpn);
  } else if (fp->shared && dirty) {
    file_writebacks_.add();
    bcache_->write(bcache_client_, fp->file->id(), fp->block, VMSLS_TRACE_NEW_ID(sim_.trace()));
  } else if (fp->shared && sharers_left > 0) {
    shared_releases_.add();
  } else {
    file_drops_.add();
  }
  if (pool_) pool_->note_unmap(*this, vpn, frame);
  note_activity();
}

void Pager::on_cow(u64 vpn, u64 old_frame, u64 new_frame) {
  if (pending_maps_.erase(vpn) > 0 && pool_) pool_->note_pending(-1);
  // The page never left residency — own-policy tracking (vpn-keyed) and the
  // WS clock are untouched; only the pool's frame-keyed owner-set moves.
  if (pool_) pool_->note_cow(*this, vpn, old_frame, new_frame);
  note_activity();
}

bool Pager::page_dirty(u64 vpn) const {
  const auto pte = as_.page_table().lookup(vpn << page_bits());
  return pte && pte->dirty;
}

bool Pager::probe_accessed(u64 vpn) {
  // Every consumer of the accessed bit funnels through here — the pager's
  // own policy, the pool's global sweep, and the WS estimator — so a
  // reference consumed by one is still credited to the working-set clock.
  // (The bit is a single hardware resource; without this the estimator
  // undercounts exactly when eviction sweeps run hottest.)
  if (!as_.page_table().test_and_clear_accessed(vpn << page_bits())) return false;
  if (track_ws_) ws_last_ref_[vpn] = sim_.now();
  // A referenced readahead landing graduates to a real resident page: the
  // prediction was right.
  if (speculative_.erase(vpn) > 0) prefetch_useful_.add();
  return true;
}

void Pager::settle_speculative(u64 vpn) {
  auto it = speculative_.find(vpn);
  if (it == speculative_.end()) return;
  speculative_.erase(it);
  // The accessed bit is the page's last word: set means the prefetch was
  // used (just never swept), clear means it truly was wrong-path.
  if (as_.page_table().test_and_clear_accessed(vpn << page_bits()))
    prefetch_useful_.add();
  else
    prefetch_wasted_.add();
}

void Pager::evict_resident(u64 vpn) {
  // Pinned pages back in-flight DMA and committed bus transactions; every
  // victim-selection path (own policy, pool sweep, reclaim) must have
  // filtered them out. Evicting one would retarget the frame mid-transfer.
  if (as_.is_pinned_vpn(vpn))
    throw std::invalid_argument(name_ + ": pinned page selected as eviction victim");
  settle_speculative(vpn);
  process_.evict(vpn << page_bits(), 1);  // shoots down TLBs + flushes walk caches
  evictions_.add();
  VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "shootdown", 0, vpn);
}

u64 Pager::pin_quota() const noexcept {
  // The quota floors at 1: a transfer must be able to pin at least one
  // page to make progress, so at degenerate budgets (1 frame per process,
  // or a global budget at or below the member count) pins may consume the
  // whole budget and the one-frame headroom lapses. Victim selection then
  // finds no candidate and the fault path proceeds over budget — graceful
  // degradation, bounded by the floor, in configurations too small to
  // page in anyway.
  if (pool_ != nullptr && cfg_.budget_mode == BudgetMode::kGlobal) {
    // The machine-wide budget is shared: every member process may host an
    // offload driver pinning against it, and the drivers admit
    // independently, so each gets an equal slice with one frame of
    // headroom.
    const u64 budget = pool_->budget();
    if (budget == 0) return 0;
    const u64 share = budget / std::max<u64>(1, pool_->members());
    return share > 1 ? share - 1 : 1;
  }
  const u64 budget = cfg_.frame_budget;
  if (budget == 0) return 0;
  return budget > 1 ? budget - 1 : 1;
}

void Pager::ensure_frame_available(u64 trace_id, sim::EventFn then) {
  // Clean victims evict in a plain loop; a dirty victim suspends the loop
  // until its writeback completes on the device port (the callback arrives
  // on a fresh stack from the event loop, so eviction bursts of any size
  // are stack-safe).
  // Frames reserved by not-yet-mapped faults count against the budget, or
  // two in-flight faults would double-spend one freed frame.
  if (pool_ != nullptr && cfg_.budget_mode == BudgetMode::kGlobal) {
    // Machine-wide budget: the pool's global sweep nominates victim
    // *frames*, which may be shared — eviction fans out one shootdown per
    // sharer (each through its owner's Process, preserving that process's
    // shootdown invariants) but frees exactly one frame and counts as one
    // pool eviction. Dirty swap-lifecycle sharers each absorb a writeback
    // on their own swap front end; this pager's fault merely waits for the
    // frame, resuming once the *last* of those writebacks lands.
    while (pool_->over_budget()) {
      const auto victim = pool_->pick_victim();
      if (!victim) break;
      struct SwapWb {
        Pager* owner;
        u64 vpn;
      };
      std::vector<SwapWb> swap_wbs;
      bool cross = false;
      for (const auto& [owner, svpn] : victim->sharers) {
        // Lifecycle must be read *before* the eviction invalidates the PTE.
        // Dirty *shared-file* sharers write back through the buffer cache
        // inside on_unmap and never block — only dirty swap-lifecycle pages
        // suspend this loop on the device port.
        const bool dirty = owner->page_dirty(svpn);
        const auto vfp = owner->as_.file_page(svpn);
        log_debug(name_, "global evict ", owner->name_, " vpn=0x", std::hex, svpn,
                  dirty ? " (dirty)" : " (clean)");
        if (owner != this) cross = true;
        owner->evict_resident(svpn);
        if (dirty && (!vfp || !vfp->shared)) swap_wbs.push_back({owner, svpn});
      }
      pool_->record_eviction(*this, cross, trace_id);
      if (!swap_wbs.empty()) {
        // Barrier over the sharers' writebacks: the loop resumes on a fresh
        // stack when the last one completes.
        auto remaining = std::make_shared<u64>(swap_wbs.size());
        auto resume = std::make_shared<sim::EventFn>(std::move(then));
        for (const auto& wb : swap_wbs) {
          wb.owner->writebacks_.add();
          const u64 wid = VMSLS_TRACE_NEW_ID(sim_.trace());
          wb.owner->sched_->write(wb.owner->swap_owner_, wb.vpn, SwapReqClass::kDemandWrite,
                                  [this, trace_id, remaining, resume]() mutable {
                                    if (--*remaining == 0)
                                      ensure_frame_available(trace_id, std::move(*resume));
                                  },
                                  wid);
        }
        return;
      }
    }
    then();
    return;
  }
  while (cfg_.frame_budget != 0 &&
         as_.resident_pages() + pending_maps_.size() > cfg_.frame_budget) {
    const auto victim = policy_->pick_victim();
    if (!victim) break;
    const bool dirty = page_dirty(*victim);
    const auto vfp = as_.file_page(*victim);
    const bool swap_wb = dirty && (!vfp || !vfp->shared);
    log_debug(name_, "evict vpn=0x", std::hex, *victim, dirty ? " (dirty)" : " (clean)");
    evict_resident(*victim);
    if (swap_wb) {
      writebacks_.add();
      const u64 wid = VMSLS_TRACE_NEW_ID(sim_.trace());
      sched_->write(swap_owner_, *victim, SwapReqClass::kDemandWrite,
                    [this, trace_id, then = std::move(then)]() mutable {
                      ensure_frame_available(trace_id, std::move(then));
                    },
                    wid);
      return;
    }
  }
  then();
}

void Pager::complete_fault(u64 vpn, Cycles start, sim::EventFn& ready) {
  InflightFault& entry = inflight_faults_[vpn];
  const u64 fid = entry.trace_id;
  auto waiters = std::move(entry.waiters);
  inflight_faults_.erase(vpn);
  fault_stall_.record(sim_.now() - start);
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "fault", fid, vpn);
  ready();
  for (auto& w : waiters) w();
}

void Pager::handle_fault(VirtAddr va, bool is_write, sim::EventFn ready) {
  note_activity();
  const Cycles start = sim_.now();
  const u64 vpn = va >> page_bits();
  if (as_.is_mapped(va)) {
    // A write against a resident read-only page is a COW (or write-upgrade)
    // fault, not a spurious retry — it has its own service path.
    if (is_write) {
      if (const auto pte = as_.page_table().lookup(va); pte && !pte->writable) {
        handle_cow_fault(va, vpn, start, std::move(ready));
        return;
      }
    }
    // A concurrent fault on the same page already completed: no frame and
    // no swap-in needed — and crucially no victim eviction either.
    fault_stall_.record(0);
    ready();
    return;
  }
  ++faults_since_sweep_;
  if (auto it = inflight_faults_.find(vpn); it != inflight_faults_.end()) {
    // A fault on this page is already securing a frame — possibly suspended
    // mid-eviction on an async dirty writeback — or mid swap-in; or a
    // prefetch read for the page is in flight. Coalesce before any budget
    // work: this fault consumes no frame of its own and must not issue a
    // second device read (the double swap-in race).
    if (inflight_prefetch_.count(vpn) != 0) {
      // Late exactly once per prefetched page, however many faults pile
      // onto it — the accuracy ratio divides by prefetches issued.
      if (it->second.waiters.empty()) prefetch_late_.add();
      // If the prefetch read is still queued, it now blocks a real thread:
      // upgrade it to demand class so priority dispatch stops bypassing it.
      sched_->promote(swap_owner_, vpn);
    }
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "coalesce", it->second.trace_id, vpn);
    it->second.waiters.push_back([this, ready = std::move(ready), start]() mutable {
      fault_stall_.record(sim_.now() - start);
      ready();
    });
    return;
  }
  // One causal id per primary fault, threaded through frame reservation,
  // victim eviction, the swap queue, and the device transfer — so the
  // "fault" span decomposes exactly into "evict" + "queue" + "io".
  const u64 fid = VMSLS_TRACE_NEW_ID(sim_.trace());
  inflight_faults_.emplace(vpn, InflightFault{fid, {}});
  // The vpn can already be pending: a prior fault's `ready` fired (erasing
  // its inflight entry) but the OS tail has not mapped the page yet. The
  // reservation is then already counted — don't count it twice.
  if (pending_maps_.insert(vpn).second && pool_) pool_->note_pending(+1);
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "fault", fid, vpn);
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "evict", fid, vpn);
  ensure_frame_available(fid, [this, va, vpn, fid, ready = std::move(ready), start]() mutable {
    VMSLS_TRACE_END(sim_.trace(), trace_track_, "evict", fid, vpn);
    // A concurrent fault may have brought the page in already — don't pay
    // (or serialize on) a second device read for a resident page.
    if (!as_.is_mapped(va) && sched_->holds(swap_owner_, vpn)) {
      swap_ins_.add();
      // The demand read and its readahead enqueue atomically, so they
      // dispatch as one clustered device operation (one access latency for
      // the whole neighborhood) whenever the port is free — and otherwise
      // merge at dispatch time with any queued same-cluster reads.
      sched_->batched([this, vpn, fid, &ready, start] {
        sched_->read(
            swap_owner_, vpn, SwapReqClass::kDemandRead,
            [this, vpn, ready = std::move(ready), start]() mutable {
              complete_fault(vpn, start, ready);
            },
            fid);
        issue_readahead(vpn);
      });
      return;
    }
    if (!as_.is_mapped(va)) {
      if (as_.has_backing(vpn)) {
        // A backing copy without a swap slot is fork-inherited: the parent
        // evicted the page before forking, so the child holds the bytes but
        // never paid them to a device — the fill is free.
        inherited_fills_.add();
      } else if (const auto fp = as_.file_page(vpn)) {
        // Shared-file pages another process already holds resident resolve
        // to that frame (map_page refs it) — no device read, no buffer-cache
        // trip, just a page-table install.
        if (fp->shared && as_.share_index() != nullptr &&
            as_.share_index()->lookup(fp->file->id(), fp->block)) {
          share_hits_.add();
        } else {
          // File lifecycle: a first-touch (or clean-dropped) file page
          // lazy-loads through the buffer cache — free on a hit, a
          // demand-class device read on a miss.
          file_reads_.add();
          bcache_->read(bcache_client_, fp->file->id(), fp->block,
                        [this, vpn, ready = std::move(ready), start]() mutable {
                          complete_fault(vpn, start, ready);
                        },
                        fid);
          return;
        }
      } else {
        zero_fills_.add();
      }
    }
    complete_fault(vpn, start, ready);
  });
}

void Pager::handle_cow_fault(VirtAddr va, u64 vpn, Cycles start, sim::EventFn ready) {
  ++faults_since_sweep_;
  if (auto it = inflight_faults_.find(vpn); it != inflight_faults_.end()) {
    // Another fault on this page is already in flight (typically a second
    // hardware thread hitting the same COW page): coalesce. The primary's
    // cow_break resolves the permission for every waiter.
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "coalesce", it->second.trace_id, vpn);
    it->second.waiters.push_back([this, ready = std::move(ready), start]() mutable {
      fault_stall_.record(sim_.now() - start);
      ready();
    });
    return;
  }
  const u64 fid = VMSLS_TRACE_NEW_ID(sim_.trace());
  inflight_faults_.emplace(vpn, InflightFault{fid, {}});
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "fault", fid, vpn);
  const auto frame = as_.frame_of(vpn);
  require(frame.has_value(), name_ + ": COW fault on a non-resident page");
  if (as_.frames().refcount(*frame) <= 1) {
    // Sole mapping left (the other sharers evicted or diverged already):
    // re-enable write in place — no frame, no budget work, no copy traffic.
    process_.cow_break(va);
    cow_upgrades_.add();
    complete_fault(vpn, start, ready);
    return;
  }
  // The private copy needs a frame of its own: reserve it against the
  // budget and run the eviction loop. Pin the faulting page first — the
  // global sweep must not nominate the very frame being split (the
  // owner-set pin probe protects it for every sharer), and the in-flight
  // write targets these exact bytes.
  as_.pin(va);
  if (pending_maps_.insert(vpn).second && pool_) pool_->note_pending(+1);
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "evict", fid, vpn);
  ensure_frame_available(fid, [this, va, vpn, fid, ready = std::move(ready), start]() mutable {
    VMSLS_TRACE_END(sim_.trace(), trace_track_, "evict", fid, vpn);
    const auto r = process_.cow_break(va);
    as_.unpin(va);
    if (!r.copied) {
      // The last other sharer released the frame while this fault waited on
      // eviction: cow_break upgraded in place and the reservation dies
      // unclaimed (on_cow never fired, so clear it here).
      if (pending_maps_.erase(vpn) > 0 && pool_) pool_->note_pending(-1);
      cow_upgrades_.add();
      complete_fault(vpn, start, ready);
      return;
    }
    cow_copies_.add();
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "cow_copy", fid, vpn);
    if (bus_ != nullptr) {
      // The page copy is real memory traffic: charge one page-sized write
      // burst at the new frame before the store retries.
      bus_->request(mem::BusRequest{as_.frames().frame_addr(r.frame),
                                    static_cast<u32>(as_.page_bytes()), true,
                                    [this, vpn, ready = std::move(ready), start]() mutable {
                                      complete_fault(vpn, start, ready);
                                    }});
      return;
    }
    complete_fault(vpn, start, ready);
  });
}

// --- swap-in readahead ----------------------------------------------------

bool Pager::prefetch_headroom() const {
  // Prefetch never evicts *synchronously*: it rides free headroom, plus a
  // bounded overshoot of at most the readahead depth (the swap-cache
  // model). The next demand fault trims the overshoot through the normal
  // eviction loop, and the SpeculativeProbe makes unreferenced landings the
  // first victims — so a wrong-path prefetch costs one slot-turn, never a
  // working-set page.
  const u64 slack = cfg_.swap.readahead;
  if (pool_ != nullptr && cfg_.budget_mode == BudgetMode::kGlobal) {
    const u64 budget = pool_->budget();
    return budget == 0 || pool_->resident_pages() + pool_->pending_pages() < budget + slack;
  }
  return cfg_.frame_budget == 0 ||
         as_.resident_pages() + pending_maps_.size() < cfg_.frame_budget + slack;
}

void Pager::issue_readahead(u64 demand_vpn) {
  if (cfg_.swap.readahead == 0) return;
  for (const u64 vpn : sched_->neighbors(swap_owner_, demand_vpn, cfg_.swap.readahead)) {
    if (as_.is_mapped(vpn << page_bits())) continue;
    if (inflight_faults_.count(vpn) != 0) continue;
    if (!prefetch_headroom()) break;  // deeper neighbors are no cheaper
    start_prefetch(vpn);
  }
}

void Pager::start_prefetch(u64 vpn) {
  // A prefetch is a synthetic fault: it reserves its frame through
  // pending_maps_ (so concurrent demand faults cannot double-spend it) and
  // registers in inflight_faults_ (so a demand fault on the page coalesces
  // onto this read instead of issuing a second one).
  const u64 pid = VMSLS_TRACE_NEW_ID(sim_.trace());
  inflight_faults_.emplace(vpn, InflightFault{pid, {}});
  inflight_prefetch_.insert(vpn);
  if (pending_maps_.insert(vpn).second && pool_) pool_->note_pending(+1);
  prefetches_.add();
  log_debug(name_, "prefetch vpn=0x", std::hex, vpn);
  VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "prefetch", pid, vpn);
  sched_->read(
      swap_owner_, vpn, SwapReqClass::kPrefetchRead, [this, vpn] { finish_prefetch(vpn); },
      pid);
}

void Pager::finish_prefetch(u64 vpn) {
  inflight_prefetch_.erase(vpn);
  auto waiters = std::move(inflight_faults_[vpn].waiters);
  inflight_faults_.erase(vpn);
  // Land resident-clean: map_page installs the PTE with accessed and dirty
  // both clear and fills the frame from the backing store — on_map clears
  // the pending reservation and enters the page into policy tracking.
  if (!as_.is_mapped(vpn << page_bits())) process_.map_in(vpn << page_bits());
  if (waiters.empty()) {
    // Unclaimed so far: speculative until the first observed reference, and
    // first in line for reclaim should the prediction miss.
    speculative_.insert(vpn);
  } else {
    // A demand fault arrived mid-read (counted prefetch_late at coalesce
    // time): the page is demanded, not speculative.
    for (auto& w : waiters) w();
  }
}

u64 Pager::reclaim(u64 pages) {
  u64 done = 0;
  for (u64 i = 0; i < pages; ++i) {
    const auto victim = policy_->pick_victim();
    if (!victim) break;
    evict_resident(*victim);
    reclaims_.add();
    ++done;
  }
  return done;
}

// --- background services -------------------------------------------------
//
// Both daemons are periodic but activity-gated: a tick re-arms itself only
// when the process showed paging activity since the previous tick, and any
// fault or residency change re-arms an idle daemon. This keeps the event
// queue drainable — an idle simulation quiesces instead of ticking forever.

void Pager::note_activity() {
  ++activity_;
  arm_daemons();
}

void Pager::arm_daemons() {
  if (cfg_.ws_interval > 0 && !ws_armed_) {
    ws_armed_ = true;
    ws_seen_activity_ = activity_;
    sim_.schedule_in(cfg_.ws_interval, [this] { ws_sweep(); });
  }
  if (cfg_.pageout_interval > 0 && !pageout_armed_) {
    pageout_armed_ = true;
    pageout_seen_activity_ = activity_;
    sim_.schedule_in(cfg_.pageout_interval, [this] { pageout_tick(); });
  }
}

void Pager::ws_sweep() {
  ws_sweeps_.add();
  const Cycles window = cfg_.ws_window > 0 ? cfg_.ws_window : cfg_.ws_interval;
  // Sample the accessed bits (ordered resident walk — deterministic) and
  // age out pages unreferenced for longer than the window.
  as_.for_each_resident([this](u64 vpn) { probe_accessed(vpn); });
  u64 ws = 0;
  for (const auto& [vpn, last] : ws_last_ref_)
    if (sim_.now() - last <= window) ++ws;
  ws_pages_ = ws;
  // Fault-frequency correction: each fault in the window is a page that
  // wanted residency the references could not show (see ws_demand_pages).
  ws_demand_ = ws + faults_since_sweep_;
  faults_since_sweep_ = 0;
  ws_hist_.record(ws);
  if (pool_) pool_->note_ws_update();
  if (activity_ != ws_seen_activity_) {
    ws_seen_activity_ = activity_;
    sim_.schedule_in(cfg_.ws_interval, [this] { ws_sweep(); });
  } else {
    ws_armed_ = false;
  }
}

bool Pager::over_pageout_watermark() const {
  if (pool_ != nullptr && cfg_.budget_mode == BudgetMode::kGlobal)
    return pool_->over_watermark(cfg_.pageout_watermark_pct);
  if (cfg_.frame_budget == 0) return false;
  return (resident_pages() + pending_pages()) * 100 >=
         cfg_.frame_budget * cfg_.pageout_watermark_pct;
}

void Pager::pageout_tick() {
  // The scan itself is functional; the tick's CPU time (when an OS model is
  // attached) and the page writes (on the swap device port) are timed.
  auto work = [this] {
    u64 cleaned = 0;
    bool port_blocked = false;
    if (over_pageout_watermark()) {
      // Yield to demand traffic: if the device is mid-transfer (or requests
      // wait in the shared queue) when the tick fires, defer the whole
      // batch to a later tick. Once the front end idles, submit up to
      // pageout_batch writeback-class requests — the scheduler keeps any
      // later demand reads ahead of them in priority mode.
      if (sched_->busy()) {
        port_blocked = true;
      } else {
        as_.for_each_resident([this, &cleaned](u64 vpn) {
          if (cleaned >= cfg_.pageout_batch) return;
          if (as_.is_pinned_vpn(vpn)) return;  // in-flight access may re-dirty it
          if (as_.page_table().test_and_clear_dirty(vpn << page_bits())) {
            const auto fp = as_.file_page(vpn);
            if (fp) {
              // Clearing the dirty bit makes a later eviction a clean drop,
              // so the page's truth must be persisted *now*: to the file
              // block (shared) or the private backing copy.
              as_.sync_page(vpn);
            }
            if (fp && fp->shared) {
              file_writebacks_.add();
              bcache_->write(bcache_client_, fp->file->id(), fp->block,
                             VMSLS_TRACE_NEW_ID(sim_.trace()));
            } else {
              sched_->write(swap_owner_, vpn, SwapReqClass::kWriteback, [] {},
                            VMSLS_TRACE_NEW_ID(sim_.trace()));
              pageouts_.add();
            }
            ++cleaned;
          }
        });
      }
    }
    // Keep ticking while there is work (progress made, or work deferred to
    // a busy port) or the process is still active; otherwise quiesce.
    if (cleaned > 0 || port_blocked || activity_ != pageout_seen_activity_) {
      pageout_seen_activity_ = activity_;
      sim_.schedule_in(cfg_.pageout_interval, [this] { pageout_tick(); });
    } else {
      pageout_armed_ = false;
    }
  };
  if (os_ != nullptr && daemon_tick_cost_ > 0) {
    os_->exec_service(daemon_tick_cost_, std::move(work));
  } else {
    work();
  }
}

}  // namespace vmsls::paging
