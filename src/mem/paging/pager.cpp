#include "mem/paging/pager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rt/os.hpp"
#include "rt/process.hpp"
#include "util/log.hpp"

namespace vmsls::paging {

Pager::Pager(sim::Simulator& sim, rt::Process& process, const PagerConfig& cfg, std::string name,
             SwapScheduler& swap, BufferCache& bcache)
    : sim_(sim),
      process_(process),
      as_(process.address_space()),
      cfg_(cfg),
      name_(std::move(name)),
      sched_(&swap),
      swap_owner_(swap.register_owner(name_)),
      bcache_(&bcache),
      bcache_client_(bcache.register_client(name_)),
      policy_(make_policy(cfg.policy, *this, cfg.policy_seed)),
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
  page_bits_ = as_.page_table().config().page_bits;
  track_ws_ = cfg_.ws_interval > 0;
  as_.set_residency_observer(this);
  // Pages already resident when the pager attaches (pinned buffers mapped at
  // elaboration) enter policy tracking so they are evictable under pressure.
  as_.for_each_resident([this](u64 vpn) { policy_->on_insert(vpn); });
}

Pager::~Pager() {
  if (pool_) pool_->detach(*this);
  as_.set_residency_observer(nullptr);
}

void Pager::on_map(u64 vpn, u64 frame) {
  release_frame(vpn);
  policy_->on_insert(vpn);
  if (track_ws_) ws_last_ref_.at(vpn) = sim_.now();  // a fresh mapping is a reference
  if (pool_) pool_->note_map(*this, vpn, frame);
  note_activity();
}

void Pager::on_unmap(u64 vpn, bool dirty, u64 frame, u64 sharers_left) {
  unmapped_dirty_ = dirty;
  policy_->on_remove(vpn);
  if (track_ws_) ws_last_ref_.at(vpn) = kNeverReferenced;
  // An external unmap (experiment-setup eviction) of a speculative page is
  // wasted work; the pager's own evictions settle the flag beforehand with
  // the accessed bit still readable.
  if (speculative_.erase(vpn)) prefetch_wasted_.add();
  // Lifecycle fork — each unmap lands in exactly ONE bucket, whoever
  // initiated it, so a frame unmapped by N sharers contributes N entries
  // (the unmap partition, mem/paging/ledger.hpp). Anonymous pages — and
  // private file pages holding a diverged copy — live in swap: a slot, and
  // every refault pays a swap-in. File pages whose truth is the file get no
  // slot: dirty shared ones write back through the buffer cache (sharers'
  // writebacks of one block dedup into one device write there), clean ones
  // another sharer still holds release for free, and the last clean
  // mapping drops the frame.
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
  release_frame(vpn);
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
  if (track_ws_) ws_last_ref_.at(vpn) = sim_.now();
  // A referenced readahead landing graduates to a real resident page: the
  // prediction was right.
  if (speculative_.erase(vpn)) prefetch_useful_.add();
  return true;
}

void Pager::settle_speculative(u64 vpn) {
  if (!speculative_.erase(vpn)) return;
  // The accessed bit is the page's last word: set means the prefetch was
  // used (just never swept), clear means it truly was wrong-path.
  if (as_.page_table().test_and_clear_accessed(vpn << page_bits()))
    prefetch_useful_.add();
  else
    prefetch_wasted_.add();
}

bool Pager::evict_resident(u64 vpn) {
  // Pinned pages back in-flight DMA and committed bus transactions; every
  // victim-selection path (own policy, pool sweep, reclaim) must have
  // filtered them out. Evicting one would retarget the frame mid-transfer.
  if (as_.is_pinned_vpn(vpn))
    throw std::invalid_argument(name_ + ": pinned page selected as eviction victim");
  settle_speculative(vpn);
  unmapped_dirty_ = false;
  process_.evict(vpn << page_bits(), 1);  // shoots down TLBs + flushes walk caches
  evictions_.add();
  VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "shootdown", 0, vpn);
  return unmapped_dirty_;
}

void Pager::reserve_frame(u64 vpn) {
  if (pending_maps_.insert(vpn) && pool_) pool_->note_pending(+1);
}

void Pager::release_frame(u64 vpn) {
  if (pending_maps_.erase(vpn) && pool_) pool_->note_pending(-1);
}

FramePool* Pager::global_pool() const noexcept {
  return cfg_.budget_mode == BudgetMode::kGlobal ? pool_ : nullptr;
}

Pager::Budget Pager::budget() const noexcept {
  if (const FramePool* pool = global_pool())
    return {pool->budget(), pool->resident_pages() + pool->pending_pages(), pool->members()};
  return {cfg_.frame_budget, as_.resident_pages() + pending_maps_.size(), 1};
}

u64 Pager::pin_quota() const noexcept {
  // Every member process may host an offload driver pinning against the
  // budget, and the drivers admit independently, so each gets an equal
  // slice with one frame of headroom. The quota floors at 1: a transfer
  // must be able to pin at least one page to make progress, so at
  // degenerate budgets (1 frame per process, or a global budget at or below
  // the member count) pins may consume the whole budget and the one-frame
  // headroom lapses. Victim selection then finds no candidate and the fault
  // path proceeds over budget — graceful degradation, bounded by the floor,
  // in configurations too small to page in anyway.
  const Budget b = budget();
  if (b.limit == 0) return 0;
  const u64 share = b.limit / std::max<u64>(1, b.members);
  return share > 1 ? share - 1 : 1;
}

bool Pager::pick_victim() {
  if (FramePool* pool = global_pool()) return pool->pick_victim(victim_);
  const auto vpn = policy_->pick_victim();
  if (!vpn) return false;
  victim_.sharers.assign(1, {this, *vpn});
  return true;
}

void Pager::secure_frame(u64 vpn) {
  // Frames reserved by not-yet-mapped faults count against the budget, or
  // two in-flight faults would double-spend one freed frame. A victim frame
  // may be shared: eviction fans out one shootdown per sharer (each through
  // its owner's Process, preserving that process's shootdown invariants)
  // but frees exactly one frame. Dirty swap-lifecycle sharers each absorb a
  // writeback on their own swap front end, and the loop suspends until the
  // last of them lands (on a fresh stack from the event loop, so eviction
  // bursts of any size are stack-safe). Dirty shared-file sharers write
  // back through the buffer cache inside on_unmap and never block.
  InflightFault& f = *inflight_faults_.get(vpn);
  for (Budget b = budget(); b.limit != 0 && b.used > b.limit; b = budget()) {
    if (!pick_victim()) break;
    bool cross = false;
    std::size_t writebacks = 0;  // victim_.sharers[0, writebacks) owe one
    for (const auto& [owner, svpn] : victim_.sharers) {
      const auto vfp = owner->as_.file_page(svpn);
      if (owner != this) cross = true;
      const bool dirty = owner->evict_resident(svpn);
      log_debug(name_, "evict ", owner->name_, " vpn=0x", std::hex, svpn,
                dirty ? " (dirty)" : " (clean)");
      if (dirty && (!vfp || !vfp->shared)) victim_.sharers[writebacks++] = {owner, svpn};
    }
    if (FramePool* pool = global_pool()) pool->record_eviction(*this, cross, f.trace_id);
    if (writebacks == 0) continue;
    f.pending_writebacks = writebacks;
    for (std::size_t i = 0; i < writebacks; ++i) {
      const auto [owner, svpn] = victim_.sharers[i];
      owner->writebacks_.add();
      // A writeback is a device request of its own: a fresh causal id.
      const u64 wid = VMSLS_TRACE_NEW_ID(sim_.trace());
      owner->sched_->write(owner->swap_owner_, svpn, SwapReqClass::kDemandWrite,
                           [this, vpn] {
                             if (--inflight_faults_.get(vpn)->pending_writebacks == 0)
                               secure_frame(vpn);
                           },
                           wid);
    }
    return;
  }
  frame_secured(vpn);
}

void Pager::frame_secured(u64 vpn) {
  InflightFault& f = *inflight_faults_.get(vpn);
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "evict", f.trace_id, vpn);
  switch (f.kind) {
    case FaultKind::kDemand:
      // A concurrent fault may have brought the page in already — don't pay
      // (or serialize on) a second device read for a resident page.
      if (as_.is_mapped(f.va)) break;
      if (sched_->holds(swap_owner_, vpn)) {
        swap_ins_.add();
        // The demand read and its readahead enqueue atomically, so they
        // dispatch as one clustered device operation (one access latency
        // for the whole neighborhood) whenever the port is free — and
        // otherwise merge at dispatch time with any queued same-cluster
        // reads.
        sched_->batched([&] {
          sched_->read(
              swap_owner_, vpn, SwapReqClass::kDemandRead, [this, vpn] { complete_fault(vpn); },
              f.trace_id);
          issue_readahead(vpn);
        });
        return;
      }
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
                        [this, vpn] { complete_fault(vpn); }, f.trace_id);
          return;
        }
      } else {
        zero_fills_.add();
      }
      break;
    case FaultKind::kCow: {
      const auto r = process_.cow_break(f.va);
      as_.unpin(f.va);
      if (!r.copied) {
        // The last other sharer released the frame while this fault waited
        // on eviction: cow_break upgraded in place and the reservation dies
        // unclaimed (on_cow never fired, so clear it here).
        release_frame(vpn);
        cow_upgrades_.add();
        break;
      }
      cow_copies_.add();
      VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "cow_copy", f.trace_id, vpn);
      if (bus_ != nullptr) {
        // The page copy is real memory traffic: charge one page-sized write
        // burst at the new frame before the store retries.
        bus_->request(as_.frames().frame_addr(r.frame), static_cast<u32>(as_.page_bytes()), true,
                      [this, vpn] { complete_fault(vpn); });
        return;
      }
      break;
    }
    case FaultKind::kPrefetch:
      throw std::logic_error(name_ + ": prefetch records never run the eviction loop");
  }
  complete_fault(vpn);
}

void Pager::wake(Waiter& w) {
  fault_stall_.record(sim_.now() - w.start);
  w.ready();
}

void Pager::open_fault(u64 vpn, FaultKind kind, VirtAddr va, u64 trace_id, Waiter primary) {
  InflightFault& f = *fault_pool_.acquire();
  f.kind = kind;
  f.va = va;
  f.trace_id = trace_id;
  f.primary = std::move(primary);
  f.pending_writebacks = 0;
  inflight_faults_.at(vpn) = &f;
}

Pager::InflightFault& Pager::take_fault(u64 vpn) {
  InflightFault*& slot = inflight_faults_.at(vpn);
  InflightFault& f = *slot;
  slot = nullptr;
  return f;
}

void Pager::release_fault(InflightFault& f) {
  // Drop the spent continuations; the waiter list keeps its capacity.
  f.primary.ready.reset();
  f.waiters.clear();
  fault_pool_.release(&f);
}

void Pager::complete_fault(u64 vpn) {
  InflightFault& f = take_fault(vpn);
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "fault", f.trace_id, vpn);
  // Waking the primary is a tail call only when no waiter wakes after it.
  if (!f.waiters.empty()) sim_.forgo_run_ahead();
  wake(f.primary);
  for (Waiter& w : f.waiters) wake(w);
  release_fault(f);
}

void Pager::handle_fault(VirtAddr va, bool is_write, sim::EventFn ready) {
  note_activity();
  const Cycles start = sim_.now();
  const u64 vpn = va >> page_bits();
  FaultKind kind = FaultKind::kDemand;
  const auto pte = as_.page_table().lookup(va);
  if (pte) {
    // A write against a resident read-only page is a COW (or write-upgrade)
    // fault, not a spurious retry — it has its own service path.
    if (!is_write || pte->writable) {
      // A concurrent fault on the same page already completed: no frame and
      // no swap-in needed — and crucially no victim eviction either.
      fault_stall_.record(0);
      ready();
      return;
    }
    kind = FaultKind::kCow;
  }
  ++faults_since_sweep_;
  if (InflightFault* inflight = inflight_faults_.get(vpn)) {
    // A fault on this page is already securing a frame — possibly suspended
    // mid-eviction on an async dirty writeback — or mid swap-in or COW copy;
    // or a prefetch read for the page is in flight. Coalesce before any
    // budget work: this fault consumes no frame of its own and must not
    // issue a second device read (the double swap-in race).
    InflightFault& f = *inflight;
    if (f.kind == FaultKind::kPrefetch) {
      // Late exactly once per prefetched page, however many faults pile
      // onto it — the accuracy ratio divides by prefetches issued.
      if (f.waiters.empty()) prefetch_late_.add();
      // If the prefetch read is still queued, it now blocks a real thread:
      // upgrade it to demand class so priority dispatch stops bypassing it.
      sched_->promote(swap_owner_, vpn);
    }
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "coalesce", f.trace_id, vpn);
    f.waiters.push_back({std::move(ready), start});
    return;
  }
  // One causal id per primary fault, threaded through frame reservation,
  // victim eviction, the swap queue, and the device transfer — so the
  // "fault" span decomposes exactly into "evict" + "queue" + "io".
  const u64 fid = VMSLS_TRACE_NEW_ID(sim_.trace());
  open_fault(vpn, kind, va, fid, {std::move(ready), start});
  if (kind == FaultKind::kDemand) {
    // The vpn can already be pending: a prior fault's `ready` fired (erasing
    // its record) but the OS tail has not mapped the page yet. The
    // reservation is then already counted — reserve_frame counts it once.
    reserve_frame(vpn);
    VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "fault", fid, vpn);
  } else {
    VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "fault", fid, vpn);
    if (as_.frames().refcount(pte->frame) <= 1) {
      // Sole mapping left (the other sharers evicted or diverged already):
      // re-enable write in place — no frame, no budget work, no copy traffic.
      process_.cow_break(va);
      cow_upgrades_.add();
      complete_fault(vpn);
      return;
    }
    // The private copy needs a frame of its own: reserve it against the
    // budget and run the eviction loop. Pin the faulting page first — the
    // global sweep must not nominate the very frame being split (the
    // pool's owner-set pin rule protects it for every sharer), and the in-flight
    // write targets these exact bytes.
    as_.pin(va);
    reserve_frame(vpn);
  }
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "evict", fid, vpn);
  secure_frame(vpn);
}

// --- swap-in readahead ----------------------------------------------------

void Pager::issue_readahead(u64 demand_vpn) {
  if (cfg_.swap.readahead == 0) return;
  sched_->neighbors(swap_owner_, demand_vpn, cfg_.swap.readahead, readahead_);
  for (const u64 vpn : readahead_) {
    if (as_.is_mapped(vpn << page_bits())) continue;
    if (inflight_faults_.get(vpn) != nullptr) continue;
    // Prefetch never evicts *synchronously*: it rides free headroom, plus a
    // bounded overshoot of at most the readahead depth (the swap-cache
    // model). The next demand fault trims the overshoot through the normal
    // eviction loop, and every policy takes unreferenced landings as its
    // first victims — so a wrong-path prefetch costs one slot-turn,
    // never a working-set page. Deeper neighbors are no cheaper.
    const Budget b = budget();
    if (b.limit != 0 && b.used >= b.limit + cfg_.swap.readahead) break;
    start_prefetch(vpn);
  }
}

void Pager::start_prefetch(u64 vpn) {
  // A prefetch is a synthetic fault: it reserves its frame through
  // pending_maps_ (so concurrent demand faults cannot double-spend it) and
  // opens an in-flight record (so a demand fault on the page coalesces onto
  // this read instead of issuing a second one).
  const u64 pid = VMSLS_TRACE_NEW_ID(sim_.trace());
  open_fault(vpn, FaultKind::kPrefetch, vpn << page_bits(), pid, {});
  reserve_frame(vpn);
  prefetches_.add();
  log_debug(name_, "prefetch vpn=0x", std::hex, vpn);
  VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "prefetch", pid, vpn);
  sched_->read(
      swap_owner_, vpn, SwapReqClass::kPrefetchRead, [this, vpn] { finish_prefetch(vpn); },
      pid);
}

void Pager::finish_prefetch(u64 vpn) {
  sim_.forgo_run_ahead();  // the waiters wake one after another
  InflightFault& f = take_fault(vpn);
  std::vector<Waiter>& waiters = f.waiters;
  // Land resident-clean: map_page installs the PTE with accessed and dirty
  // both clear and fills the frame from the backing store — on_map clears
  // the pending reservation and enters the page into policy tracking.
  if (!as_.is_mapped(vpn << page_bits())) process_.map_in(vpn << page_bits());
  // Unclaimed so far: speculative until the first observed reference, and
  // first in line for reclaim should the prediction miss. Otherwise a
  // demand fault arrived mid-read (counted prefetch_late at coalesce time):
  // the page is demanded, not speculative.
  if (waiters.empty()) speculative_.insert(vpn);
  for (Waiter& w : waiters) wake(w);
  release_fault(f);
}

u64 Pager::reclaim(u64 frames) {
  // Evicting a sharer of a forked frame unmaps a page but frees nothing:
  // only a frame's last mapping leaving counts, so keep picking.
  const u64 free_before = as_.frames().free_frames();
  u64 freed = 0;
  while (freed < frames) {
    const auto victim = policy_->pick_victim();
    if (!victim) break;
    evict_resident(*victim);
    reclaims_.add();
    freed = as_.frames().free_frames() - free_before;
  }
  return freed;
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
  u64 ws = 0;
  as_.for_each_resident([this, window, &ws](u64 vpn) {
    probe_accessed(vpn);
    const Cycles last = ws_last_ref_.get(vpn);
    if (last != kNeverReferenced && sim_.now() - last <= window) ++ws;
  });
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

void Pager::pageout_tick() {
  // The scan itself is functional; the tick's CPU time (when an OS model is
  // attached) and the page writes (on the swap device port) are timed.
  auto work = [this] {
    u64 cleaned = 0;
    bool port_blocked = false;
    const Budget b = budget();
    if (b.limit != 0 && b.used * 100 >= b.limit * cfg_.pageout_watermark_pct) {
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
              // Cleaning is not an unmap: the page's later eviction lands in
              // its own bucket, and the cache's write counters record this.
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
