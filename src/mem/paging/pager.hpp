// Pager daemon: residency tracking, victim selection, and swap charging.
//
// The missing decision layer between AddressSpace::evict (mechanism) and
// the OS fault path (cost): the pager watches every map/unmap in the
// process address space, enforces a configurable frame budget on the
// hardware-thread fault path, picks victims through a pluggable
// replacement policy, evicts them through Process::evict — preserving the
// TLB-shootdown / walk-cache-flush invariants — and charges swap-device
// time for dirty writebacks and swap-ins. With frame_budget == 0 the pager
// is inert and the fault path degenerates to the pre-pressure model.
//
// Swap traffic goes through a SwapScheduler front end the pager borrows
// from its machine (sls::Machine) — a private one, or one shared with the
// machine's other pagers ("one flash part, N pagers") when
// SwapConfig::shared is set. Requests carry this pager's
// owner id and a class (demand read >> prefetch read >> writeback) and
// wait in the scheduler's queue. On each demand swap-in the pager may also
// run readahead: the scheduler's clustering slot allocator keeps the
// process's evicted neighbors in adjacent slots, and up to
// SwapConfig::readahead of them are pulled as prefetch-class reads —
// admitted only under free budget headroom (prefetch never evicts), landing
// resident-clean, and flagged *speculative* until first reference so every
// replacement policy reclaims wrong-path prefetches first (the pager is its
// own policy's KeyOwner). Accuracy/coverage counters: `prefetches`,
// `prefetch_useful` (referenced before eviction), `prefetch_wasted`
// (evicted unreferenced), `prefetch_late` (a demand fault coalesced onto
// the in-flight prefetch).
//
// Under multi-process over-subscription the pager attaches to a shared
// FramePool: in kGlobal budget mode the fault path asks the pool for
// victims (which may belong to another process), and two optional
// background services run ahead of pressure:
//
//   * a WSClock-style working-set estimator that periodically sweeps the
//     accessed bits and reports how many pages the process referenced
//     within the sampling window (the pool's auto_budget uses this to
//     re-divide the machine budget), and
//   * a pageout daemon that writes dirty resident pages to swap while the
//     system idles toward the watermark, so later evictions are clean and
//     the fault path does not stall on writeback.
//
// Both services are activity-gated: they re-arm on faults and mappings and
// disarm when the process quiesces, so the event queue still drains.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/bus.hpp"
#include "mem/paging/buffer_cache.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/replacement.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/index_table.hpp"
#include "util/pool.hpp"

namespace vmsls::rt {
class Process;
class OsModel;
}  // namespace vmsls::rt

namespace vmsls::paging {

struct PagerConfig {
  /// Maximum resident data pages for the process; 0 = unlimited (pager
  /// tracks residency but never evicts on the fault path).
  u64 frame_budget = 0;
  PolicyKind policy = PolicyKind::kClock;
  /// Swap timing plus the shared-device / scheduling / readahead knobs
  /// (see SwapConfig) — `swap.shared` selects the machine-wide device.
  SwapConfig swap{};
  /// File-device timing + cache sizing for file-backed regions (see
  /// BufferCacheConfig): configures the machine's file cache, built from
  /// the platform's copy. The Pager itself never reads it.
  BufferCacheConfig bcache{};
  u64 policy_seed = 1;  // feeds the RANDOM policy only

  /// kGlobal defers budget enforcement to the attached FramePool (the
  /// machine-wide sweep); kPerProcess keeps it on frame_budget.
  BudgetMode budget_mode = BudgetMode::kPerProcess;

  /// Working-set estimator sweep period in cycles; 0 disables it.
  Cycles ws_interval = 0;
  /// Pages referenced within this many cycles count toward the working
  /// set; 0 = one sweep interval.
  Cycles ws_window = 0;

  /// Pageout daemon period in cycles; 0 disables it.
  Cycles pageout_interval = 0;
  /// Dirty pages cleaned (written back, dirty bit cleared) per tick.
  u64 pageout_batch = 4;
  /// Daemon runs only above this percentage of the frame budget (pool
  /// budget in kGlobal mode) — "ahead of pressure", not constantly.
  u64 pageout_watermark_pct = 75;
};

class Pager final : public mem::ResidencyObserver, public KeyOwner {
 public:
  /// `swap` and `bcache` are the swap and file front ends the pager
  /// registers with as an owner / client; both must outlive it. Whether
  /// other pagers share them is the caller's choice (sls::Machine::swap_for)
  /// — the same front end either way, so a single-member shared device is
  /// cycle-identical to a private one.
  Pager(sim::Simulator& sim, rt::Process& process, const PagerConfig& cfg, std::string name,
        SwapScheduler& swap, BufferCache& bcache);
  ~Pager() override;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  const PagerConfig& config() const noexcept { return cfg_; }
  const std::string& name() const noexcept { return name_; }
  ReplacementPolicy& policy() noexcept { return *policy_; }
  rt::Process& process() noexcept { return process_; }
  mem::AddressSpace& space() noexcept { return as_; }
  const mem::AddressSpace& space() const noexcept { return as_; }

  /// This pager's per-owner window onto the swap front end (device traffic
  /// attributable to this process).
  class SwapView {
   public:
    SwapView(SwapScheduler& sched, unsigned owner) noexcept : sched_(&sched), owner_(owner) {}
    u64 reads() const { return sched_->owner_reads(owner_); }
    u64 writes() const { return sched_->owner_writes(owner_); }
    bool holds(u64 vpn) const { return sched_->holds(owner_, vpn); }
    bool busy() const noexcept { return sched_->busy(); }

   private:
    SwapScheduler* sched_;
    unsigned owner_;
  };
  SwapView swap() const noexcept { return SwapView(*sched_, swap_owner_); }
  SwapScheduler& swap_scheduler() noexcept { return *sched_; }
  const SwapScheduler& swap_scheduler() const noexcept { return *sched_; }
  unsigned swap_owner() const noexcept { return swap_owner_; }

  /// The file-I/O front end and this pager's client id on it — the
  /// per-process hit/miss window.
  BufferCache& buffer_cache() noexcept { return *bcache_; }
  const BufferCache& buffer_cache() const noexcept { return *bcache_; }
  unsigned bcache_client() const noexcept { return bcache_client_; }

  /// Background services (pageout daemon ticks) charge their CPU time on
  /// the OS service cores when a model is attached; nullptr = free ticks.
  void set_os(rt::OsModel* os, Cycles tick_cost) noexcept {
    os_ = os;
    daemon_tick_cost_ = tick_cost;
  }

  /// COW page copies are charged as bus traffic (one page-sized write
  /// burst) when a bus is wired; without one the copy is functional-only
  /// and the OS tail's copy cost is the only charge. Every sls::System
  /// wires its bus; only unit tests of the paging classes run without one.
  void set_bus(mem::MemoryBus* bus) noexcept { bus_ = bus; }

  // --- mem::ResidencyObserver (driven by the address space) ---
  void on_map(u64 vpn, u64 frame) override;
  void on_unmap(u64 vpn, bool dirty, u64 frame, u64 sharers_left) override;
  void on_cow(u64 vpn, u64 old_frame, u64 new_frame) override;
  /// Evicts own-policy victims functionally, without device timing, until
  /// `frames` frames are freed or no victim is left.
  u64 reclaim(u64 frames) override;

  /// Fault-path entry: makes room under the frame budget (evicting victims,
  /// charging writeback time for dirty ones) and charges swap-in time when
  /// the faulting page lives in swap. `ready` fires once the frame is
  /// guaranteed available and the page contents are on their way in; the
  /// caller then maps the page and retries the access. Concurrent faults on
  /// one page coalesce from the moment the first fault starts securing a
  /// frame: one frame reservation and at most one device read serve all
  /// waiters, even when the first fault suspends on an async writeback.
  /// A demand fault landing on an in-flight *prefetch* coalesces the same
  /// way (and counts toward `prefetch_late`). A lone waiter's `ready` may
  /// run inside a swap completion that holds the run-ahead token: it ends
  /// in tail calls or calls sim::Simulator::forgo_run_ahead() first.
  void handle_fault(VirtAddr va, bool is_write, sim::EventFn ready);

  // --- FramePool interface ---
  u64 frame_budget() const noexcept { return cfg_.frame_budget; }
  void set_frame_budget(u64 budget) noexcept { cfg_.frame_budget = budget; }
  u64 resident_pages() const noexcept { return as_.resident_pages(); }
  u64 pending_pages() const noexcept { return pending_maps_.size(); }
  bool page_dirty(u64 vpn) const;
  /// Test-and-clear of the accessed bit (pool global sweep + own policy);
  /// observed references feed the working-set clock and retire the page's
  /// speculative-prefetch flag.
  bool probe_accessed(u64 vpn);
  /// Evicts one resident page through the process (TLB shootdown + walk
  /// cache flush) and counts it; the caller charges any writeback time.
  /// Returns the page's dirty bit as the unmap read it.
  bool evict_resident(u64 vpn);

  /// True while the page is an unreferenced readahead landing — what the
  /// replacement policies reclaim first. False for any vpn the pager never
  /// prefetched.
  bool is_speculative(u64 vpn) const noexcept { return speculative_.contains(vpn); }

  /// Whether any page is currently speculative — the policies' cheap
  /// emptiness hint, letting them skip the reclaim-first pre-scan.
  bool any_speculative() const noexcept override { return !speculative_.empty(); }

  /// Latest working-set estimate (pages referenced within the window);
  /// 0 until the first sweep completes.
  u64 working_set_pages() const noexcept { return ws_pages_; }

  /// Budget demand: the WS estimate plus a fault-frequency correction
  /// (faults observed in the last window). A thrashing process cannot
  /// exhibit its working set through references — with two frames it only
  /// ever touches two pages — so its fault rate carries the demand signal
  /// instead (Denning's WS + PFF hybrid). What the pool's auto-budget uses.
  u64 ws_demand_pages() const noexcept { return ws_demand_; }

  /// True once at least one estimator sweep has completed.
  bool has_ws_estimate() const noexcept { return ws_sweeps_.value() > 0; }

  /// Pages a long-lived pinner (the DMA offload driver) may hold pinned at
  /// once without starving the fault path: one frame below the effective
  /// budget (the pool's machine-wide budget in kGlobal mode), so victim
  /// selection always has at least one candidate frame left to turn over.
  /// 0 = no budget enforced, pin freely.
  u64 pin_quota() const noexcept;

  u64 evictions() const noexcept { return evictions_.value(); }
  u64 swap_ins() const noexcept { return swap_ins_.value(); }
  u64 writebacks() const noexcept { return writebacks_.value(); }
  u64 pageouts() const noexcept { return pageouts_.value(); }
  /// File-lifecycle ledger (anon traffic never touches these, swap counters
  /// never count file pages — the two lifecycles partition fault traffic):
  /// demand faults served from the file tier (buffer-cache hit or device
  /// read), clean file pages dropped for free at eviction, and dirty
  /// shared-file pages written back through the buffer cache at unmap (the
  /// pageout daemon's cleanings are not unmaps and count only in the cache).
  u64 file_reads() const noexcept { return file_reads_.value(); }
  u64 file_drops() const noexcept { return file_drops_.value(); }
  u64 file_writebacks() const noexcept { return file_writebacks_.value(); }
  /// Demand faults that needed neither swap nor file: first-touch zero-fill.
  u64 zero_fills() const noexcept { return zero_fills_.value(); }
  /// Sharing ledger. Together with the file/swap counters these partition
  /// every primary fault and every unmap exactly once (the identities live
  /// in mem/paging/ledger.hpp).
  /// `share_hits`: MAP_SHARED faults resolved to a frame another process
  /// already holds resident — no device read, no buffer-cache trip.
  u64 share_hits() const noexcept { return share_hits_.value(); }
  /// Faults filled for free from a backing copy inherited at fork (the
  /// parent had evicted the page before forking, so the child holds the
  /// bytes but no swap slot of its own).
  u64 inherited_fills() const noexcept { return inherited_fills_.value(); }
  /// COW write faults that split a shared frame into a private copy.
  u64 cow_copies() const noexcept { return cow_copies_.value(); }
  /// COW write faults where the refcount had already dropped to 1: write
  /// re-enabled in place, no copy, no frame.
  u64 cow_upgrades() const noexcept { return cow_upgrades_.value(); }
  /// Unmaps of clean MAP_SHARED pages whose frame lives on under another
  /// sharer's mapping (nothing dropped, nothing written back).
  u64 shared_releases() const noexcept { return shared_releases_.value(); }
  /// Unmaps whose page entered (or kept) a swap-lifecycle identity.
  u64 swap_releases() const noexcept { return swap_releases_.value(); }
  u64 prefetches() const noexcept { return prefetches_.value(); }
  u64 prefetch_useful() const noexcept { return prefetch_useful_.value(); }
  u64 prefetch_wasted() const noexcept { return prefetch_wasted_.value(); }
  u64 prefetch_late() const noexcept { return prefetch_late_.value(); }

 private:
  friend class FramePool;  // attach/detach set pool_

  // --- KeyOwner: the own policy's keys are vpns ---
  bool test_and_clear_accessed(u64 vpn) override { return probe_accessed(vpn); }
  bool pinned(u64 vpn) const override { return as_.is_pinned_vpn(vpn); }
  bool speculative(u64 vpn) const override { return is_speculative(vpn); }

  /// What an in-flight record resolves: a demand fault on a non-resident
  /// page, a write fault on a resident read-only (COW) page, or a readahead
  /// read no thread has asked for yet.
  enum class FaultKind : u8 { kDemand, kCow, kPrefetch };
  /// A stalled faulter: its continuation and the cycle it faulted at (the
  /// fault_stall sample taken when it wakes).
  struct Waiter {
    sim::EventFn ready;
    Cycles start = 0;
  };
  /// One record per page with a fault in flight, carrying all of that
  /// fault's continuation state, so every completion handed to the swap
  /// scheduler, buffer cache or bus captures only the vpn. Faults arriving
  /// while the frame is being secured or the contents are mid-read coalesce
  /// as waiters: one reservation + one device read serve them all (the
  /// kernel's wait-on-page-lock behavior). A record exists from the moment
  /// the first fault passes the residency check until its `ready` fires.
  /// In-flight prefetches register here too, so demand faults coalesce onto
  /// them instead of double-reading the device. `trace_id` is the primary
  /// fault's (or prefetch's) causal id, shared by the coalesce instants and
  /// the span end. Records are pooled and keep their waiter list's
  /// capacity across faults.
  struct InflightFault {
    FaultKind kind = FaultKind::kDemand;
    VirtAddr va = 0;
    u64 trace_id = 0;
    Waiter primary;  // empty for a prefetch
    std::vector<Waiter> waiters;
    /// Dirty victim writebacks the eviction loop is suspended on.
    u64 pending_writebacks = 0;
  };

  /// The budget this pager's fault path enforces: its own frame_budget
  /// (one member), or the attached pool's machine-wide budget in kGlobal
  /// mode, shared by every member. `limit` 0 = unlimited; `used` counts
  /// resident frames plus in-flight fault reservations.
  struct Budget {
    u64 limit = 0;
    u64 used = 0;
    u64 members = 1;
  };
  Budget budget() const noexcept;
  /// The pool that picks victims and owns the budget (kGlobal mode), or
  /// null when this pager enforces its own frame_budget.
  FramePool* global_pool() const noexcept;
  /// Fills victim_ with the next victim frame's mappings: the pool's
  /// global sweep in kGlobal mode, else this pager's own policy pick as a
  /// single sharer. False when nothing is evictable.
  bool pick_victim();
  /// The eviction loop for the in-flight fault on `vpn`: evicts victims
  /// until the budget fits (suspending on their dirty writebacks), then
  /// calls frame_secured.
  void secure_frame(u64 vpn);
  /// Budget work is done: a demand fault fills the page (swap-in with
  /// readahead, buffer-cache read, fork-inherited copy, shared frame or
  /// zero fill), a COW fault breaks the share and charges the copy.
  void frame_secured(u64 vpn);
  /// Retires the record: ends the fault span and wakes the primary faulter,
  /// then every coalesced waiter.
  void complete_fault(u64 vpn);
  /// Opens the in-flight record for `vpn`.
  void open_fault(u64 vpn, FaultKind kind, VirtAddr va, u64 trace_id, Waiter primary);
  /// Takes the record for `vpn` out of the table, before anyone wakes: a
  /// woken thread may fault the page again at once, which opens a fresh
  /// record. The caller wakes its waiters, then hands it to release_fault.
  InflightFault& take_fault(u64 vpn);
  void release_fault(InflightFault& f);
  /// Records the waiter's fault_stall sample and resumes it.
  void wake(Waiter& w);
  /// Issues prefetch-class reads for the demand swap-in's slot neighbors
  /// that fit under free budget headroom.
  void issue_readahead(u64 demand_vpn);
  void start_prefetch(u64 vpn);
  /// Lands the prefetched page and wakes any demand faults coalesced on it.
  void finish_prefetch(u64 vpn);
  /// Counts a frame reservation for a not-yet-mapped page (once per vpn)
  /// against the budget, and releases it.
  void reserve_frame(u64 vpn);
  void release_frame(u64 vpn);
  /// Retires the speculative flag at eviction time, attributing the page
  /// to `prefetch_useful` (accessed bit set) or `prefetch_wasted`.
  void settle_speculative(u64 vpn);
  void note_activity();
  void arm_daemons();
  void ws_sweep();
  void pageout_tick();
  /// Cached at construction: chased through three pointers per fault before,
  /// and the page-table geometry never changes after elaboration.
  unsigned page_bits() const noexcept { return page_bits_; }

  sim::Simulator& sim_;
  rt::Process& process_;
  mem::AddressSpace& as_;
  PagerConfig cfg_;
  std::string name_;
  sim::TraceTrack trace_track_ = 0;
  SwapScheduler* sched_;
  unsigned swap_owner_;
  BufferCache* bcache_;
  unsigned bcache_client_;
  std::unique_ptr<ReplacementPolicy> policy_;
  FramePool* pool_ = nullptr;
  mem::MemoryBus* bus_ = nullptr;  // COW copy charging; optional
  rt::OsModel* os_ = nullptr;
  Cycles daemon_tick_cost_ = 0;
  unsigned page_bits_ = 0;
  /// ws_last_ref_ is only ever *read* by the WS estimator, which only runs
  /// when ws_interval > 0 — without it the per-map/per-probe stamps would
  /// be dead weight on the fault path.
  bool track_ws_ = false;

  /// vpn -> its in-flight record (null when none); records come from
  /// fault_pool_.
  IndexTable<InflightFault*> inflight_faults_;
  Pool<InflightFault> fault_pool_;
  /// secure_frame's current victim; one buffer reused by every eviction.
  FramePool::Victim victim_;
  /// The dirty bit of the last page unmapped (on_unmap), which
  /// evict_resident hands back without a second page-table lookup.
  bool unmapped_dirty_ = false;
  /// Pages a fault has reserved a frame for but not yet mapped. Counted
  /// against the budget so concurrent faults cannot double-spend one freed
  /// frame; entries clear when the page maps (on_map).
  IndexBitmap pending_maps_;
  /// Resident readahead landings not yet referenced (reclaimed first).
  IndexBitmap speculative_;
  /// issue_readahead's neighbor list; one buffer reused by every swap-in.
  std::vector<u64> readahead_;

  // --- working-set estimator state ---
  static constexpr Cycles kNeverReferenced = ~Cycles{0};
  /// vpn -> last observed reference while resident; kNeverReferenced when
  /// none (not resident, or resident since attach and never referenced).
  IndexTable<Cycles> ws_last_ref_{kNeverReferenced};
  u64 ws_pages_ = 0;
  u64 ws_demand_ = 0;
  u64 faults_since_sweep_ = 0;

  // --- activity gating for the background services ---
  u64 activity_ = 0;
  u64 ws_seen_activity_ = 0;
  u64 pageout_seen_activity_ = 0;
  bool ws_armed_ = false;
  bool pageout_armed_ = false;

  Counter& evictions_;
  Counter& swap_ins_;
  Counter& file_reads_;
  Counter& file_drops_;
  Counter& file_writebacks_;
  Counter& zero_fills_;
  Counter& share_hits_;
  Counter& inherited_fills_;
  Counter& cow_copies_;
  Counter& cow_upgrades_;
  Counter& shared_releases_;
  Counter& swap_releases_;
  Counter& writebacks_;
  Counter& reclaims_;
  Counter& pageouts_;
  Counter& ws_sweeps_;
  Counter& prefetches_;
  Counter& prefetch_useful_;
  Counter& prefetch_wasted_;
  Counter& prefetch_late_;
  Histogram& fault_stall_;
  Histogram& ws_hist_;
};

}  // namespace vmsls::paging
