// Shared physical-frame arbiter for multi-process over-subscription.
//
// Several processes — each with its own address space, pager daemon, and
// swap device — contend for one physical frame pool. The pool supports two
// budget regimes:
//
//   kPerProcess — every pager enforces its own frame budget on its fault
//                 path (the PR 1 model); the pool only aggregates residency
//                 and, with auto_budget, re-divides the total budget between
//                 processes in proportion to their estimated working sets.
//   kGlobal     — one machine-wide budget. A faulting pager asks the pool
//                 for victims, and the global CLOCK / aging-LRU sweep is
//                 free to nominate *another process's* page; the victim is
//                 evicted through its owner's Process (TLB shootdown and
//                 walk-cache flush invariants preserved) and a dirty victim
//                 pays writeback on its owner's swap device.
//
// Victim bookkeeping reuses the pager's ReplacementPolicy implementations
// over *frame numbers*: each frame carries an owner-set of (member, vpn)
// mappings, so a frame shared by N forked processes occupies one slot in
// the CLOCK ring, one unit of budget, and one victim nomination — eviction
// fans out one shootdown per sharer and the pool, as the sweep's KeyOwner,
// answers for a frame across its owner-set (a pin held by *any* sharer
// protects the frame; the accessed bit is the OR over every sharer's PTE).
// A single-member pool with unshared frames is cycle-identical to a
// per-process budget of the same size.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/paging/replacement.hpp"
#include "sim/simulator.hpp"
#include "util/index_table.hpp"

namespace vmsls::paging {

class Pager;

enum class BudgetMode { kPerProcess, kGlobal };

const char* budget_mode_name(BudgetMode mode) noexcept;

struct FramePoolConfig {
  BudgetMode mode = BudgetMode::kPerProcess;
  /// Aggregate data-page budget. In kGlobal mode this is the machine-wide
  /// cap the sweep enforces; in kPerProcess mode it is the budget that
  /// auto_budget re-divides between members. 0 = unlimited (pool tracks
  /// residency but never forces eviction).
  u64 total_frames = 0;
  /// Global sweep policy (kGlobal mode victim selection).
  PolicyKind policy = PolicyKind::kClock;
  u64 policy_seed = 1;
  /// Re-divide total_frames between members after each working-set sweep,
  /// proportional to the estimated working sets (kPerProcess mode only).
  bool auto_budget = false;
  /// Floor for auto-sized per-process budgets.
  u64 min_budget = 2;
};

class FramePool final : public KeyOwner {
 public:
  /// One mapping of a frame: the owning pager and the vpn it maps there.
  using Sharer = std::pair<Pager*, u64>;

  /// Every mapping of a nominated victim frame (attach/map order —
  /// deterministic). Freeing the frame means evicting all of them.
  struct Victim {
    std::vector<Sharer> sharers;
  };

  FramePool(sim::Simulator& sim, const FramePoolConfig& cfg, std::string name = "pool");

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  const FramePoolConfig& config() const noexcept { return cfg_; }

  /// Registers a pager with the pool (and the pool with the pager). Pages
  /// already resident in the pager's address space are seeded into the
  /// global sweep. Member order is attach order — deterministic. The
  /// pager's budget_mode must match the pool's mode: a kGlobal pager asks
  /// the pool for victims, which only a kGlobal pool's sweep can nominate.
  void attach(Pager& pager);

  /// Unregisters; the member's pages leave the global sweep.
  void detach(Pager& pager);

  // --- residency accounting (forwarded by member pagers) ---
  void note_map(Pager& pager, u64 vpn, u64 frame);
  void note_unmap(Pager& pager, u64 vpn, u64 frame);
  /// A COW break moved the member's mapping from `old_frame` to a private
  /// `new_frame`; mapped pages are unchanged, unique frames grow by one
  /// (unless the old frame's owner-set emptied in the same step).
  void note_cow(Pager& pager, u64 vpn, u64 old_frame, u64 new_frame);
  void note_pending(i64 delta);

  /// A member finished a working-set sweep: with auto_budget, re-divide
  /// total_frames between members proportional to their estimates.
  void note_ws_update();

  /// Nominates the next victim across every member (global sweep) into
  /// `out`, reusing its storage; false when nothing is evictable. The
  /// caller evicts through the owner; eviction feeds back via note_unmap.
  bool pick_victim(Victim& out);

  /// Caller reports the frame eviction it performed (one per victim frame,
  /// however many sharers were shot down) so cross-process pressure is
  /// visible in the stats ("pool.cross_evictions"). `cross` is true when
  /// any evicted sharer belonged to a different process than the asker.
  /// `trace_id` is the asking fault's causal id (an "evict" instant lands
  /// on the pool track).
  void record_eviction(const Pager& asking, bool cross, u64 trace_id = 0);

  u64 members() const noexcept;
  /// Unique resident *frames* — the budget/pressure basis. With page
  /// sharing this is less than mapped_pages(); without it they are equal.
  u64 resident_pages() const noexcept { return resident_; }
  /// Total page mappings across every member (each sharer counts).
  u64 mapped_pages() const noexcept { return mapped_pages_; }
  /// Fraction of mappings served without a frame of their own:
  /// 1 - unique_frames / mapped_pages (0 when nothing is mapped).
  double dedup_ratio() const noexcept {
    return mapped_pages_ == 0
               ? 0.0
               : 1.0 - static_cast<double>(resident_) / static_cast<double>(mapped_pages_);
  }
  /// High-water mark of aggregate residency — the budget-invariant probe
  /// (never exceeds total_frames in kGlobal mode once enforcement runs).
  u64 peak_resident_pages() const noexcept { return peak_resident_; }

  /// Restarts the high-water mark from current residency. Experiment
  /// harnesses call this after setup traffic (eager data loading bypasses
  /// the fault path and legitimately overshoots the budget).
  void reset_peak_residency() noexcept { peak_resident_ = resident_; }
  u64 pending_pages() const noexcept { return pending_; }
  u64 budget() const noexcept { return cfg_.total_frames; }
  u64 evictions() const noexcept { return evictions_.value(); }
  u64 cross_evictions() const noexcept { return cross_evictions_.value(); }
  u64 rebalances() const noexcept { return rebalances_.value(); }

  // --- KeyOwner: the global sweep's keys are frames ---
  /// Test-and-clears every sharer's accessed bit and ORs the results.
  bool test_and_clear_accessed(u64 frame) override;
  /// A pin held by any sharer protects the frame for all of them.
  bool pinned(u64 frame) const override;
  /// True only while every mapping of the frame is an unreferenced landing.
  bool speculative(u64 frame) const override;
  bool any_speculative() const override;

 private:
  unsigned member_id(const Pager& pager) const;
  void add_mapping(Pager& pager, u64 vpn, u64 frame);
  void remove_mapping(Pager& pager, u64 vpn, u64 frame);

  sim::Simulator& sim_;
  FramePoolConfig cfg_;
  std::string name_;
  sim::TraceTrack trace_track_ = 0;
  std::vector<Pager*> members_;  // index = member id; nullptr after detach
  std::unique_ptr<ReplacementPolicy> policy_;
  /// Frame-indexed owner sets: each frame's mappings, in map order. The
  /// policy's opaque keys are the frame numbers; the KeyOwner answers
  /// aggregate over the set. An emptied set keeps its capacity, so
  /// re-mapping the frame allocates nothing.
  IndexTable<std::vector<Sharer>> owners_;
  u64 resident_ = 0;      // unique frames (owner-set count)
  u64 mapped_pages_ = 0;  // total mappings (sum of owner-set sizes)
  u64 pending_ = 0;
  u64 peak_resident_ = 0;

  Counter& evictions_;
  Counter& cross_evictions_;
  Counter& rebalances_;
};

}  // namespace vmsls::paging
