#include "mem/paging/frame_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mem/paging/pager.hpp"
#include "util/log.hpp"

namespace vmsls::paging {

const char* budget_mode_name(BudgetMode mode) noexcept {
  switch (mode) {
    case BudgetMode::kPerProcess: return "per-process";
    case BudgetMode::kGlobal: return "global";
  }
  return "?";
}

FramePool::FramePool(sim::Simulator& sim, const FramePoolConfig& cfg, std::string name)
    : sim_(sim),
      cfg_(cfg),
      name_(std::move(name)),
      // The global sweep reuses the per-process policy implementations over
      // frame numbers, with the pool answering for each frame.
      policy_(make_policy(cfg.policy, *this, cfg.policy_seed)),
      evictions_(sim.stats().counter(name_ + ".evictions")),
      cross_evictions_(sim.stats().counter(name_ + ".cross_evictions")),
      rebalances_(sim.stats().counter(name_ + ".rebalances")) {
  trace_track_ = sim_.trace().track(name_);
}

bool FramePool::test_and_clear_accessed(u64 frame) {
  // Probe *every* sharer (each test-and-clears its own PTE bit) and OR the
  // results — short-circuiting would leave later sharers' bits set, making
  // the frame look perpetually hot to the sweep.
  bool any = false;
  for (const auto& [p, vpn] : owners_.get(frame))
    if (p->probe_accessed(vpn)) any = true;
  return any;
}

bool FramePool::pinned(u64 frame) const {
  // The pinned mapping backs an in-flight access against these exact bytes.
  // (Per-(member, vpn) pin checks let other sharers evict a pinned frame —
  // the sharer-pin bug this owner-set rule fixes.)
  for (const auto& [p, vpn] : owners_.get(frame))
    if (p->space().is_pinned_vpn(vpn)) return true;
  return false;
}

bool FramePool::speculative(u64 frame) const {
  // Wrong-path readahead landings are reclaimed first machine-wide too, but
  // a frame another process maps unspeculatively is in use.
  const auto& sharers = owners_.get(frame);
  if (sharers.empty()) return false;
  for (const auto& [p, vpn] : sharers)
    if (!p->is_speculative(vpn)) return false;
  return true;
}

bool FramePool::any_speculative() const {
  for (const Pager* p : members_)
    if (p != nullptr && p->any_speculative()) return true;
  return false;
}

unsigned FramePool::member_id(const Pager& pager) const {
  for (unsigned i = 0; i < members_.size(); ++i)
    if (members_[i] == &pager) return i;
  throw std::logic_error(name_ + ": pager '" + pager.name() + "' is not attached");
}

u64 FramePool::members() const noexcept {
  u64 n = 0;
  for (const Pager* p : members_)
    if (p != nullptr) ++n;
  return n;
}

void FramePool::attach(Pager& pager) {
  require(pager.pool_ == nullptr, "pager is already attached to a frame pool");
  require(pager.config().budget_mode == cfg_.mode,
          name_ + ": pager '" + pager.name() + "' has budget mode " +
              budget_mode_name(pager.config().budget_mode) + " but the pool's is " +
              budget_mode_name(cfg_.mode));
  // auto_budget silently degrading to a static split would be the worst
  // failure mode — every member must actually produce WS estimates.
  require(!cfg_.auto_budget || cfg_.mode != BudgetMode::kPerProcess ||
              pager.config().ws_interval > 0,
          "auto_budget pool: pager '" + pager.name() +
              "' has no working-set estimator (ws_interval == 0), so rebalancing "
              "would never run");
  // Reuse a vacated slot (stable ids) before growing.
  unsigned id = static_cast<unsigned>(members_.size());
  for (unsigned i = 0; i < members_.size(); ++i) {
    if (members_[i] == nullptr) {
      id = i;
      break;
    }
  }
  if (id == members_.size())
    members_.push_back(&pager);
  else
    members_[id] = &pager;
  pager.pool_ = this;
  // Pages already resident (pinned buffers, pre-attach traffic) enter the
  // global sweep and the aggregate residency count, as do any frame
  // reservations of faults already in flight.
  pager.space().for_each_resident([this, &pager](u64 vpn) {
    add_mapping(pager, vpn, *pager.space().frame_of(vpn));
  });
  pending_ += pager.pending_pages();
  peak_resident_ = std::max(peak_resident_, resident_);
}

void FramePool::detach(Pager& pager) {
  const unsigned id = member_id(pager);
  pager.space().for_each_resident([this, &pager](u64 vpn) {
    remove_mapping(pager, vpn, *pager.space().frame_of(vpn));
  });
  // The member's in-flight fault reservations leave with it; a stale
  // pending_ would fake permanent pressure for the survivors.
  note_pending(-static_cast<i64>(pager.pending_pages()));
  members_[id] = nullptr;
  pager.pool_ = nullptr;
}

void FramePool::add_mapping(Pager& pager, u64 vpn, u64 frame) {
  auto& sharers = owners_.at(frame);
  sharers.emplace_back(&pager, vpn);
  ++mapped_pages_;
  if (sharers.size() == 1) {
    // First mapping: the frame enters the sweep and costs one budget unit.
    // The global sweep ring is only consulted by kGlobal victim selection;
    // in kPerProcess mode maintaining it would be O(resident) churn per
    // map/unmap for state nothing ever reads.
    if (cfg_.mode == BudgetMode::kGlobal) policy_->on_insert(frame);
    ++resident_;
    peak_resident_ = std::max(peak_resident_, resident_);
  }
}

void FramePool::remove_mapping(Pager& pager, u64 vpn, u64 frame) {
  require(!owners_.get(frame).empty(), "pool unmap of an untracked frame");
  auto& sharers = owners_.at(frame);
  const auto pos = std::find(sharers.begin(), sharers.end(), Sharer{&pager, vpn});
  require(pos != sharers.end(), "pool unmap of an untracked mapping");
  sharers.erase(pos);
  require(mapped_pages_ > 0, "pool mapped-pages underflow");
  --mapped_pages_;
  if (sharers.empty()) {
    if (cfg_.mode == BudgetMode::kGlobal) policy_->on_remove(frame);
    require(resident_ > 0, "pool residency underflow");
    --resident_;
  }
}

void FramePool::note_map(Pager& pager, u64 vpn, u64 frame) {
  add_mapping(pager, vpn, frame);
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "resident", static_cast<double>(resident_));
}

void FramePool::note_unmap(Pager& pager, u64 vpn, u64 frame) {
  remove_mapping(pager, vpn, frame);
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "resident", static_cast<double>(resident_));
}

void FramePool::note_cow(Pager& pager, u64 vpn, u64 old_frame, u64 new_frame) {
  remove_mapping(pager, vpn, old_frame);
  add_mapping(pager, vpn, new_frame);
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "resident", static_cast<double>(resident_));
}

void FramePool::note_pending(i64 delta) {
  if (delta >= 0) {
    pending_ += static_cast<u64>(delta);
  } else {
    const u64 d = static_cast<u64>(-delta);
    require(pending_ >= d, "pool pending underflow");
    pending_ -= d;
  }
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "pending", static_cast<double>(pending_));
}

bool FramePool::pick_victim(Victim& out) {
  const auto key = policy_->pick_victim();
  if (!key) return false;
  const auto& sharers = owners_.get(*key);
  require(!sharers.empty(), "pool victim frame has no owner-set");
  out.sharers.assign(sharers.begin(), sharers.end());  // snapshot: eviction mutates the live set
  return true;
}

void FramePool::record_eviction(const Pager& asking, bool cross, u64 trace_id) {
  (void)asking;
  evictions_.add();
  if (cross) cross_evictions_.add();
  VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "evict", trace_id, cross ? 1 : 0);
}

void FramePool::note_ws_update() {
  if (!cfg_.auto_budget || cfg_.mode != BudgetMode::kPerProcess || cfg_.total_frames == 0)
    return;
  // Re-divide the machine budget proportional to the working-set estimates.
  // Members without an estimate yet keep their current budget — rebalancing
  // starts once every process has reported.
  u64 sum = 0;
  for (Pager* p : members_) {
    if (p == nullptr) continue;
    if (!p->has_ws_estimate()) return;  // rebalance once everyone reported
    sum += p->ws_demand_pages();
  }
  if (sum == 0) return;
  for (Pager* p : members_) {
    if (p == nullptr) continue;
    const u64 target = cfg_.total_frames * p->ws_demand_pages() / sum;
    // Move halfway toward the WS-proportional target rather than jumping:
    // a fault-stalled process momentarily references few pages, and an
    // undamped cut would spiral it (smaller budget -> more stalls -> even
    // smaller estimate).
    // Round toward the target so repeated sweeps converge in both
    // directions instead of sticking one page away.
    const u64 current = p->frame_budget();
    const u64 damped = (current + target + (target > current ? 1 : 0)) / 2;
    p->set_frame_budget(std::max(cfg_.min_budget, damped));
  }
  rebalances_.add();
}

}  // namespace vmsls::paging
