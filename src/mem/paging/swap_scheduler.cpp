#include "mem/paging/swap_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vmsls::paging {

const char* swap_sched_name(SwapSchedPolicy policy) noexcept {
  switch (policy) {
    case SwapSchedPolicy::kFifo: return "fifo";
    case SwapSchedPolicy::kPriority: return "priority";
  }
  return "?";
}

const char* swap_req_class_name(SwapReqClass cls) noexcept {
  switch (cls) {
    case SwapReqClass::kDemandRead: return "demand_read";
    case SwapReqClass::kDemandWrite: return "demand_write";
    case SwapReqClass::kPrefetchRead: return "prefetch_read";
    case SwapReqClass::kWriteback: return "writeback";
  }
  return "?";
}

namespace {
unsigned class_rank(SwapReqClass cls) noexcept { return static_cast<unsigned>(cls); }
bool is_write_class(SwapReqClass cls) noexcept {
  return cls == SwapReqClass::kDemandWrite || cls == SwapReqClass::kWriteback;
}
}  // namespace

SwapScheduler::SwapScheduler(sim::Simulator& sim, const SwapConfig& cfg, u64 page_bytes,
                             std::string name)
    : sim_(sim),
      cfg_(cfg),
      page_bytes_(page_bytes),
      name_(std::move(name)),
      reads_(sim.stats().counter(name_ + ".reads")),
      writes_(sim.stats().counter(name_ + ".writes")),
      bytes_(sim.stats().counter(name_ + ".bytes")),
      queue_wait_(sim.stats().histogram(name_ + ".queue_wait")),
      queue_depth_(sim.stats().histogram(name_ + ".sched.queue_depth")),
      demand_reads_(sim.stats().counter(name_ + ".sched.demand_reads")),
      demand_writes_(sim.stats().counter(name_ + ".sched.demand_writes")),
      prefetch_reads_(sim.stats().counter(name_ + ".sched.prefetch_reads")),
      writebacks_(sim.stats().counter(name_ + ".sched.writebacks")),
      wb_promotions_(sim.stats().counter(name_ + ".sched.wb_promotions")),
      prefetch_promotions_(sim.stats().counter(name_ + ".sched.prefetch_promotions")) {
  require(cfg.bytes_per_cycle > 0, "swap device needs nonzero bandwidth");
  require(page_bytes > 0, "swap device needs a page size");
  require(cfg.cluster_pages > 0, "swap scheduler needs a nonzero cluster size");
  require(cfg.writeback_starvation_limit > 0,
          "swap scheduler needs a nonzero writeback starvation limit");
  for (unsigned i = 0; i < class_wait_.size(); ++i)
    class_wait_[i] = &sim.stats().histogram(
        name_ + ".sched.wait_" + swap_req_class_name(static_cast<SwapReqClass>(i)));
  trace_track_ = sim_.trace().track(name_);
}

unsigned SwapScheduler::register_owner(const std::string& owner_name) {
  require(owners_.size() < (1u << 16), "swap scheduler owner-id space exhausted");
  Owner o;
  o.name = owner_name;
  // The private single-owner case names its per-owner counters onto the
  // device's own aggregates ("pager.swap" + ".reads"); the registry hands
  // back the same object, which dispatch already bumps — alias, don't
  // double-count.
  Counter& reads = sim_.stats().counter(owner_name + ".swap.reads");
  Counter& writes = sim_.stats().counter(owner_name + ".swap.writes");
  Histogram& wait = sim_.stats().histogram(owner_name + ".swap.queue_wait");
  o.reads = (&reads == &reads_) ? nullptr : &reads;
  o.writes = (&writes == &writes_) ? nullptr : &writes;
  o.queue_wait = (&wait == &queue_wait_) ? nullptr : &wait;
  owners_.push_back(std::move(o));
  return static_cast<unsigned>(owners_.size() - 1);
}

u64 SwapScheduler::pack(unsigned owner, u64 vpn) const {
  if (owner >= owners_.size()) throw std::invalid_argument(name_ + ": unregistered swap owner");
  if (vpn >= (1ull << kOwnerShift))
    throw std::invalid_argument(name_ + ": vpn does not fit the key packing");
  return (static_cast<u64>(owner) << kOwnerShift) | vpn;
}

u64 SwapScheduler::slot_of(unsigned owner, u64 vpn) const noexcept {
  return owner < owners_.size() ? owners_[owner].slot_of.get(vpn) : kNone;
}

bool SwapScheduler::holds(unsigned owner, u64 vpn) const { return slot_of(owner, vpn) != kNone; }

void SwapScheduler::note_swapped(unsigned owner, u64 vpn) {
  const u64 key = pack(owner, vpn);
  Owner& o = owners_[owner];
  if (o.slot_of.get(vpn) == kNone) {
    if (slots_in_use_ >= cfg_.slot_limit)
      throw std::runtime_error(name_ + ": out of swap slots (" + std::to_string(slots_in_use_) +
                               "/" + std::to_string(cfg_.slot_limit) +
                               " in use) on swap-out from '" + o.name + "'");
    const u64 cluster = vpn / cfg_.cluster_pages;
    u64& region = o.region_of.at(cluster);
    if (region == kNone) {
      if (!free_regions_.empty()) {
        region = free_regions_.first();
        free_regions_.erase(region);
      } else {
        region = next_region_++;
      }
      cluster_of_region_.at(region) = cluster;
    }
    const u64 slot = region * cfg_.cluster_pages + vpn % cfg_.cluster_pages;
    o.slot_of.at(vpn) = slot;
    page_at_.at(slot) = key;
    ++region_pop_.at(region);
    ++slots_in_use_;
  }
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "slots_in_use",
                      static_cast<double>(slots_in_use_));
}

void SwapScheduler::free_slot(unsigned owner, u64 vpn) {
  Owner& o = owners_[owner];
  const u64 slot = o.slot_of.get(vpn);
  if (slot == kNone) return;
  const u64 region = slot / cfg_.cluster_pages;
  o.slot_of.at(vpn) = kNone;
  page_at_.at(slot) = kNone;
  --slots_in_use_;
  if (--region_pop_.at(region) == 0) {
    // Regions are per-owner: the emptied region was this owner's cluster.
    o.region_of.at(cluster_of_region_.get(region)) = kNone;
    cluster_of_region_.at(region) = kNone;
    free_regions_.insert(region);
  }
}

void SwapScheduler::read(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done,
                         u64 trace_id) {
  if (cls != SwapReqClass::kDemandRead && cls != SwapReqClass::kPrefetchRead)
    throw std::invalid_argument(name_ + ": reads must be demand or prefetch class");
  const u64 key = pack(owner, vpn);
  const u64 slot = slot_of(owner, vpn);
  if (slot == kNone)
    throw std::logic_error(name_ + ": swap-in of page not held for '" + owners_[owner].name +
                           "'");
  Request r;
  r.owner = owner;
  r.key = key;
  r.slot = slot;
  r.cls = cls;
  r.enqueued = sim_.now();
  r.trace_id = trace_id;
  r.done = std::move(done);
  queue_depth_.record(queue_.size());
  queue_.push_back(std::move(r));
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "queue", trace_id, vpn);
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "queue_depth",
                      static_cast<double>(queue_.size()));
  pump();
}

void SwapScheduler::write(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done,
                          u64 trace_id) {
  if (!is_write_class(cls))
    throw std::invalid_argument(name_ + ": writes must be demand-write or writeback class");
  note_swapped(owner, vpn);  // slot allocated at enqueue: holds() is true at once
  Request r;
  r.owner = owner;
  r.key = pack(owner, vpn);
  r.slot = slot_of(owner, vpn);
  r.cls = cls;
  r.enqueued = sim_.now();
  r.trace_id = trace_id;
  r.done = std::move(done);
  queue_depth_.record(queue_.size());
  queue_.push_back(std::move(r));
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "queue", trace_id, vpn);
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "queue_depth",
                      static_cast<double>(queue_.size()));
  pump();
}

std::size_t SwapScheduler::select_next() {
  if (cfg_.sched == SwapSchedPolicy::kFifo || queue_.size() == 1) return 0;
  // Priority: lowest class rank wins, FIFO within a class (strict < keeps
  // the earliest arrival). Linear scan — swap queues are short and the
  // order must be deterministic.
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i)
    if (class_rank(queue_[i].cls) < class_rank(queue_[best].cls)) best = i;
  // Starvation guard: priority is *bounded* reordering, not an absolute
  // one. A queued writeback holds a slot (and, demand-write class, a
  // suspended fault); a queued prefetch goes stale — the page gets
  // demanded before it lands — if higher-class traffic can bypass it
  // forever. The odometer counts dispatches that bypass the OLDEST queued
  // request (the queue front, whatever its class — sustained prefetch
  // streams must not starve a writeback either); after
  // `writeback_starvation_limit` bypasses the front goes next, so under
  // saturation every request's wait is bounded by (limit x its arrival
  // position) dispatches.
  if (best == 0) {
    wb_bypassed_ = 0;  // the oldest request is being served anyway
  } else if (++wb_bypassed_ >= cfg_.writeback_starvation_limit) {
    wb_promotions_.add();
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "wb_promotion", queue_[0].trace_id,
                        class_rank(queue_[0].cls));
    best = 0;
    wb_bypassed_ = 0;
  }
  return best;
}

void SwapScheduler::promote(unsigned owner, u64 vpn) {
  const u64 key = pack(owner, vpn);
  for (Request& r : queue_) {
    if (r.key == key && r.cls == SwapReqClass::kPrefetchRead) {
      r.cls = SwapReqClass::kDemandRead;
      prefetch_promotions_.add();
      VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "promote", r.trace_id, vpn);
      return;
    }
  }
}

void SwapScheduler::pump() {
  if (defer_ > 0 || in_flight_ || queue_.empty()) return;
  const std::size_t idx = select_next();
  std::vector<Request> batch = take_batch();
  batch.push_back(std::move(queue_[idx]));
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (!is_write_class(batch[0].cls)) {
    // Clustered swap-in: every queued read whose slot shares the selected
    // read's cluster region rides the same device operation, whatever its
    // class — adjacent slots stream in one access. Regions are per-owner,
    // so the batch never mixes owners. Slots were resolved at enqueue
    // (Request::slot), so this scan is compare-only.
    const u64 region = batch[0].slot / cfg_.cluster_pages;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (!is_write_class(it->cls) && it->slot / cfg_.cluster_pages == region) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  in_flight_ = true;
  dispatch(std::move(batch));
}

void SwapScheduler::dispatch(std::vector<Request> batch) {
  for (const Request& r : batch) {
    const Cycles waited = sim_.now() - r.enqueued;
    queue_wait_.record(waited);
    class_wait_[static_cast<unsigned>(r.cls)]->record(waited);
    Owner& o = owners_.at(r.owner);
    if (o.queue_wait != nullptr) o.queue_wait->record(waited);
    if (is_write_class(r.cls)) {
      (r.cls == SwapReqClass::kDemandWrite ? demand_writes_ : writebacks_).add();
      if (o.writes != nullptr) o.writes->add();
    } else {
      (r.cls == SwapReqClass::kDemandRead ? demand_reads_ : prefetch_reads_).add();
      if (o.reads != nullptr) o.reads->add();
    }
    VMSLS_TRACE_END(sim_.trace(), trace_track_, "queue", r.trace_id, r.key);
    VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "io", r.trace_id, class_rank(r.cls));
  }
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "queue_depth",
                      static_cast<double>(queue_.size()));
  // The batch rides into the completion, so trace ids and continuations
  // stay in the Requests and the closure holds only `this` and the vector.
  // A clustered read streams every page in one operation (one access
  // latency, then the whole run's bytes); all slots free at the shared
  // completion instant.
  const bool write = is_write_class(batch[0].cls);
  if (write) {
    // The slot was taken at enqueue, but a swap-in of the page may have
    // dispatched ahead of this write and freed it: the write holds it again.
    note_swapped(batch[0].owner, batch[0].key & kVpnMask);
    writes_.add();
  } else {
    reads_.add(batch.size());
  }
  const u64 bytes = batch.size() * page_bytes_;
  // A lone request's continuation is the completion's last act, so the
  // completion may hold the run-ahead token; a batch's run one after another.
  const bool alone = batch.size() == 1;
  transfer(write ? cfg_.write_latency : cfg_.read_latency, bytes, alone,
           [this, batch = std::move(batch)]() mutable { complete(batch); });
}

void SwapScheduler::complete(std::vector<Request>& batch) {
  if (!is_write_class(batch[0].cls)) {
    for (const Request& r : batch) free_slot(r.owner, r.key & kVpnMask);
    VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "slots_in_use",
                        static_cast<double>(slots_in_use_));
  }
  for (const Request& r : batch) VMSLS_TRACE_END(sim_.trace(), trace_track_, "io", r.trace_id);
  // Free the port and dispatch the next queued request *before* running
  // the requesters' continuations — a continuation that immediately
  // enqueues (fault chains do) must queue behind work that was already
  // waiting. Within a batch, continuations fire in batch order (selected
  // request first).
  in_flight_ = false;
  pump();
  for (Request& r : batch) r.done();
  recycle_batch(std::move(batch));
}

void SwapScheduler::transfer(Cycles latency, u64 bytes, bool run_ahead, sim::EventFn done) {
  bytes_.add(bytes);
  const Cycles at = sim_.now() + latency + bytes / cfg_.bytes_per_cycle;
  if (run_ahead)
    sim_.schedule_run_ahead(at, std::move(done));
  else
    sim_.schedule_at(at, std::move(done));
}

std::vector<SwapScheduler::Request> SwapScheduler::take_batch() {
  if (batch_pool_.empty()) return {};
  std::vector<Request> b = std::move(batch_pool_.back());
  batch_pool_.pop_back();
  return b;
}

void SwapScheduler::recycle_batch(std::vector<Request> batch) {
  batch.clear();
  if (batch_pool_.size() < 4) batch_pool_.push_back(std::move(batch));
}

u64 SwapScheduler::queue_depth_class(SwapReqClass cls) const noexcept {
  u64 n = 0;
  for (const Request& r : queue_)
    if (r.cls == cls) ++n;
  return n;
}

void SwapScheduler::neighbors(unsigned owner, u64 vpn, unsigned k,
                              std::vector<u64>& out) const {
  out.clear();
  const u64 slot = slot_of(owner, vpn);
  if (slot == kNone || k == 0) return;
  const u64 region_end = (slot / cfg_.cluster_pages + 1) * cfg_.cluster_pages;
  const u64 last = std::min(region_end - 1, slot + k);
  for (u64 s = slot + 1; s <= last; ++s) {
    const u64 page = page_at_.get(s);
    if (page != kNone) out.push_back(page & kVpnMask);  // same owner by construction
  }
}

u64 SwapScheduler::owner_reads(unsigned owner) const {
  const Owner& o = owners_.at(owner);
  return o.reads != nullptr ? o.reads->value() : reads_.value();
}

u64 SwapScheduler::owner_writes(unsigned owner) const {
  const Owner& o = owners_.at(owner);
  return o.writes != nullptr ? o.writes->value() : writes_.value();
}

}  // namespace vmsls::paging
