// Swap I/O: one device, N pagers, a real request queue.
//
// Models a single-ported block device (SD/flash-class on a Zynq board) and
// the queue in front of it, analogous to the shared memory bus:
//
//   * N pagers register as *owners* of one scheduler (per sls::Machine,
//     when `SwapConfig::shared` is set) or one pager uses a private
//     instance — the same code path either way, so a single-member shared
//     device is cycle-identical to a private one.
//   * Requests carry an owner and a class (demand read >> prefetch read >>
//     background writeback) and wait in a real request queue; a pluggable
//     dispatch policy (FIFO, or priority with a bounded-bypass
//     writeback-starvation guard) picks what the single device port
//     services next. Only an idle port dispatches, so one transfer is in
//     flight at a time: it pays a fixed access latency plus
//     bytes/bandwidth, and concurrent fault storms queue here exactly like
//     walker misses queue on the memory bus.
//   * A clustering slot allocator keeps a process's evicted
//     virtually-neighboring pages in adjacent numeric slots (per-owner
//     regions of `cluster_pages` slots keyed by vpn), so the pager's
//     readahead can ask for the `neighbors` of a demand swap-in and pull
//     the pages the process is statistically about to fault on.
//
// The scheduler tracks *which* pages the device holds (the slot table) and
// charges time; page *bytes* stay in the AddressSpace backing store, which
// plays the role of swap-file contents for the functional model. Pages are
// identified by (owner, vpn) pairs, packed into one u64 key where a request
// or a slot needs to name its page. The slot table is dense: each owner
// keeps vpn -> slot and cluster -> region tables, and the device keeps
// slot- and region-indexed tables plus a free-region bitmap. Per-owner
// counters land under "<owner>.swap.*" so per-process summaries keep
// working when the device itself is shared; in the private case those
// names coincide with the device's own and are aliased, not double-counted.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/index_table.hpp"
#include "util/stats.hpp"

namespace vmsls::paging {

/// Dispatch order for a SwapScheduler's request queue.
enum class SwapSchedPolicy {
  kFifo,      ///< strict arrival order, class-blind
  kPriority,  ///< demand reads >> fault-path demand writes >> prefetch
              ///< reads >> background writebacks, with a bounded-bypass
              ///< starvation guard on everything below demand reads
};

const char* swap_sched_name(SwapSchedPolicy policy) noexcept;

struct SwapConfig {
  Cycles read_latency = 4000;     // per-operation device access latency
  Cycles write_latency = 6000;    // writes are slower on flash-class media
  unsigned bytes_per_cycle = 4;   // transfer bandwidth across the device port
  u64 slot_limit = 1ull << 20;    // capacity in pages; exceeded = hard error

  // --- shared swap I/O subsystem knobs (threaded through PlatformSpec::pager.swap) ---

  /// The machine builds one device + scheduler all its pagers share ("one
  /// flash part, N pagers") instead of a private device per pager.
  bool shared = false;
  /// Request-queue dispatch policy.
  SwapSchedPolicy sched = SwapSchedPolicy::kFifo;
  /// Swap-in readahead: on each demand swap-in, prefetch up to this many
  /// neighboring slots (same owner, same cluster). 0 disables prefetch.
  unsigned readahead = 0;
  /// Slot-allocator clustering granularity: a process's evicted pages land
  /// in per-cluster regions of this many adjacent slots, keyed by vpn, so
  /// virtually-neighboring evictions occupy neighboring slots and
  /// readahead pulls pages the process is likely to touch next.
  u64 cluster_pages = 64;
  /// Priority mode: a queued writeback is dispatched after at most this
  /// many reads bypass it (the starvation guard).
  u64 writeback_starvation_limit = 8;
};

/// Request classes in descending dispatch priority (kPriority mode).
/// Demand *writes* are the fault path's eviction writebacks — a demand
/// fault is suspended on them, so only demand reads may bypass; kWriteback
/// is the pageout daemon's background cleaning, which everything bypasses
/// (up to the starvation guard).
enum class SwapReqClass { kDemandRead, kDemandWrite, kPrefetchRead, kWriteback };

const char* swap_req_class_name(SwapReqClass cls) noexcept;

class SwapScheduler {
 public:
  SwapScheduler(sim::Simulator& sim, const SwapConfig& cfg, u64 page_bytes, std::string name);

  SwapScheduler(const SwapScheduler&) = delete;
  SwapScheduler& operator=(const SwapScheduler&) = delete;

  const SwapConfig& config() const noexcept { return cfg_; }
  const std::string& name() const noexcept { return name_; }

  /// Registers a client (a pager). Registration order fixes owner ids —
  /// deterministic under the ProcessGroup's attach-order contract. The
  /// owner name prefixes that client's per-owner counters
  /// ("<owner_name>.swap.reads" / ".writes" / ".queue_wait").
  unsigned register_owner(const std::string& owner_name);

  /// True when the device holds a copy of the owner's page (slot allocated).
  /// False for an unregistered owner.
  bool holds(unsigned owner, u64 vpn) const;

  /// Slot bookkeeping without device time: pages evicted "by fiat" during
  /// experiment setup land in swap instantly, so later faults on them pay
  /// the swap-in cost. Re-noting a held page is a no-op; a new slot past
  /// `slot_limit` is a hard error naming the device, owner and usage.
  void note_swapped(unsigned owner, u64 vpn);

  /// Queues a timed page read (swap-in). Requires holds(owner, vpn); the
  /// slot stays held for the whole transfer and frees at its completion
  /// (a later eviction of the page re-writes it, so occupancy tracks pages
  /// that are out, not pages that ever were). When the read dispatches,
  /// any other queued reads on slots in the SAME cluster region ride along
  /// as one clustered device operation (one access latency, streamed
  /// bytes) — this is what makes readahead nearly free next to the demand
  /// read it follows. `trace_id` threads the requester's causal id through
  /// the "queue" and "io" trace spans (0 = untraced). `done` follows the
  /// run-ahead rule of complete().
  void read(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done, u64 trace_id = 0);

  /// Runs `fill` with dispatch deferred, then pumps once: requests enqueued
  /// inside land in the queue atomically, so a demand read and its
  /// readahead dispatch as one clustered operation instead of the first
  /// read racing out alone on an idle port.
  template <typename Fill>
  void batched(Fill&& fill) {
    ++defer_;
    fill();
    --defer_;
    pump();
  }

  /// Queues a timed page write (swap-out / writeback); `cls` must be
  /// kDemandWrite (fault-path eviction) or kWriteback (background
  /// cleaning). Allocates a slot at enqueue so holds() is immediately true.
  /// `done` follows the run-ahead rule of complete().
  void write(unsigned owner, u64 vpn, SwapReqClass cls, sim::EventFn done, u64 trace_id = 0);

  /// Upgrades a *queued* prefetch read for the page to demand class (a
  /// demand fault coalesced onto it): the waiter is now a stalled thread,
  /// not a guess. No-op when the request already dispatched or none exists.
  void promote(unsigned owner, u64 vpn);

  /// True while the port is mid-transfer or requests wait in the queue —
  /// the pageout daemons' yield signal, now device-wide.
  bool busy() const noexcept { return in_flight_ || !queue_.empty(); }

  /// Replaces `out` with the pages of `owner` occupying the `k` slots
  /// directly after `vpn`'s slot, in ascending slot order, clipped to the
  /// cluster region (clustering guarantees they belong to the same owner).
  /// The readahead candidates for a demand swap-in of `vpn`; empty when the
  /// owner is unregistered or does not hold `vpn`. A caller that reuses
  /// `out` allocates nothing once its capacity covers `k`.
  void neighbors(unsigned owner, u64 vpn, unsigned k, std::vector<u64>& out) const;

  // --- introspection ---
  /// Absent slot, region or page in the slot table.
  static constexpr u64 kNone = ~0ull;
  /// The numeric slot holding the owner's page; kNone when the page is not
  /// held or the owner is unregistered. Slot / cluster_pages is the region.
  u64 slot_of(unsigned owner, u64 vpn) const noexcept;
  u64 reads() const noexcept { return reads_.value(); }
  u64 writes() const noexcept { return writes_.value(); }
  u64 slots_in_use() const noexcept { return slots_in_use_; }
  u64 queue_depth() const noexcept { return queue_.size(); }
  /// Queued requests of one class (telemetry probe; linear scan — swap
  /// queues are short).
  u64 queue_depth_class(SwapReqClass cls) const noexcept;
  u64 owners() const noexcept { return static_cast<u64>(owners_.size()); }
  u64 owner_reads(unsigned owner) const;
  u64 owner_writes(unsigned owner) const;
  u64 wb_promotions() const noexcept { return wb_promotions_.value(); }

 private:
  static constexpr unsigned kOwnerShift = 44;  // vpns fit far below 2^44
  static constexpr u64 kVpnMask = (1ull << kOwnerShift) - 1;

  struct Request {
    unsigned owner = 0;
    u64 key = 0;
    /// The key's swap slot, resolved once at enqueue. Valid for the queued
    /// request's whole lifetime: a held page's slot never moves, and the
    /// only free is the page's own read completion — so dispatch clusters
    /// on this field instead of re-probing the slot table per request.
    u64 slot = 0;
    SwapReqClass cls = SwapReqClass::kDemandRead;
    Cycles enqueued = 0;
    u64 trace_id = 0;  // requester's causal trace id (0 = untraced)
    sim::EventFn done;
  };

  /// Per-owner counters and slot-table index. Null counter pointers mean
  /// the name aliased the device's own aggregate counter (the private
  /// single-owner case), which is already bumped, so the owner's must not
  /// be bumped again.
  struct Owner {
    std::string name;
    Counter* reads = nullptr;
    Counter* writes = nullptr;
    Histogram* queue_wait = nullptr;
    IndexTable<u64> slot_of{kNone};    // vpn -> numeric slot
    IndexTable<u64> region_of{kNone};  // vpn / cluster_pages -> region
  };

  u64 pack(unsigned owner, u64 vpn) const;
  void free_slot(unsigned owner, u64 vpn);
  /// Occupies the device port for one operation: the access latency plus
  /// `bytes` at the configured bandwidth; `done` fires at completion,
  /// holding the run-ahead token with `run_ahead`.
  void transfer(Cycles latency, u64 bytes, bool run_ahead, sim::EventFn done);
  std::size_t select_next();
  void pump();
  /// Issues one device operation: a single write, or a read batch (the
  /// selected read plus every queued same-cluster read) as one clustered
  /// transfer. `batch[0]` is the selected request.
  void dispatch(std::vector<Request> batch);
  /// The operation's completion: frees a read batch's slots, frees the
  /// port, dispatches the next request, then runs the continuations. A
  /// one-request batch's completion holds the run-ahead token (see
  /// sim::Simulator::schedule_run_ahead), so its continuation may run the
  /// requester's next step in place: a continuation that reaches more work
  /// after a callee that could advance the clock, or that calls foreign
  /// code (the OS, a DMA driver), calls forgo_run_ahead() first.
  void complete(std::vector<Request>& batch);
  /// Batch-vector recycling: dispatch hands its vector (and the Requests'
  /// heap nodes) back after completion, so steady-state fault traffic
  /// allocates no batch storage.
  std::vector<Request> take_batch();
  void recycle_batch(std::vector<Request> batch);

  sim::Simulator& sim_;
  SwapConfig cfg_;
  u64 page_bytes_;
  std::string name_;
  sim::TraceTrack trace_track_ = 0;
  std::vector<Owner> owners_;

  /// Queued requests in arrival order. A few entries deep; priority
  /// dispatch and cluster batching remove from the middle, and the vector
  /// keeps its capacity.
  std::vector<Request> queue_;
  std::vector<std::vector<Request>> batch_pool_;  // recycled dispatch batches
  bool in_flight_ = false;
  unsigned defer_ = 0;  // batched() scope depth: pump waits for the scope end
  /// Dispatches that bypassed the oldest queued request (the queue front,
  /// whatever its class) — the starvation-guard odometer. Bounds the wait
  /// of writebacks AND prefetches that higher-class traffic would
  /// otherwise bypass forever.
  u64 wb_bypassed_ = 0;

  // --- clustering slot allocator (the device's slot table) ---
  IndexTable<u64> page_at_{kNone};            // numeric slot -> packed key
  IndexTable<u64> cluster_of_region_{kNone};  // region -> its owner's cluster (for freeing)
  IndexTable<u64> region_pop_;                // region -> slots in use
  IndexBitmap free_regions_;                  // lowest-first reuse: deterministic
  u64 next_region_ = 0;
  u64 slots_in_use_ = 0;

  Counter& reads_;  // pages transferred, device-wide
  Counter& writes_;
  Counter& bytes_;
  Histogram& queue_wait_;
  Histogram& queue_depth_;
  /// Queue wait split by request class ("<name>.sched.wait_<class>"): the
  /// fault-path latency attribution serving-mode tail analysis reads — a
  /// demand read stuck behind writebacks shows here, not in the aggregate.
  std::array<Histogram*, 4> class_wait_{};
  Counter& demand_reads_;
  Counter& demand_writes_;
  Counter& prefetch_reads_;
  Counter& writebacks_;
  Counter& wb_promotions_;
  Counter& prefetch_promotions_;
};

}  // namespace vmsls::paging
