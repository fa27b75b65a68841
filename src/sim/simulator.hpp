// Discrete-event simulation kernel.
//
// The simulated SoC advances on a single reference clock — the FPGA fabric
// clock. Components schedule closures at absolute or relative cycle counts;
// the kernel executes them in (time, insertion-order) order, which makes
// runs fully deterministic. Faster clock domains (the host CPU) are modeled
// by ratio conversion, see sim/clock.hpp.
//
// Internals (the fast path every simulated cycle goes through):
//
//   * Events live in pooled, recycled nodes — after warm-up the scheduler
//     performs zero heap allocations per event.
//   * Near-future events (within kWheelSlots cycles of now) go into a
//     timing wheel: one FIFO list per cycle slot, with an occupancy bitmap
//     so the next event is found by a find-first-set scan, not a heap
//     sift. Same-cycle FIFO order falls out of list append order. The
//     earliest wheel time is cached: an insert sets or lowers it, a pop
//     that empties a slot forgets it, and only then does the next query
//     rescan the bitmap, so try_advance_to's "anything due by t?" is O(1)
//     while the earliest event stays put.
//   * Far-future events (beyond the wheel horizon) fall back to a binary
//     heap keyed on (when, seq). When a wheel slot and the heap top tie on
//     time, the global sequence number arbitrates, so the (time,
//     insertion-order) contract holds across both structures.
//   * Callbacks are sim::EventFn (see event_fn.hpp): move-only with 56
//     bytes of inline storage, so typical closures never touch the heap.
//   * Run-ahead: a site that would schedule a closure at `t` and then
//     return (a tail call) may instead call try_advance_to(t) and, when it
//     holds, run the closure in place. The kernel grants this only while
//     it executes an event that holds the run-ahead token — one a
//     run-ahead site scheduled as its fallback (schedule_run_ahead) — and
//     only when no pending event, deadline or run_until predicate would
//     have come between. A granted advance is one logical event:
//     events_executed() counts it and every simulated result is unchanged;
//     events_scheduled() does not, so it measures host work, and
//     run_ahead_steps() counts the granted steps. The sites are the
//     hardware-thread engine's memory issue (Engine::issue_at), the MMU's
//     timed TLB hit (Mmu::translate), the page walker's setup delay
//     (PageWalker::begin) and a tail_call bus request's completion
//     (MemoryBus::request on an idle channel, MemoryBus::grant from the
//     queue: the port's data and the walker's PTE reads), and an episode's
//     next page touch (sls::EpisodeDriver::next). A one-request swap
//     transfer's completion (paging::SwapScheduler::dispatch) also holds
//     the token, so the touch that follows a swap-in runs ahead too. The
//     MMU and bus sites call their caller's continuation directly on a
//     granted step and type-erase it into an EventFn only for the fallback.
//   * Posted completions: a fire-and-forget bus write (an A/D write-back)
//     has nothing to run when it completes. post(t) stands for the no-op
//     event it would queue at `t` without queueing it: a small side heap
//     keyed on (when, insertion count) retires it at its place in the
//     (time, insertion-order) sequence, so events_executed(), idle(), the
//     livelock bound and the cycle a drain ends on are what the queued
//     no-op gave, and events_scheduled() skips it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace vmsls::sim {

/// Central event queue + simulated clock.
class Simulator {
 public:
  Simulator() = default;

  // The event queue stores closures that may capture `this`-pointers of
  // components; moving the simulator would not break that, but copying would
  // duplicate pending work, so both are disabled.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Cycles now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` cycles from now (0 = later this cycle,
  /// after all currently pending same-cycle events).
  void schedule_in(Cycles delay, EventFn fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Same-cycle completion: identical semantics to schedule_in(0) — the
  /// event runs this cycle, after everything already pending for this
  /// cycle — but names the intent at call sites (completions that carry
  /// no modeled latency yet must preserve event order, e.g. cache walks).
  void schedule_now(EventFn fn) { schedule_at(now_, std::move(fn)); }

  void schedule_at(Cycles when, EventFn fn) { insert(when, fn, false); }

  /// The fallback of a run-ahead site: schedule_at, but the event holds the
  /// run-ahead token while it runs. Only for closures that end in tail
  /// calls: nothing the closure calls may run more work after a callee
  /// that advances the clock returns.
  void schedule_run_ahead(Cycles when, EventFn fn) { insert(when, fn, true); }

  /// A posted completion at `when`: behaves as schedule_at(when, no-op) —
  /// a logical event that counts in events_executed() when its turn in
  /// (time, insertion-order) comes, keeps idle() false and a drain running
  /// until then, and is not counted when run(max) stops first — but takes
  /// no queue node and no events_scheduled() count.
  void post(Cycles when);

  /// Gives up the run-ahead token for the rest of the current event:
  /// try_advance_to fails until it returns. For a token-holding closure
  /// that reaches a continuation which is not a tail call (more work
  /// follows it at this cycle) or calls foreign code, such as the OS.
  void forgo_run_ahead() noexcept { token_ = false; }

  /// Moves now() to `t` as one logical event step, so the caller can run in
  /// place the closure it would otherwise schedule at `t`. True only inside
  /// a run()/drain()/run_until() loop, while the current event holds the
  /// run-ahead token, when no pending event is due at or before `t` (an
  /// equal-time one would run first), `t` is within the loop's deadline
  /// and run_until's predicate does not hold yet. Posted completions due
  /// at or before `t` retire first, as their no-op events would run first
  /// (the predicate reads simulated state, which they do not change). A
  /// success counts in events_executed() and in the same-cycle livelock
  /// bound, not in events_scheduled(). On false nothing changed: schedule
  /// the fallback.
  bool try_advance_to(Cycles t);

  /// Most events drain()/run_until() accept at one cycle; one more is a
  /// zero-time livelock. Real runs stay in the hundreds.
  static constexpr u64 kMaxSameCycleEvents = 1'000'000;

  /// Runs until the event queue drains or `max_cycles` elapse, silently
  /// stopping at the bound. Returns the number of events executed.
  u64 run(Cycles max_cycles = ~0ull);

  /// The drained-queue gate: steps until the event queue is empty (in-flight
  /// prefetches, pageouts, writebacks and pin releases all retire). Returns
  /// the number of events executed. Throws std::runtime_error, naming now(),
  /// the budget and the pending-event count, if the next event lies more
  /// than `max_cycles` past the call or more than kMaxSameCycleEvents
  /// events run at one cycle.
  u64 drain(Cycles max_cycles = 1'000'000'000ull);

  /// Steps until `done()` holds (checked before every event) under the same
  /// guards as drain(). Returns false when the queue empties first: a stall,
  /// which the caller names.
  template <class Done>
  bool run_until(Done done, Cycles max_cycles = 1'000'000'000ull) {
    const auto call = [](void* d) { return static_cast<bool>((*static_cast<Done*>(d))()); };
    return loop(max_cycles, true, call, &done);
  }

  /// Executes the single next event (a posted completion, when it comes
  /// first). Returns false if nothing is pending. Outside a loop nothing
  /// runs ahead.
  bool step();

  /// No queued event and no posted completion is pending.
  bool idle() const noexcept { return pending_ == 0 && posted_.empty(); }
  u64 events_executed() const noexcept { return events_executed_; }

  /// Total events ever handed to the scheduler: the host-work counter.
  /// Inline completion paths (see Mmu), granted run-ahead steps and posted
  /// completions bypass the scheduler entirely; tests assert this does not
  /// move on such paths.
  u64 events_scheduled() const noexcept { return next_seq_; }

  /// Granted try_advance_to steps: logical events that ran in place of the
  /// event their site would have queued. Counted in events_executed(), not
  /// in events_scheduled().
  u64 run_ahead_steps() const noexcept { return run_ahead_steps_; }

  /// Shared statistics registry for all components in this simulation.
  StatRegistry& stats() noexcept { return stats_; }
  const StatRegistry& stats() const noexcept { return stats_; }

  /// Cycle-domain trace state (see sim/trace.hpp). Disabled until a sink is
  /// attached; components register tracks here at construction.
  TraceContext& trace() noexcept { return trace_; }
  const TraceContext& trace() const noexcept { return trace_; }

 private:
  struct EventNode {
    Cycles when = 0;
    // Tie-break, FIFO among same-cycle events: the insertion count shifted
    // left once, with the run-ahead token in bit 0.
    u64 seq = 0;
    EventNode* next = nullptr;
    EventFn fn;
  };
  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };
  /// Min-heap order on (when, seq) for the far-future fallback heap.
  struct FarLater {
    bool operator()(const EventNode* a, const EventNode* b) const noexcept {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };
  /// A posted completion. `order` is the insertion count when it was
  /// posted: it runs after every event queued before it at its cycle and
  /// before every event queued after it.
  struct Posted {
    Cycles when = 0;
    u64 order = 0;
  };
  /// Min-heap order on (when, order) for the posted heap.
  struct PostedLater {
    bool operator()(const Posted& a, const Posted& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };

  static constexpr unsigned kWheelBits = 12;
  static constexpr u64 kWheelSlots = 1ull << kWheelBits;  // 4096-cycle horizon
  static constexpr u64 kWheelMask = kWheelSlots - 1;
  static constexpr u64 kWheelWords = kWheelSlots / 64;
  static constexpr std::size_t kSlabNodes = 512;  // pool growth granularity

  /// The state of the running loop() that try_advance_to consults.
  struct LoopFrame {
    Cycles deadline = 0;
    Cycles budget = 0;  // loop()'s max_cycles, for messages
    bool guarded = false;
    bool (*done)(void*) = nullptr;
    void* ctx = nullptr;
    Cycles last = 0;  // cycle of the last logical event
    u64 same = 0;     // logical events at `last`
  };

  /// Queues `fn` (moved from) at `when`.
  void insert(Cycles when, EventFn& fn, bool token);
  EventNode* acquire();
  void release(EventNode* n) noexcept;
  void grow_pool();

  /// Earliest pending wheel time; precondition: wheel_count_ > 0. Served
  /// from wheel_min_ while it is known, else one scan_wheel() refills it.
  Cycles next_wheel_time() const noexcept;
  /// The bitmap scan behind next_wheel_time: up to kWheelWords words from
  /// now()'s slot.
  Cycles scan_wheel() const noexcept;

  /// Detaches and returns the next event in (when, seq) order, or nullptr
  /// when the queue is empty or the next event lies beyond `deadline`.
  EventNode* pop_next(Cycles deadline);

  void execute(EventNode* n);

  /// Whether the earliest posted completion comes before every queued
  /// event; precondition: posted_ is not empty.
  bool posted_first() const noexcept;
  /// Retires the earliest posted completion as one logical event.
  void retire_posted();
  u64 pending_count() const noexcept { return pending_ + posted_.size(); }

  /// Moves now() to `t` and counts one logical event. Returns true when
  /// that event exceeds the running guarded loop's same-cycle bound.
  bool advance(Cycles t) noexcept;
  [[noreturn]] void fail(const LoopFrame& f, const std::string& why) const;
  [[noreturn]] void fail_livelock(const LoopFrame& f) const;

  /// The one step loop behind run(), drain() and run_until(): executes
  /// events until `done(ctx)` holds (never, when null), the queue empties,
  /// or the next event lies more than `max_cycles` past the call. With
  /// `guarded`, the budget and the same-cycle bound throw instead of
  /// stopping. Returns whether `done` was reached.
  bool loop(Cycles max_cycles, bool guarded, bool (*done)(void*), void* ctx);

  std::unique_ptr<Slot[]> wheel_;               // lazily sized to kWheelSlots
  std::array<u64, kWheelWords> occupied_{};     // bitmap over wheel slots
  std::vector<EventNode*> far_;                 // heap (FarLater) beyond horizon
  std::vector<Posted> posted_;                  // heap (PostedLater) of posted completions
  std::vector<std::unique_ptr<EventNode[]>> slabs_;  // pool backing store
  EventNode* free_ = nullptr;                   // recycled-node freelist
  u64 wheel_count_ = 0;
  u64 pending_ = 0;
  // The earliest wheel time, cached: an insert sets it (first event) or
  // lowers it, a pop that empties a slot forgets it, and next_wheel_time()
  // rescans only then. Absolute, so advancing now() keeps it valid.
  mutable Cycles wheel_min_ = 0;
  mutable bool wheel_min_known_ = false;

  Cycles now_ = 0;
  u64 next_seq_ = 0;
  u64 events_executed_ = 0;
  u64 run_ahead_steps_ = 0;
  LoopFrame* loop_ = nullptr;  // innermost running loop(), if any
  bool token_ = false;         // the current event holds the run-ahead token
  StatRegistry stats_;
  TraceContext trace_{&now_};
};

}  // namespace vmsls::sim
