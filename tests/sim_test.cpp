#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace vmsls::sim {
namespace {

TEST(Simulator, StartsAtCycleZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(10, [&] { order.push_back(2); });
  s.schedule_in(5, [&] { order.push_back(1); });
  s.schedule_in(20, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 20u);
}

TEST(Simulator, SameCycleIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_in(7, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ZeroDelayRunsLaterSameCycle) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(0, [&] {
    order.push_back(1);
    s.schedule_in(0, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 0u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  s.schedule_in(1, [&] {
    ++fired;
    s.schedule_in(4, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 5u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_in(10, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5, [] {}), std::logic_error);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_in(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunRespectsDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule_in(10, [&] { ++fired; });
  s.schedule_in(100, [&] { ++fired; });
  s.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.idle());
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsEventsExecuted) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(static_cast<Cycles>(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator s;
    std::vector<Cycles> times;
    for (int i = 0; i < 50; ++i)
      s.schedule_in(static_cast<Cycles>((i * 37) % 17), [&times, &s] { times.push_back(s.now()); });
    s.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, StatsRegistryShared) {
  Simulator s;
  s.stats().counter("x").add(3);
  EXPECT_EQ(s.stats().counter_value("x"), 3u);
}

// --- calendar-wheel internals: far-future heap fallback and its seams ---

TEST(Simulator, FarFutureEventsBeyondWheelHorizon) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(1'000'000, [&] { order.push_back(3); });  // far beyond the wheel
  s.schedule_in(5'000, [&] { order.push_back(2); });      // just beyond the wheel
  s.schedule_in(10, [&] { order.push_back(1); });         // in the wheel
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 1'000'000u);
}

TEST(Simulator, SameCycleFifoAcrossWheelHeapBoundary) {
  // First event lands at t=6000 while that cycle is beyond the wheel
  // horizon (heap); the second is scheduled for the same cycle later, from
  // t=5000, when it falls inside the wheel. FIFO order must still hold.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(6'000, [&] { order.push_back(1); });
  s.schedule_at(5'000, [&] { s.schedule_at(6'000, [&] { order.push_back(2); }); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, WheelWrapsAcrossManyHorizons) {
  // A chain that hops forward by more than the wheel size each time,
  // exercising slot reuse across wraps.
  Simulator s;
  int fired = 0;
  EventFn hop = [&] {
    ++fired;
    if (fired < 10) {
      s.schedule_in(4'096 + 7, [&] {
        ++fired;
        if (fired < 10) s.schedule_in(13, [&] { ++fired; });
      });
    }
  };
  s.schedule_in(1, std::move(hop));
  s.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), 1u + 4'096u + 7u + 13u);
}

TEST(Simulator, ScheduleNowRunsAfterPendingSameCycleEvents) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(5, [&] {
    order.push_back(1);
    s.schedule_now([&] { order.push_back(3); });
  });
  s.schedule_in(5, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 5u);
}

TEST(Simulator, NodeRecyclingAcrossManyEvents) {
  // Far more events than one pool slab, all recycled; counts must balance.
  Simulator s;
  u64 sink = 0;
  for (int round = 0; round < 8; ++round) {
    for (u64 i = 0; i < 2'000; ++i) s.schedule_in(i % 131, [&sink] { ++sink; });
    s.run();
  }
  EXPECT_EQ(sink, 16'000u);
  EXPECT_EQ(s.events_executed(), 16'000u);
  EXPECT_EQ(s.events_scheduled(), 16'000u);
}

TEST(Simulator, ThrowingEventPropagatesAndQueueSurvives) {
  Simulator s;
  int fired = 0;
  s.schedule_in(1, [] { throw std::runtime_error("trap"); });
  s.schedule_in(2, [&] { ++fired; });
  s.schedule_in(3, [] { throw std::runtime_error("trap"); });
  s.schedule_in(4, [&] { ++fired; });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_THROW(s.drain(), std::runtime_error);  // the guarded loop propagates too
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.drain(), 1u);  // the remaining event is still runnable
  EXPECT_EQ(fired, 2);
}

// --- drain / run_until: the guarded run loop ---

TEST(Simulator, DrainReturnsEventsExecutedAndLeavesItIdle) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(static_cast<Cycles>(10 * i), [] {});
  s.schedule_in(9000, [] {});  // beyond the wheel horizon
  EXPECT_EQ(s.drain(), 6u);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.now(), 9000u);
  EXPECT_EQ(s.drain(), 0u);  // an empty queue drains trivially
}

TEST(Simulator, DrainBudgetThrowsOnSelfReschedulingFarEvent) {
  Simulator s;
  std::function<void()> tick = [&] { s.schedule_in(5000, tick); };
  s.schedule_in(5000, tick);
  try {
    s.drain(100'000);
    FAIL() << "drain must throw past its budget";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("budget 100000 cycles"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 events pending"), std::string::npos) << msg;
  }
  EXPECT_LE(s.now(), 100'000u);  // the event past the budget never ran
  EXPECT_FALSE(s.idle());
}

TEST(Simulator, ZeroTimeLivelockThrowsNamingTheCount) {
  Simulator s;
  u64 fired = 0;
  std::function<void()> spin = [&] {
    ++fired;
    s.schedule_now(spin);
  };
  s.schedule_in(3, spin);
  try {
    s.drain();
    FAIL() << "a zero-time loop must not drain";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(Simulator::kMaxSameCycleEvents) + " events"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("now 3,"), std::string::npos) << msg;
  }
  EXPECT_EQ(fired, Simulator::kMaxSameCycleEvents + 1);
  EXPECT_EQ(s.now(), 3u);
}

TEST(Simulator, RunUntilStopsAtThePredicateOrReportsAStall) {
  Simulator s;
  int fired = 0;
  for (int i = 1; i <= 4; ++i) s.schedule_in(static_cast<Cycles>(i), [&] { ++fired; });
  EXPECT_TRUE(s.run_until([&] { return fired == 2; }));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 2u);
  EXPECT_TRUE(s.run_until([] { return true; }));  // already holds: no event runs
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.run_until([&] { return fired == 10; }));  // queue empties first
  EXPECT_EQ(fired, 4);
  EXPECT_TRUE(s.idle());
}

// --- run-ahead: try_advance_to ---

TEST(RunAhead, TokenEventAdvancesAsOneLogicalEventAndQueuesNothing) {
  Simulator s;
  Cycles at = 0;
  s.schedule_run_ahead(2, [&] {
    ASSERT_TRUE(s.try_advance_to(7));
    at = s.now();
  });
  s.schedule_in(8, [] {});
  const u64 scheduled = s.events_scheduled();
  EXPECT_EQ(s.drain(), 3u);  // the token event, its run-ahead step, the event at 8
  EXPECT_EQ(at, 7u);
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(s.events_scheduled(), scheduled);  // the step is host work saved
  EXPECT_EQ(s.now(), 8u);
}

TEST(RunAhead, RefusesWhenAnEventIsDueAtOrBeforeTheTarget) {
  Simulator s;
  std::vector<bool> granted;
  s.schedule_run_ahead(1, [&] {
    granted.push_back(s.try_advance_to(5));  // the event at 5 would run first
    granted.push_back(s.try_advance_to(9));
    granted.push_back(s.try_advance_to(4));
  });
  s.schedule_in(5, [] {});
  s.drain();
  EXPECT_EQ(granted, (std::vector<bool>{false, false, true}));

  // The same for an event parked in the far-future heap.
  Simulator far;
  granted.clear();
  far.schedule_run_ahead(1, [&] {
    granted.push_back(far.try_advance_to(6000));
    granted.push_back(far.try_advance_to(5999));
  });
  far.schedule_in(6000, [] {});
  far.drain();
  EXPECT_EQ(granted, (std::vector<bool>{false, true}));
}

TEST(RunAhead, RefusesPastTheRunDeadline) {
  Simulator s;
  std::vector<bool> granted;
  s.schedule_run_ahead(5, [&] {
    granted.push_back(s.try_advance_to(11));
    granted.push_back(s.try_advance_to(10));
  });
  s.run(10);  // deadline: cycle 10
  EXPECT_EQ(granted, (std::vector<bool>{false, true}));
  EXPECT_EQ(s.now(), 10u);
}

TEST(RunAhead, RefusesOnceRunUntilsPredicateHolds) {
  Simulator s;
  bool stop = false;
  std::vector<bool> granted;
  s.schedule_run_ahead(1, [&] {
    granted.push_back(s.try_advance_to(2));
    stop = true;
    granted.push_back(s.try_advance_to(3));
  });
  EXPECT_TRUE(s.run_until([&] { return stop; }));
  EXPECT_EQ(granted, (std::vector<bool>{true, false}));
  EXPECT_EQ(s.now(), 2u);
}

TEST(RunAhead, RefusesOutsideALoopAndWithoutTheToken) {
  Simulator s;
  std::vector<bool> granted;
  EXPECT_FALSE(s.try_advance_to(1));  // no event is running
  s.schedule_run_ahead(1, [&] {
    granted.push_back(s.try_advance_to(2));  // run by step(): no loop
  });
  EXPECT_TRUE(s.step());
  s.schedule_at(3, [&] {
    granted.push_back(s.try_advance_to(4));  // a plain event holds no token
  });
  s.schedule_run_ahead(5, [&] {
    // An event the token event schedules does not inherit the token.
    s.schedule_now([&] { granted.push_back(s.try_advance_to(6)); });
  });
  s.drain();
  EXPECT_EQ(granted, (std::vector<bool>{false, false, false}));
  EXPECT_EQ(s.now(), 5u);
}

TEST(RunAhead, ZeroTimeRunAheadLoopTripsTheSameCycleGuard) {
  Simulator s;
  u64 steps = 0;
  s.schedule_run_ahead(3, [&] {
    while (s.try_advance_to(s.now())) ++steps;
  });
  try {
    s.drain();
    FAIL() << "a zero-time run-ahead loop must not drain";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(Simulator::kMaxSameCycleEvents) + " events"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("now 3,"), std::string::npos) << msg;
  }
  // The token event is the first logical event at cycle 3.
  EXPECT_EQ(steps, Simulator::kMaxSameCycleEvents - 1);
}

TEST(RunAhead, ForgoneTokenRefusesForTheRestOfTheEvent) {
  Simulator s;
  std::vector<bool> granted;
  s.schedule_run_ahead(1, [&] {
    granted.push_back(s.try_advance_to(2));
    s.forgo_run_ahead();
    granted.push_back(s.try_advance_to(3));
  });
  s.schedule_run_ahead(4, [&] { granted.push_back(s.try_advance_to(5)); });  // its own token
  s.drain();
  EXPECT_EQ(granted, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(s.now(), 5u);
}

// --- the cached earliest wheel time, against a brute-force model ---

/// Queues token-holding events and probes try_advance_to, checking every
/// answer against a model that keeps each pending event's time: nothing is
/// due by `t` when the earliest pending time exceeds it. Events record
/// (time, insertion id) as they run, which must come out sorted.
class WheelModel {
 public:
  explicit WheelModel(Simulator& s) : s_(s) {}

  /// Queues an event at absolute cycle `when` that runs `body`.
  void at(Cycles when, std::function<void()> body = {}) {
    const u64 id = next_id_++;
    pending_.insert(when);
    s_.schedule_run_ahead(when, [this, when, id, body = std::move(body)] {
      EXPECT_EQ(s_.now(), when);
      pending_.erase(pending_.find(when));
      ran_.emplace_back(when, id);
      if (body) body();
    });
  }

  /// try_advance_to(t), which must hold exactly when the model has nothing
  /// due by `t`; returns the answer.
  bool probe(Cycles t) {
    const bool expect = pending_.empty() || *pending_.begin() > t;
    const Cycles was = s_.now();
    const bool granted = s_.try_advance_to(t);
    EXPECT_EQ(granted, expect) << "try_advance_to(" << t << ") at cycle " << was
                               << ", earliest pending "
                               << (pending_.empty() ? 0 : *pending_.begin());
    EXPECT_EQ(s_.now(), granted ? t : was);
    return granted;
  }

  Cycles earliest() const { return pending_.empty() ? ~0ull : *pending_.begin(); }
  u64 created() const { return next_id_; }
  const std::vector<std::pair<Cycles, u64>>& ran() const { return ran_; }

 private:
  Simulator& s_;
  std::multiset<Cycles> pending_;
  std::vector<std::pair<Cycles, u64>> ran_;
  u64 next_id_ = 0;
};

TEST(RunAhead, CachedWheelTimeMatchesABruteForceModel) {
  Simulator s;
  WheelModel m(s);
  m.at(1, [&] {
    // An earlier insert after the earliest time was cached.
    m.at(200);
    EXPECT_TRUE(m.probe(150));
    m.at(170, [&] {
      // The slot at 170 drained to empty: the next earliest is 200.
      EXPECT_TRUE(m.probe(190));
      EXPECT_FALSE(m.probe(200));
    });
    EXPECT_FALSE(m.probe(180));
    EXPECT_TRUE(m.probe(160));
    m.at(4000, [&] {
      // The slot at 4000 drained; the earliest wheel time lies past the wrap.
      EXPECT_TRUE(m.probe(4150));
      EXPECT_FALSE(m.probe(4200));
      m.at(4500);  // within the horizon now: a wheel twin of the far event
    });
    m.at(4200, [&] {  // slot 104: the scan from slot 4000 wraps to find it
      // The far heap and the wheel tie at 4500; the far event runs first.
      EXPECT_TRUE(m.probe(4499));
      EXPECT_FALSE(m.probe(4500));
    });
    m.at(4500, [&] {  // beyond the horizon: the far heap
      EXPECT_FALSE(m.probe(4500));  // its wheel twin, queued later, is due too
    });
  });
  s.drain();
  ASSERT_EQ(m.created(), 7u);
  EXPECT_EQ(m.ran().size(), 7u);
  EXPECT_TRUE(std::is_sorted(m.ran().begin(), m.ran().end()));

  // Then a seeded mix: events inserted near, around the horizon and far,
  // probes at and around the earliest pending time, each event doing more.
  Simulator r;
  WheelModel mr(r);
  u64 x = 88172645463325252ull;  // xorshift64
  const auto rnd = [&x](u64 n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % n;
  };
  std::function<void()> act = [&] {
    for (u64 k = rnd(5); k > 0; --k) {
      if (mr.created() < 3000 && rnd(3) != 0) {
        const Cycles spans[] = {3, 64, 4096, 9000};
        const Cycles base = rnd(4) == 0 ? 4090 : 0;
        mr.at(r.now() + base + rnd(spans[rnd(4)]), act);
      } else {
        const Cycles e = mr.earliest();
        Cycles t = e == ~0ull ? r.now() + rnd(5000) : e - 1 + rnd(3);
        if (rnd(4) == 0) t = r.now() + rnd(9000);
        if (t >= r.now()) mr.probe(t);
      }
    }
  };
  for (Cycles t = 0; t < 8; ++t) mr.at(t * 1000, act);
  r.drain();
  EXPECT_GT(mr.created(), 1000u);
  EXPECT_EQ(mr.ran().size(), mr.created());
  EXPECT_TRUE(std::is_sorted(mr.ran().begin(), mr.ran().end()));
}

// --- posted completions: post(t) must behave as a queued no-op at t ---

/// What a scenario leaves observable: logical events, queued events, the
/// final cycle and whether anything is still pending.
struct Seen {
  u64 executed = 0;
  u64 scheduled = 0;
  Cycles now = 0;
  bool idle = false;
  bool operator==(const Seen&) const = default;
};

Seen seen(const Simulator& s) {
  return Seen{s.events_executed(), s.events_scheduled(), s.now(), s.idle()};
}

TEST(PostedCompletion, CountsOnceInExecutedAndNeverInScheduled) {
  Simulator s;
  s.schedule_in(3, [&] { s.post(9); });
  EXPECT_EQ(s.drain(), 2u);  // the event at 3 and the posted completion at 9
  EXPECT_EQ(seen(s), (Seen{2, 1, 9, true}));

  Simulator twin;  // the queued no-op it stands for
  twin.schedule_in(3, [&] { twin.schedule_at(9, [] {}); });
  EXPECT_EQ(twin.drain(), 2u);
  EXPECT_EQ(seen(twin), (Seen{2, 2, 9, true}));
}

TEST(PostedCompletion, DrainEndsAtItsCycleWhenItIsLastPending) {
  Simulator s;
  s.schedule_in(2, [&] {
    s.post(40);
    s.post(15);
  });
  s.schedule_in(20, [] {});
  EXPECT_EQ(s.run(10), 1u);
  EXPECT_FALSE(s.idle());  // the posted completions keep it busy
  EXPECT_EQ(s.drain(), 3u);
  EXPECT_EQ(s.now(), 40u);
  EXPECT_TRUE(s.idle());

  // A guarded loop treats one past its budget as any pending event.
  Simulator late;
  late.schedule_in(1, [&] { late.post(500); });
  EXPECT_THROW(late.drain(100), std::runtime_error);
}

TEST(PostedCompletion, RunStoppingBeforeItHasNotCountedItYet) {
  Simulator s;
  s.schedule_in(1, [&] { s.post(8); });
  EXPECT_EQ(s.run(5), 1u);
  EXPECT_EQ(seen(s), (Seen{1, 1, 1, false}));  // run() leaves now() at its last event
  EXPECT_EQ(s.run(), 1u);  // now it retires
  EXPECT_EQ(seen(s), (Seen{2, 1, 8, true}));
}

TEST(PostedCompletion, EqualTimeEventsKeepTheirInsertionOrder) {
  // Queued before the post runs first, queued after it runs after it;
  // step() shows each logical event alone.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(5, [&] { order.push_back(1); });
  s.post(5);
  s.schedule_at(5, [&] { order.push_back(2); });
  ASSERT_TRUE(s.step());
  EXPECT_EQ(order, (std::vector<int>{1}));
  ASSERT_TRUE(s.step());  // the posted completion
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.events_executed(), 2u);
  ASSERT_TRUE(s.step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(s.step());

  // run_until stops before a posted completion queued after the event
  // that made its predicate hold, as it would before the no-op.
  Simulator u;
  bool stop = false;
  u.schedule_at(4, [&] {
    stop = true;
    u.post(4);
  });
  EXPECT_TRUE(u.run_until([&] { return stop; }));
  EXPECT_EQ(seen(u), (Seen{1, 1, 4, false}));
  u.drain();
  EXPECT_EQ(u.events_executed(), 2u);
}

TEST(PostedCompletion, RunAheadRetiresThoseDueByItsTargetFirst) {
  // A posted completion does not block a run-ahead step past it: it
  // retires first, as its no-op would have run before the step's closure.
  Simulator s;
  std::vector<bool> granted;
  s.schedule_run_ahead(1, [&] {
    s.post(3);
    s.post(12);
    granted.push_back(s.try_advance_to(6));
    granted.push_back(s.events_executed() == 3);  // the token event, 3, the step
  });
  s.drain();
  EXPECT_EQ(granted, (std::vector<bool>{true, true}));
  EXPECT_EQ(seen(s), (Seen{4, 1, 12, true}));
}

// --- EventFn: small-buffer, move-only callback type ---

TEST(EventFn, InlineForSmallCallables) {
  struct Small {
    u64 a, b, c;
    u64* out;
    void operator()() { *out = a + b + c; }
  };
  static_assert(EventFn::fits_inline<Small>());
  u64 result = 0;
  EventFn fn = Small{1, 2, 3, &result};
  fn();
  EXPECT_EQ(result, 6u);
}

TEST(EventFn, HeapFallbackForLargeCallables) {
  struct Big {
    u64 pad[16];
    u64* out;
    void operator()() { *out = pad[0] + pad[15]; }
  };
  static_assert(!EventFn::fits_inline<Big>());
  u64 result = 0;
  Big big{};
  big.pad[0] = 40;
  big.pad[15] = 2;
  big.out = &result;
  EventFn fn = big;
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  moved();
  EXPECT_EQ(result, 42u);
}

TEST(EventFn, MoveOnlyCapturesWork) {
  auto payload = std::make_unique<int>(7);
  int result = 0;
  EventFn fn = [p = std::move(payload), &result] { result = *p; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(result, 7);
}

TEST(EventFn, MovesKeepExactlyOneOwnerOfACapture) {
  // A trivially copyable closure moves by copying its buffer; one with a
  // non-trivial capture goes through its relocate function. Either way a
  // chain of moves leaves one live callable, and reset releases it.
  u64 sum = 0;
  EventFn trivial = [&sum, a = u64{40}, b = u64{2}] { sum = a + b; };
  EventFn hop = std::move(trivial);
  EventFn last = std::move(hop);
  EXPECT_FALSE(static_cast<bool>(trivial));
  EXPECT_FALSE(static_cast<bool>(hop));
  last();
  EXPECT_EQ(sum, 42u);

  auto owner = std::make_shared<int>(5);
  int seen = 0;
  EventFn shared = [p = owner, &seen] { seen = *p; };
  EXPECT_EQ(owner.use_count(), 2);
  EventFn moved = std::move(shared);
  EventFn again = std::move(moved);
  EXPECT_EQ(owner.use_count(), 2);
  again();
  EXPECT_EQ(seen, 5);
  again.reset();
  EXPECT_EQ(owner.use_count(), 1);
}

TEST(EventFn, SchedulableWithMoveOnlyCapture) {
  Simulator s;
  auto payload = std::make_unique<int>(9);
  int result = 0;
  s.schedule_in(3, [p = std::move(payload), &result] { result = *p; });
  s.run();
  EXPECT_EQ(result, 9);
}

// --- clock domains ---

TEST(ClockDomain, UnityRatioIsIdentity) {
  ClockDomain c{1, 1};
  EXPECT_EQ(c.to_ref(17), 17u);
  EXPECT_EQ(c.from_ref(17), 17u);
}

TEST(ClockDomain, FasterDomainCompressesToRef) {
  ClockDomain cpu{10, 3};  // 3.33x faster than fabric
  EXPECT_EQ(cpu.to_ref(10), 3u);   // 10 CPU cycles = 3 fabric cycles
  EXPECT_EQ(cpu.to_ref(1), 1u);    // rounds up
  EXPECT_EQ(cpu.to_ref(11), 4u);   // 3.3 -> 4
  EXPECT_EQ(cpu.from_ref(3), 10u);
}

TEST(ClockDomain, RatioValue) {
  ClockDomain c{10, 3};
  EXPECT_NEAR(c.ratio(), 3.333, 0.001);
}

TEST(ClockDomain, ToRefNeverLosesWork) {
  ClockDomain c{7, 2};
  for (Cycles local = 1; local < 100; ++local) {
    const Cycles ref = c.to_ref(local);
    // Converting back must cover at least the original local cycles.
    EXPECT_GE(c.from_ref(ref) + 1, local);
  }
}

}  // namespace
}  // namespace vmsls::sim
