#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

namespace vmsls::sim {

void Simulator::grow_pool() {
  if (wheel_ == nullptr) wheel_ = std::make_unique<Slot[]>(kWheelSlots);
  slabs_.push_back(std::make_unique<EventNode[]>(kSlabNodes));
  EventNode* slab = slabs_.back().get();
  for (std::size_t i = 0; i < kSlabNodes; ++i) {
    slab[i].next = free_;
    free_ = &slab[i];
  }
}

Simulator::EventNode* Simulator::acquire() {
  if (free_ == nullptr) grow_pool();
  EventNode* n = free_;
  free_ = n->next;
  return n;
}

void Simulator::release(EventNode* n) noexcept {
  n->fn.reset();
  n->next = free_;
  free_ = n;
}

void Simulator::insert(Cycles when, EventFn& fn, bool token) {
  ensure(when >= now_, "cannot schedule an event in the past");
  EventNode* n = acquire();
  n->when = when;
  n->seq = (next_seq_++ << 1) | (token ? 1 : 0);
  n->fn = std::move(fn);
  n->next = nullptr;
  ++pending_;
  if (when - now_ < kWheelSlots) {
    // A slot holds exactly one cycle's FIFO list: a new event for cycle
    // t + kWheelSlots cannot be scheduled until every event at t has run.
    if (wheel_count_ == 0 || (wheel_min_known_ && when < wheel_min_)) {
      wheel_min_ = when;
      wheel_min_known_ = true;
    }
    Slot& s = wheel_[when & kWheelMask];
    if (s.head == nullptr) {
      s.head = s.tail = n;
      occupied_[(when & kWheelMask) >> 6] |= 1ull << (when & 63);
    } else {
      s.tail->next = n;
      s.tail = n;
    }
    ++wheel_count_;
  } else {
    far_.push_back(n);
    std::push_heap(far_.begin(), far_.end(), FarLater{});
  }
}

void Simulator::post(Cycles when) {
  ensure(when >= now_, "cannot post a completion in the past");
  posted_.push_back(Posted{when, next_seq_});
  std::push_heap(posted_.begin(), posted_.end(), PostedLater{});
}

Cycles Simulator::next_wheel_time() const noexcept {
  if (!wheel_min_known_) {
    wheel_min_ = scan_wheel();
    wheel_min_known_ = true;
  }
  return wheel_min_;
}

Cycles Simulator::scan_wheel() const noexcept {
  const u64 start = now_ & kWheelMask;
  const u64 start_word = start >> 6;
  u64 w = start_word;
  u64 word = occupied_[w] & (~0ull << (start & 63));
  while (word == 0) {
    w = (w + 1) & (kWheelWords - 1);
    word = occupied_[w];
    if (w == start_word) {
      // Full wrap: only bits below the start position remain to check.
      word &= (start & 63) != 0 ? ~(~0ull << (start & 63)) : 0;
      break;
    }
  }
  const u64 slot = (w << 6) | static_cast<u64>(std::countr_zero(word));
  return now_ + ((slot - start) & kWheelMask);
}

Simulator::EventNode* Simulator::pop_next(Cycles deadline) {
  if (pending_ == 0) return nullptr;
  bool from_far = true;
  Cycles tw = 0;
  if (wheel_count_ != 0) {
    tw = next_wheel_time();
    if (far_.empty()) {
      from_far = false;
    } else {
      // Same-time events may straddle the wheel/heap boundary (the heap one
      // was scheduled while its cycle was beyond the horizon); the global
      // sequence number restores strict FIFO order between them.
      const EventNode* ft = far_.front();
      from_far = ft->when < tw || (ft->when == tw && ft->seq < wheel_[tw & kWheelMask].head->seq);
    }
  }
  if ((from_far ? far_.front()->when : tw) > deadline) return nullptr;

  EventNode* n;
  if (from_far) {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    n = far_.back();
    far_.pop_back();
  } else {
    Slot& s = wheel_[tw & kWheelMask];
    n = s.head;
    s.head = n->next;
    if (s.head == nullptr) {
      s.tail = nullptr;
      occupied_[(tw & kWheelMask) >> 6] &= ~(1ull << (tw & 63));
      wheel_min_known_ = false;
    }
    --wheel_count_;
  }
  --pending_;
  n->next = nullptr;
  return n;
}

bool Simulator::posted_first() const noexcept {
  const Posted& p = posted_.front();
  const auto before_p = [&p](const EventNode* n) {
    return n->when < p.when || (n->when == p.when && (n->seq >> 1) < p.order);
  };
  if (wheel_count_ != 0 && before_p(wheel_[next_wheel_time() & kWheelMask].head)) return false;
  return far_.empty() || !before_p(far_.front());
}

void Simulator::retire_posted() {
  std::pop_heap(posted_.begin(), posted_.end(), PostedLater{});
  const Cycles t = posted_.back().when;
  posted_.pop_back();
  if (advance(t)) fail_livelock(*loop_);
}

bool Simulator::advance(Cycles t) noexcept {
  now_ = t;
  ++events_executed_;
  LoopFrame* f = loop_;
  if (f == nullptr || !f->guarded) return false;
  if (t != f->last) {
    f->last = t;
    f->same = 1;
    return false;
  }
  return ++f->same > kMaxSameCycleEvents;
}

void Simulator::fail(const LoopFrame& f, const std::string& why) const {
  throw std::runtime_error("simulator: " + why + " (now " + std::to_string(now_) + ", budget " +
                           std::to_string(f.budget) + " cycles, " +
                           std::to_string(pending_count()) + " events pending)");
}

void Simulator::fail_livelock(const LoopFrame& f) const {
  fail(f, "more than " + std::to_string(kMaxSameCycleEvents) +
              " events ran at one cycle, a zero-time livelock");
}

void Simulator::execute(EventNode* n) {
  // Recycle even when the callback throws (engine traps propagate to the
  // caller); the callable itself is destroyed by release(). The token is
  // the executing event's alone.
  struct Recycle {
    Simulator* sim;
    EventNode* node;
    ~Recycle() {
      sim->token_ = false;
      sim->release(node);
    }
  } guard{this, n};
  const bool over = advance(n->when);
  token_ = (n->seq & 1) != 0;
  n->fn();
  if (over) [[unlikely]] fail_livelock(*loop_);
}

bool Simulator::try_advance_to(Cycles t) {
  const LoopFrame* f = loop_;
  if (!token_ || f == nullptr || t > f->deadline) return false;
  ensure(t >= now_, "cannot advance the clock into the past");
  if (wheel_count_ != 0 && next_wheel_time() <= t) return false;
  if (!far_.empty() && far_.front()->when <= t) return false;
  if (f->done != nullptr && f->done(f->ctx)) return false;
  while (!posted_.empty() && posted_.front().when <= t) retire_posted();
  ++run_ahead_steps_;
  if (advance(t)) fail_livelock(*f);
  return true;
}

bool Simulator::step() {
  if (!posted_.empty() && posted_first()) {
    retire_posted();
    return true;
  }
  EventNode* n = pop_next(~0ull);
  if (n == nullptr) return false;
  execute(n);
  return true;
}

bool Simulator::loop(Cycles max_cycles, bool guarded, bool (*done)(void*), void* ctx) {
  LoopFrame frame;
  frame.deadline = max_cycles > ~0ull - now_ ? ~0ull : now_ + max_cycles;
  frame.budget = max_cycles;
  frame.guarded = guarded;
  frame.done = done;
  frame.ctx = ctx;
  frame.last = now_;
  struct Enter {
    Simulator* sim;
    LoopFrame* outer;
    ~Enter() { sim->loop_ = outer; }
  } enter{this, loop_};
  loop_ = &frame;
  while (done == nullptr || !done(ctx)) {
    if (!posted_.empty() && posted_first()) {
      if (posted_.front().when > frame.deadline) {
        if (guarded) fail(frame, "next event lies past the budget");
        return false;
      }
      retire_posted();
      continue;
    }
    EventNode* n = pop_next(frame.deadline);
    if (n == nullptr) {
      if (guarded && pending_count() != 0) fail(frame, "next event lies past the budget");
      return false;
    }
    execute(n);
  }
  return true;
}

u64 Simulator::run(Cycles max_cycles) {
  const u64 before = events_executed_;
  loop(max_cycles, false, nullptr, nullptr);
  return events_executed_ - before;
}

u64 Simulator::drain(Cycles max_cycles) {
  const u64 before = events_executed_;
  loop(max_cycles, true, nullptr, nullptr);
  return events_executed_ - before;
}

}  // namespace vmsls::sim
