#include "rt/sync.hpp"

#include <utility>

namespace vmsls::rt {

Mailbox::Mailbox(unsigned depth, std::string name) : depth_(depth), name_(std::move(name)) {
  require(depth > 0, "mailbox depth must be at least 1");
}

void Mailbox::drain_putters() {
  while (!putters_.empty() && items_.size() < depth_) {
    auto [value, done] = std::move(putters_.front());
    putters_.pop_front();
    items_.push_back(value);
    done();
  }
}

void Mailbox::get(sim::Callback<i64> taker) {
  if (!items_.empty()) {
    const i64 v = items_.front();
    items_.pop_front();
    drain_putters();
    taker(v);
    return;
  }
  if (!putters_.empty()) {
    // Depth-0-style direct handoff cannot happen (depth >= 1) unless a
    // putter queued while full; serve in FIFO order.
    auto [value, done] = std::move(putters_.front());
    putters_.pop_front();
    done();
    taker(value);
    return;
  }
  takers_.push_back(std::move(taker));
}

void Mailbox::put(i64 value, sim::Callback<> done) {
  if (!takers_.empty()) {
    auto taker = std::move(takers_.front());
    takers_.pop_front();
    done();
    taker(value);
    return;
  }
  if (items_.size() < depth_) {
    items_.push_back(value);
    done();
    return;
  }
  putters_.emplace_back(value, std::move(done));
}

bool Mailbox::try_get(i64& out) {
  if (items_.empty()) return false;
  out = items_.front();
  items_.pop_front();
  drain_putters();
  return true;
}

Semaphore::Semaphore(u64 initial, std::string name) : count_(initial), name_(std::move(name)) {}

void Semaphore::wait(sim::Callback<> acquired) {
  if (count_ > 0) {
    --count_;
    acquired();
    return;
  }
  waiters_.push_back(std::move(acquired));
}

void Semaphore::post() {
  if (!waiters_.empty()) {
    auto w = std::move(waiters_.front());
    waiters_.pop_front();
    w();
    return;
  }
  ++count_;
}

Barrier::Barrier(unsigned parties, std::string name)
    : parties_(parties), name_(std::move(name)) {
  require(parties > 0, "barrier needs at least one party");
}

void Barrier::arrive(sim::Callback<> released) {
  waiting_.push_back(std::move(released));
  if (waiting_.size() == parties_) {
    auto batch = std::move(waiting_);
    waiting_.clear();
    for (auto& cb : batch) cb();
  }
}

}  // namespace vmsls::rt
