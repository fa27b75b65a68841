// Allocation-free steady state for per-access records and FIFOs.
//
// Pool<T> is the one free list behind every pooled per-access record (port
// transfers, pending translations, walker walks, cache walks, faults in
// service). Records are heap-allocated once, the first time the in-flight
// count reaches a new high, and recycled forever after; their addresses
// are stable, so a completion closure can carry a bare `T*`.
//
// Fifo<T> is a growable ring buffer. std::deque frees and reallocates a
// block every few elements when a short queue cycles, which is one
// malloc/free pair per handful of requests on the bus and walker queues;
// the ring only allocates when the queue reaches a new maximum depth.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace vmsls {

template <typename T>
class Pool {
 public:
  /// Returns a recycled record, or a fresh one. A recycled record keeps
  /// the field values it was released with; callers overwrite what they use.
  T* acquire() {
    if (free_.empty()) {
      owned_.push_back(std::make_unique<T>());
      free_.reserve(owned_.size());  // release() below never reallocates
      return owned_.back().get();
    }
    T* r = free_.back();
    free_.pop_back();
    return r;
  }

  /// Returns `r` to the free list. Callers move any completion out of the
  /// record first, then release, then invoke: the completion may acquire
  /// the same record again.
  void release(T* r) noexcept { free_.push_back(r); }

 private:
  std::vector<std::unique_ptr<T>> owned_;
  std::vector<T*> free_;
};

template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return size_ == 0; }
  T& front() noexcept { return slots_[head_]; }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(v);
    ++size_;
  }

  /// Moves the front element out and removes it.
  T pop_front() {
    T v = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow() {
    std::vector<T> next(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two length
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vmsls
