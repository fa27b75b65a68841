// Dense tables keyed by small integers.
//
// Frames, swap slots, swap regions and vpns are dense small integers: the
// frame allocator hands out frame numbers from one region, swap slots are
// region * cluster + offset, and vpns come from an address space's bump
// allocator. The paging plane's metadata is therefore stored in vectors
// indexed by those integers rather than in node-based maps and sets, so a
// fault in steady state touches memory that already exists.
//
// IndexTable<T> is one growable vector with an "absent" value: reading past
// the end returns it without growing, and the first write at an index grows
// the table to reach it, filling new entries with the absent value. Growth
// is geometric (std::vector's), and the table never shrinks, so an entry
// that was present once costs nothing to reuse.
//
// IndexBitmap is a set of indices on the same table, one bit per index plus
// a population count; iteration visits members in ascending order.
#pragma once

#include <bit>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace vmsls {

template <typename T>
class IndexTable {
 public:
  IndexTable() = default;
  explicit IndexTable(T absent) : absent_(std::move(absent)) {}

  /// The entry at `i`; the absent value when `i` is past the end.
  const T& get(u64 i) const noexcept { return i < slots_.size() ? slots_[i] : absent_; }

  /// The entry at `i` for writing, growing the table to reach it.
  T& at(u64 i) {
    if (i >= slots_.size()) slots_.resize(i + 1, absent_);
    return slots_[i];
  }

  /// One past the highest index ever written.
  u64 size() const noexcept { return slots_.size(); }

 private:
  std::vector<T> slots_;
  T absent_{};
};

class IndexBitmap {
 public:
  bool contains(u64 i) const noexcept { return (words_.get(i / 64) >> (i % 64)) & 1; }

  /// Adds `i`; false when it was already a member.
  bool insert(u64 i) {
    u64& word = words_.at(i / 64);
    const u64 bit = 1ull << (i % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++count_;
    return true;
  }

  /// Removes `i`; false when it was not a member.
  bool erase(u64 i) {
    if (!contains(i)) return false;
    words_.at(i / 64) &= ~(1ull << (i % 64));
    --count_;
    return true;
  }

  u64 size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// The lowest member. Requires !empty().
  u64 first() const noexcept {
    u64 w = 0;
    while (words_.get(w) == 0) ++w;
    return w * 64 + static_cast<u64>(std::countr_zero(words_.get(w)));
  }

  /// Calls fn(i) for every member, in ascending order. `fn` must not add or
  /// remove members.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (u64 w = 0; w < words_.size(); ++w)
      for (u64 bits = words_.get(w); bits != 0; bits &= bits - 1)
        fn(w * 64 + static_cast<u64>(std::countr_zero(bits)));
  }

 private:
  IndexTable<u64> words_;
  u64 count_ = 0;
};

}  // namespace vmsls
