// Set-associative tag array with true-LRU replacement.
//
// The per-thread TLB, the walker's page-walk cache and each CPU cache level
// are all one of these: `sets` x `ways` ways, each holding a key, an inline
// payload and an LRU stamp. A key lives in set key % sets; power-of-two set
// counts (one set included) select it with a mask instead of a divide, and
// both forms pick the same set. Stamps come from one tick counter per
// instance, so replacement depends only on that instance's own access order
// and runs stay deterministic.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace vmsls::mem {

template <typename Payload>
class SetAssoc {
 public:
  struct Way {
    u64 key = 0;
    u64 lru = 0;  // larger = more recently used
    Payload payload{};
    bool valid = false;
  };

  /// An array of zero ways holds nothing: find and peek miss, and place
  /// must not be called.
  SetAssoc(unsigned sets, unsigned ways)
      : sets_(sets), ways_(ways), pow2_sets_(is_pow2(sets)), slots_(std::size_t{sets} * ways) {
    require(sets > 0, "tag array needs at least one set");
  }

  /// The way holding `key`, without touching LRU state; null if none.
  const Way* peek(u64 key) const noexcept {
    const Way* way = slots_.data() + set_begin(key);
    for (const Way* end = way + ways_; way != end; ++way)
      if (way->valid && way->key == key) return way;
    return nullptr;
  }

  /// The way holding `key`, made most recently used; null if none.
  Way* find(u64 key) noexcept {
    Way* way = const_cast<Way*>(std::as_const(*this).peek(key));
    if (way != nullptr) way->lru = ++tick_;
    return way;
  }

  /// Stores `payload` under `key` as the set's most recently used way: the
  /// way already holding `key`, else the set's first invalid way, else its
  /// least recently used one. Returns that way as it was before, so the
  /// caller sees what (if anything) was evicted.
  Way place(u64 key, const Payload& payload) noexcept {
    Way* const first = slots_.data() + set_begin(key);
    Way* victim = first;
    for (Way* way = first; way != first + ways_; ++way) {
      if (way->valid && way->key == key) {
        victim = way;
        break;
      }
      if (!way->valid) {
        if (victim->valid) victim = way;
      } else if (victim->valid && way->lru < victim->lru) {
        victim = way;
      }
    }
    const Way before = *victim;
    *victim = Way{key, ++tick_, payload, true};
    return before;
  }

  void invalidate(u64 key) noexcept {
    if (const Way* way = peek(key)) const_cast<Way*>(way)->valid = false;
  }

  void clear() noexcept {
    for (auto& way : slots_) way.valid = false;
  }

 private:
  /// Index of the first way of `key`'s set.
  std::size_t set_begin(u64 key) const noexcept {
    const u64 set = pow2_sets_ ? key & (sets_ - 1) : key % sets_;
    return set * ways_;
  }

  unsigned sets_;
  unsigned ways_;
  bool pow2_sets_;
  std::vector<Way> slots_;  // sets x ways, row-major
  u64 tick_ = 0;
};

}  // namespace vmsls::mem
