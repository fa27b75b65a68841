#include "mem/paging/replacement.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/index_table.hpp"

namespace vmsls::paging {

const char* policy_name(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kClock: return "clock";
    case PolicyKind::kLruApprox: return "lru";
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kRandom: return "random";
  }
  return "?";
}

PolicyKind parse_policy(const std::string& name) {
  if (name == "clock") return PolicyKind::kClock;
  if (name == "lru") return PolicyKind::kLruApprox;
  if (name == "fifo") return PolicyKind::kFifo;
  if (name == "random") return PolicyKind::kRandom;
  throw std::invalid_argument("unknown replacement policy '" + name + "'");
}

namespace {

/// Second-chance clock: resident pages form a ring; the hand sweeps,
/// clearing accessed bits, and evicts the first page found unreferenced.
///
/// The ring is intrusive and circular: each key's prev/next links live in
/// tables indexed by the key itself (a vpn for a pager's own policy, a
/// frame number for the pool's sweep), and the hand is a key. Insert and
/// remove are O(1) and allocate nothing once the tables cover the keys in
/// use. A key is in the ring exactly when its next link is present.
class ClockPolicy final : public ReplacementPolicy {
 public:
  using ReplacementPolicy::ReplacementPolicy;

  const char* name() const noexcept override { return "clock"; }
  u64 tracked_pages() const noexcept override { return size_; }

  void on_insert(u64 key) override {
    // New pages enter just behind the hand: they get a full sweep before
    // first consideration. (Into an empty ring the new page IS the hand.)
    if (size_ == 0) {
      next_.at(key) = key;
      prev_.at(key) = key;
      hand_ = key;
    } else {
      const u64 before = prev_.get(hand_);
      next_.at(before) = key;
      prev_.at(key) = before;
      next_.at(key) = hand_;
      prev_.at(hand_) = key;
    }
    ++size_;
  }

  void on_remove(u64 key) override {
    const u64 after = next_.get(key);
    if (after == kNone) return;
    const u64 before = prev_.get(key);
    next_.at(before) = after;
    prev_.at(after) = before;
    next_.at(key) = kNone;
    prev_.at(key) = kNone;
    // The page the hand nominated: the hand moves on to its successor.
    if (--size_ == 0)
      hand_ = kNone;
    else if (hand_ == key)
      hand_ = after;
  }

  std::optional<u64> pick_victim() override {
    if (size_ == 0) return std::nullopt;
    // Wrong-path prefetches go first: a speculative page is reclaimed
    // before the hand disturbs anyone else's accessed bits — but only if
    // its own bit is still clear. Probing a *referenced* landing graduates
    // it through the owner's funnel (it stops being speculative), exactly
    // as a sweep would. Scan order: from the hand, the sweep's own order.
    // The owner's emptiness hint skips the whole scan when nothing is
    // speculative — the common case whenever readahead is off.
    if (owner_.any_speculative()) {
      u64 key = hand_;
      for (u64 step = 0; step < size_; ++step, key = next_.get(key))
        if (wrong_path(key)) return key;
    }
    // At most two sweeps: the first clears every accessed bit, the second
    // must find a victim. Pinned pages behave as permanently referenced
    // (their accessed bits are left alone).
    for (u64 step = 0; step < 2 * size_; ++step, hand_ = next_.get(hand_))
      if (!owner_.pinned(hand_) && !owner_.test_and_clear_accessed(hand_)) return hand_;
    // Everything stayed referenced: take the first unpinned page at the
    // hand; only pins can make victim selection fail entirely.
    u64 key = hand_;
    for (u64 step = 0; step < size_; ++step, key = next_.get(key))
      if (!owner_.pinned(key)) return key;
    return std::nullopt;
  }

 private:
  static constexpr u64 kNone = ~0ull;

  IndexTable<u64> next_{kNone};
  IndexTable<u64> prev_{kNone};
  u64 hand_ = kNone;
  u64 size_ = 0;
};

/// Aging LRU approximation: an 8-bit reference history per page, shifted on
/// every victim selection with the accessed bit entering at the top. The
/// smallest history value is the least recently used page.
class LruApproxPolicy final : public ReplacementPolicy {
 public:
  using ReplacementPolicy::ReplacementPolicy;

  const char* name() const noexcept override { return "lru"; }
  u64 tracked_pages() const noexcept override { return ages_.size(); }

  void on_insert(u64 key) override { ages_[key] = 0x80; }
  void on_remove(u64 key) override { ages_.erase(key); }

  std::optional<u64> pick_victim() override {
    if (ages_.empty()) return std::nullopt;
    // Wrong-path prefetches first (lowest key — deterministic map order);
    // probing a referenced landing graduates it via the owner's funnel
    // without perturbing the aging histories. Skipped outright when the
    // owner's hint says nothing is speculative.
    if (owner_.any_speculative())
      for (const auto& [key, age] : ages_)
        if (wrong_path(key)) return key;
    std::optional<u64> victim;
    unsigned best_age = 256;
    for (auto& [key, age] : ages_) {
      const bool used = owner_.test_and_clear_accessed(key);
      age = static_cast<u8>((age >> 1) | (used ? 0x80 : 0));
      if (owner_.pinned(key)) continue;  // aged but never nominated
      if (age < best_age) {  // ties resolve to the lowest key (map order)
        best_age = age;
        victim = key;
      }
    }
    return victim;
  }

 private:
  std::map<u64, u8> ages_;  // ordered: deterministic sweep and tie-breaks
};

class FifoPolicy final : public ReplacementPolicy {
 public:
  using ReplacementPolicy::ReplacementPolicy;

  const char* name() const noexcept override { return "fifo"; }
  u64 tracked_pages() const noexcept override { return queue_.size(); }

  void on_insert(u64 key) override { queue_.push_back(key); }

  void on_remove(u64 key) override {
    // Fast path: the pager evicts the head pick_victim just returned.
    if (!queue_.empty() && queue_.front() == key) {
      queue_.pop_front();
      return;
    }
    auto it = std::find(queue_.begin(), queue_.end(), key);
    if (it != queue_.end()) queue_.erase(it);
  }

  std::optional<u64> pick_victim() override {
    // Wrong-path prefetches first, in arrival order. FIFO reads no accessed
    // bit for anything else; here it only tells a used
    // landing (graduated through the owner's funnel) from a wrong one.
    if (owner_.any_speculative())
      for (const u64 key : queue_)
        if (wrong_path(key)) return key;
    for (const u64 key : queue_)
      if (!owner_.pinned(key)) return key;
    return std::nullopt;
  }

 private:
  std::deque<u64> queue_;
};

class RandomPolicy final : public ReplacementPolicy {
 public:
  RandomPolicy(KeyOwner& owner, u64 seed) : ReplacementPolicy(owner), rng_(seed) {}

  const char* name() const noexcept override { return "random"; }
  u64 tracked_pages() const noexcept override { return pages_.size(); }

  void on_insert(u64 key) override { pages_.push_back(key); }

  void on_remove(u64 key) override {
    // Order carries no meaning here, so removal is swap-with-back; the
    // last nomination makes the pager's evict O(1).
    auto it = (last_pick_ < pages_.size() && pages_[last_pick_] == key)
                  ? pages_.begin() + static_cast<std::ptrdiff_t>(last_pick_)
                  : std::find(pages_.begin(), pages_.end(), key);
    if (it == pages_.end()) return;
    *it = pages_.back();
    pages_.pop_back();
  }

  std::optional<u64> pick_victim() override {
    if (pages_.empty()) return std::nullopt;
    // Wrong-path prefetches first, in insertion order; the RNG is not
    // consumed so runs with and without prefetch hits stay comparable.
    if (owner_.any_speculative()) {
      for (u64 idx = 0; idx < pages_.size(); ++idx) {
        if (wrong_path(pages_[idx])) {
          last_pick_ = idx;
          return pages_[idx];
        }
      }
    }
    // One draw, then a deterministic forward scan past any pinned pages.
    const u64 start = rng_.below(pages_.size());
    for (u64 step = 0; step < pages_.size(); ++step) {
      const u64 idx = (start + step) % pages_.size();
      if (!owner_.pinned(pages_[idx])) {
        last_pick_ = idx;
        return pages_[idx];
      }
    }
    return std::nullopt;
  }

 private:
  Rng rng_;
  std::vector<u64> pages_;
  u64 last_pick_ = 0;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind, KeyOwner& owner, u64 seed) {
  switch (kind) {
    case PolicyKind::kClock: return std::make_unique<ClockPolicy>(owner);
    case PolicyKind::kLruApprox: return std::make_unique<LruApproxPolicy>(owner);
    case PolicyKind::kFifo: return std::make_unique<FifoPolicy>(owner);
    case PolicyKind::kRandom: return std::make_unique<RandomPolicy>(owner, seed);
  }
  throw std::invalid_argument("unknown replacement policy kind");
}

}  // namespace vmsls::paging
