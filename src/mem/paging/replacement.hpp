// Page-replacement policies for the pager daemon and the frame pool.
//
// Each policy tracks a set of resident pages and, under memory pressure,
// nominates the next victim. Pages are opaque 64-bit keys: a per-process
// pager tracks raw virtual page numbers, while the cross-process FramePool
// tracks frame numbers — the same CLOCK ring that sweeps one process sweeps
// the whole machine. Both key spaces are dense small integers, which CLOCK's
// key-indexed ring relies on. CLOCK and the LRU approximation consume
// the accessed bits the MMU/walker set in the PTEs on every translation
// (read through the KeyOwner the policy is bound to) — the
// hardware/software contract that makes recency-based replacement
// implementable at all; FIFO and RANDOM ignore access history and serve as
// the locality-blind baselines the memory-pressure experiments compare
// against.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace vmsls::paging {

enum class PolicyKind { kClock, kLruApprox, kFifo, kRandom };

const char* policy_name(PolicyKind kind) noexcept;

/// Parses "clock" / "lru" / "fifo" / "random"; throws on anything else.
PolicyKind parse_policy(const std::string& name);

/// The owner of a policy's key space answers for its keys. The key is
/// whatever the owner inserted: a pager resolves a vpn through its own
/// page table, the frame pool a frame through every sharer's.
class KeyOwner {
 public:
  virtual ~KeyOwner() = default;

  /// Reads and clears the key's accessed bit. A reference it observes also
  /// ends the key's speculative state.
  virtual bool test_and_clear_accessed(u64 key) = 0;

  /// True while an in-flight hardware access holds the page. Every policy
  /// skips pinned keys: evicting one would retarget the frame underneath a
  /// committed bus transaction.
  virtual bool pinned(u64 key) const = 0;

  /// True while the page is a swap-in readahead landing not referenced
  /// since (a speculative, possibly wrong-path prefetch). Every policy
  /// reclaims such keys first: a prediction that missed must not push out
  /// a page the process demonstrably used.
  virtual bool speculative(u64 key) const = 0;

  /// Whether any key is speculative right now. False lets a policy skip the
  /// reclaim-first pre-scan, which is pure overhead while readahead is off.
  virtual bool any_speculative() const = 0;
};

class ReplacementPolicy {
 public:
  explicit ReplacementPolicy(KeyOwner& owner) noexcept : owner_(owner) {}
  virtual ~ReplacementPolicy() = default;

  virtual const char* name() const noexcept = 0;

  /// Page became resident.
  virtual void on_insert(u64 key) = 0;

  /// Page left residency (pager eviction or an external unmap).
  virtual void on_remove(u64 key) = 0;

  /// Nominates the next victim among tracked, unpinned pages; nullopt when
  /// none qualify. Does NOT remove the page — the pager evicts it, which
  /// feeds back through on_remove.
  virtual std::optional<u64> pick_victim() = 0;

  virtual u64 tracked_pages() const noexcept = 0;

 protected:
  /// The reclaim-first test of the speculative pre-scan: an unpinned
  /// landing whose accessed bit is still clear. Probing a referenced
  /// landing ends its speculative state, exactly as a sweep would.
  bool wrong_path(u64 key) {
    return owner_.speculative(key) && !owner_.pinned(key) && !owner_.test_and_clear_accessed(key);
  }

  KeyOwner& owner_;
};

/// Binds a policy to the owner of its keys; `seed` feeds RANDOM's generator
/// so runs stay deterministic.
std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind, KeyOwner& owner, u64 seed = 1);

}  // namespace vmsls::paging
