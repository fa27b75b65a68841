// Page-replacement policies for the pager daemon and the frame pool.
//
// Each policy tracks a set of resident pages and, under memory pressure,
// nominates the next victim. Pages are opaque 64-bit keys: a per-process
// pager tracks raw virtual page numbers, while the cross-process FramePool
// tracks frame numbers — the same CLOCK ring that sweeps one process sweeps
// the whole machine. Both key spaces are dense small integers, which CLOCK's
// key-indexed ring relies on. CLOCK and the LRU approximation consume
// the accessed bits the MMU/walker set in the PTEs on every translation
// (read through the AccessedProbe the owner supplies) — the
// hardware/software contract that makes recency-based replacement
// implementable at all; FIFO and RANDOM ignore access history and serve as
// the locality-blind baselines the memory-pressure experiments compare
// against.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/pagetable.hpp"
#include "util/rng.hpp"

namespace vmsls::paging {

enum class PolicyKind { kClock, kLruApprox, kFifo, kRandom };

const char* policy_name(PolicyKind kind) noexcept;

/// Parses "clock" / "lru" / "fifo" / "random"; throws on anything else.
PolicyKind parse_policy(const std::string& name);

/// Reads-and-clears the accessed bit for a tracked key. The key is whatever
/// the policy's owner inserted — the owner knows how to resolve it back to a
/// page table and virtual address.
using AccessedProbe = std::function<bool(u64 key)>;

/// True when the page is pinned (an in-flight hardware access holds it).
/// Every policy skips pinned pages during victim selection — evicting one
/// would retarget the frame underneath a committed bus transaction.
using PinnedProbe = std::function<bool(u64 key)>;

/// True when the page landed through swap-in readahead and has not been
/// referenced since (a speculative, possibly wrong-path prefetch). Every
/// policy reclaims such pages *first*: a prediction that missed must not
/// push out a page the process demonstrably used. The owner (pager) clears
/// the flag the moment a reference is observed.
using SpeculativeProbe = std::function<bool(u64 key)>;

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Installs the pin filter; absent = nothing is ever pinned.
  void set_pinned_probe(PinnedProbe pinned) { pinned_ = std::move(pinned); }

  /// Installs the wrong-path-prefetch filter; absent = nothing is
  /// speculative and victim selection is unchanged. `any` is an optional
  /// cheap emptiness hint ("is anything speculative right now?"): when it
  /// returns false, policies skip the speculative pre-scan entirely instead
  /// of probing every tracked page — on fault paths with readahead off,
  /// that scan is pure overhead. Absent, every pre-scan runs.
  void set_speculative_probe(SpeculativeProbe speculative, std::function<bool()> any = {}) {
    speculative_ = std::move(speculative);
    any_speculative_ = std::move(any);
  }

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
  bool is_pinned(u64 key) const { return pinned_ && pinned_(key); }
  bool is_speculative(u64 key) const { return speculative_ && speculative_(key); }
  /// Whether the speculative pre-scan can find anything: false short-circuits
  /// it. Conservatively true when no hint was installed.
  bool maybe_speculative() const {
    return speculative_ != nullptr && (!any_speculative_ || any_speculative_());
  }

 private:
  PinnedProbe pinned_;
  SpeculativeProbe speculative_;
  std::function<bool()> any_speculative_;
};

/// `probe` supplies the accessed bits (CLOCK/LRU test-and-clear through it);
/// `seed` feeds RANDOM's generator so runs stay deterministic.
std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind, AccessedProbe probe, u64 seed = 1);

/// Convenience for single-process policies whose keys are raw virtual page
/// numbers: probes `pt` directly.
inline std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind, const mem::PageTable& pt,
                                                      u64 seed = 1) {
  return make_policy(
      kind,
      [&pt](u64 vpn) { return pt.test_and_clear_accessed(vpn << pt.config().page_bits); }, seed);
}

}  // namespace vmsls::paging
