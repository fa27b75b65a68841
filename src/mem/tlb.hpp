// Set-associative translation lookaside buffer.
//
// Each hardware thread's memory port owns one of these (the paper's
// per-thread TLB design point); the shared-TLB configuration of the scaling
// experiment attaches several ports to a single instance. True-LRU
// replacement per set (mem::SetAssoc); deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mem/set_assoc.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace vmsls::mem {

struct TlbConfig {
  unsigned entries = 16;
  unsigned ways = 4;       // set-associativity (entries/ways sets)
  Cycles hit_latency = 1;  // cycles added to a translated access on a hit

  /// This config resized to `entries`, with a legal geometry: ways are
  /// clamped to [1, entries], then halved until they divide the entry count
  /// (16 × 4 resized to 6 gives 6 × 2). Throws std::invalid_argument for 0.
  TlbConfig with_entries(unsigned entries) const;
};

/// A translation's payload; the tag array keys each way by vpn.
struct TlbEntry {
  u64 frame = 0;
  bool writable = false;
};

class Tlb {
 public:
  Tlb(const TlbConfig& cfg, StatRegistry& stats, std::string name);

  const TlbConfig& config() const noexcept { return cfg_; }

  /// Looks up a virtual page number. Counts a hit or a miss.
  std::optional<TlbEntry> lookup(u64 vpn);

  /// Probe without touching statistics or LRU (for tests/introspection).
  std::optional<TlbEntry> peek(u64 vpn) const;

  void insert(u64 vpn, u64 frame, bool writable);

  /// Invalidates a single translation if present (TLB shootdown).
  void invalidate(u64 vpn);

  /// Invalidates everything (address-space-wide shootdown).
  void flush();

  u64 hits() const noexcept { return hits_.value(); }
  u64 misses() const noexcept { return misses_.value(); }
  double hit_rate() const noexcept;

 private:
  TlbConfig cfg_;
  SetAssoc<TlbEntry> ways_;  // keyed by vpn

  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;
  Counter& flushes_;
};

}  // namespace vmsls::mem
