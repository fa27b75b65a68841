#include "mem/tlb.hpp"

#include <algorithm>

namespace vmsls::mem {

// Key, LRU stamp, payload and valid flag: a way fills five words, and
// lookup scans the set's ways inline.
static_assert(sizeof(SetAssoc<TlbEntry>::Way) == 40);

TlbConfig TlbConfig::with_entries(unsigned n) const {
  require(n > 0, "TLB needs at least one entry");
  TlbConfig c = *this;
  c.entries = n;
  c.ways = std::clamp(ways, 1u, n);
  while (n % c.ways != 0) c.ways /= 2;
  return c;
}

namespace {

unsigned tlb_sets(const TlbConfig& cfg) {
  require(cfg.entries > 0, "TLB must have entries");
  require(cfg.ways > 0 && cfg.entries % cfg.ways == 0, "TLB entries must divide evenly into ways");
  return cfg.entries / cfg.ways;
}

}  // namespace

Tlb::Tlb(const TlbConfig& cfg, StatRegistry& stats, std::string name)
    : cfg_(cfg),
      ways_(tlb_sets(cfg), cfg.ways),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      evictions_(stats.counter(name + ".evictions")),
      flushes_(stats.counter(name + ".flushes")) {}

std::optional<TlbEntry> Tlb::lookup(u64 vpn) {
  if (const auto* way = ways_.find(vpn)) {
    hits_.add();
    return way->payload;
  }
  misses_.add();
  return std::nullopt;
}

std::optional<TlbEntry> Tlb::peek(u64 vpn) const {
  if (const auto* way = ways_.peek(vpn)) return way->payload;
  return std::nullopt;
}

void Tlb::insert(u64 vpn, u64 frame, bool writable) {
  const auto evicted = ways_.place(vpn, TlbEntry{frame, writable});
  if (evicted.valid && evicted.key != vpn) evictions_.add();
}

void Tlb::invalidate(u64 vpn) { ways_.invalidate(vpn); }

void Tlb::flush() {
  ways_.clear();
  flushes_.add();
}

double Tlb::hit_rate() const noexcept {
  const u64 total = hits_.value() + misses_.value();
  return total == 0 ? 0.0 : static_cast<double>(hits_.value()) / static_cast<double>(total);
}

}  // namespace vmsls::mem
