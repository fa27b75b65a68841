#include "mem/tlb.hpp"

#include <algorithm>

namespace vmsls::mem {

TlbConfig TlbConfig::with_entries(unsigned n) const {
  require(n > 0, "TLB needs at least one entry");
  TlbConfig c = *this;
  c.entries = n;
  c.ways = std::clamp(ways, 1u, n);
  while (n % c.ways != 0) c.ways /= 2;
  return c;
}

Tlb::Tlb(const TlbConfig& cfg, StatRegistry& stats, std::string name)
    : cfg_(cfg),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      evictions_(stats.counter(name + ".evictions")),
      flushes_(stats.counter(name + ".flushes")) {
  require(cfg.entries > 0, "TLB must have entries");
  require(cfg.ways > 0 && cfg.entries % cfg.ways == 0, "TLB entries must divide evenly into ways");
  sets_ = cfg.entries / cfg.ways;
  pow2_sets_ = is_pow2(sets_);
  ways_.resize(cfg.entries);
}

std::optional<TlbEntry> Tlb::lookup(u64 vpn) {
  const unsigned set = set_of(vpn);
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[set * cfg_.ways + w];
    if (way.valid && way.entry.vpn == vpn) {
      way.lru = ++tick_;
      hits_.add();
      return way.entry;
    }
  }
  misses_.add();
  return std::nullopt;
}

std::optional<TlbEntry> Tlb::peek(u64 vpn) const {
  const unsigned set = set_of(vpn);
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    const Way& way = ways_[set * cfg_.ways + w];
    if (way.valid && way.entry.vpn == vpn) return way.entry;
  }
  return std::nullopt;
}

void Tlb::insert(u64 vpn, u64 frame, bool writable) {
  const unsigned set = set_of(vpn);
  Way* victim = nullptr;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[set * cfg_.ways + w];
    if (way.valid && way.entry.vpn == vpn) {
      victim = &way;  // refresh existing mapping in place
      break;
    }
    if (!way.valid) {
      if (victim == nullptr || victim->valid) victim = &way;
    } else if (victim == nullptr || (victim->valid && way.lru < victim->lru)) {
      victim = &way;
    }
  }
  if (victim->valid && victim->entry.vpn != vpn) evictions_.add();
  victim->valid = true;
  victim->entry = TlbEntry{vpn, frame, writable};
  victim->lru = ++tick_;
}

void Tlb::invalidate(u64 vpn) {
  const unsigned set = set_of(vpn);
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[set * cfg_.ways + w];
    if (way.valid && way.entry.vpn == vpn) way.valid = false;
  }
}

void Tlb::flush() {
  for (auto& way : ways_) way.valid = false;
  flushes_.add();
}

double Tlb::hit_rate() const noexcept {
  const u64 total = hits_.value() + misses_.value();
  return total == 0 ? 0.0 : static_cast<double>(hits_.value()) / static_cast<double>(total);
}

}  // namespace vmsls::mem
