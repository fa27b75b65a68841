#include "mem/paging/ledger.hpp"

#include <array>
#include <map>
#include <stdexcept>

#include "mem/frames.hpp"
#include "mem/paging/pager.hpp"

namespace vmsls::paging {

namespace {

constexpr u64 Ledger::*kCounters[] = {
    &Ledger::swap_ins,     &Ledger::file_reads,      &Ledger::zero_fills,
    &Ledger::share_hits,   &Ledger::inherited_fills, &Ledger::cow_copies,
    &Ledger::cow_upgrades, &Ledger::evictions,       &Ledger::swap_releases,
    &Ledger::file_drops,   &Ledger::file_writebacks, &Ledger::shared_releases,
    &Ledger::swap_reads,   &Ledger::swap_writes,     &Ledger::prefetches,
    &Ledger::writebacks,   &Ledger::pageouts,        &Ledger::client_hits,
    &Ledger::client_misses,
};

/// Appends "<who>: <lhs> <l> != <rhs> <r>" when the two sides differ.
void expect_equal(std::vector<std::string>& out, const std::string& who, const char* lhs, u64 l,
                  const char* rhs, u64 r) {
  if (l != r)
    out.push_back(who + ": " + lhs + " " + std::to_string(l) + " != " + rhs + " " +
                  std::to_string(r));
}

}  // namespace

Ledger Ledger::of(const Pager& p) {
  const BufferCache& bc = p.buffer_cache();
  return {.name = p.name(),
          .swap_ins = p.swap_ins(), .file_reads = p.file_reads(), .zero_fills = p.zero_fills(),
          .share_hits = p.share_hits(), .inherited_fills = p.inherited_fills(),
          .cow_copies = p.cow_copies(), .cow_upgrades = p.cow_upgrades(),
          .evictions = p.evictions(), .swap_releases = p.swap_releases(),
          .file_drops = p.file_drops(), .file_writebacks = p.file_writebacks(),
          .shared_releases = p.shared_releases(),
          .swap_reads = p.swap().reads(), .swap_writes = p.swap().writes(),
          .prefetches = p.prefetches(), .writebacks = p.writebacks(), .pageouts = p.pageouts(),
          .client_hits = bc.client_hits(p.bcache_client()),
          .client_misses = bc.client_misses(p.bcache_client())};
}

Ledger Ledger::operator-(const Ledger& base) const {
  if (name != base.name)
    throw std::invalid_argument("Ledger: " + name + " - " + base.name + " mixes two pagers");
  Ledger d = *this;
  for (const auto counter : kCounters) d.*counter -= base.*counter;
  return d;
}

std::vector<std::string> Ledger::check(const LedgerExpect& expect) const {
  std::vector<std::string> out;
  if (expect.read_faults)
    expect_equal(out, name, "read faults", *expect.read_faults,
                 "swap_ins + file_reads + zero_fills + share_hits + inherited_fills",
                 swap_ins + file_reads + zero_fills + share_hits + inherited_fills);
  if (expect.cow_faults)
    expect_equal(out, name, "COW faults", *expect.cow_faults, "cow_copies + cow_upgrades",
                 cow_copies + cow_upgrades);
  expect_equal(out, name, "evictions + external unmaps", evictions + expect.external_unmaps,
               "swap_releases + file_drops + file_writebacks + shared_releases",
               swap_releases + file_drops + file_writebacks + shared_releases);
  expect_equal(out, name, "swap owner reads", swap_reads, "swap_ins + prefetches",
               swap_ins + prefetches);
  expect_equal(out, name, "swap owner writes", swap_writes, "writebacks + pageouts",
               writebacks + pageouts);
  expect_equal(out, name, "file_reads", file_reads, "cache client hits + misses",
               client_hits + client_misses);
  return out;
}

MachineLedger MachineLedger::of(const std::vector<const Pager*>& pagers) {
  MachineLedger m;
  for (const Pager* p : pagers) m.pagers.push_back(Ledger::of(*p));
  return m;
}

MachineLedger MachineLedger::operator-(const MachineLedger& base) const {
  MachineLedger d;
  for (std::size_t i = 0; i < pagers.size(); ++i) d.pagers.push_back(pagers[i] - base.pagers.at(i));
  return d;
}

std::vector<std::string> MachineLedger::check(const std::vector<LedgerExpect>& expect) const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < pagers.size(); ++i)
    for (auto& v : pagers[i].check(expect.empty() ? LedgerExpect{} : expect.at(i)))
      out.push_back(std::move(v));
  return out;
}

std::vector<std::string> check_machine(const std::vector<const Pager*>& pagers,
                                       const FramePool* pool) {
  std::map<const SwapScheduler*, std::array<u64, 2>> swaps;  // owner reads, writes
  std::map<const BufferCache*, std::array<u64, 2>> caches;    // client hits, misses
  for (const Pager* p : pagers) {
    const Ledger l = Ledger::of(*p);
    swaps[&p->swap_scheduler()][0] += l.swap_reads;
    swaps[&p->swap_scheduler()][1] += l.swap_writes;
    caches[&p->buffer_cache()][0] += l.client_hits;
    caches[&p->buffer_cache()][1] += l.client_misses;
  }
  std::vector<std::string> out;
  for (const auto& [s, w] : swaps) {
    expect_equal(out, s->name(), "owner reads", w[0], "device reads", s->reads());
    expect_equal(out, s->name(), "owner writes", w[1], "device writes", s->writes());
  }
  for (const auto& [c, w] : caches) {
    expect_equal(out, c->name(), "client hits", w[0], "cache hits", c->hits());
    expect_equal(out, c->name(), "client misses", w[1], "cache misses", c->misses());
    expect_equal(out, c->name(), "cache misses", c->misses(), "device_reads + merged_reads",
                 c->device_reads() + c->merged_reads());
  }
  if (pool == nullptr) return out;
  std::map<u64, u64> per_frame;  // frame -> page-table mappings
  for (const Pager* p : pagers)
    p->space().for_each_resident([&](u64 vpn) { ++per_frame[*p->space().frame_of(vpn)]; });
  u64 mappings = 0;
  for (const auto& [frame, count] : per_frame) {
    mappings += count;
    expect_equal(out, "frame " + std::to_string(frame), "refcount",
                 pagers.front()->space().frames().refcount(frame), "page-table mappings", count);
  }
  expect_equal(out, "pool", "mapped_pages", pool->mapped_pages(), "page-table mappings",
               mappings);
  expect_equal(out, "pool", "resident_pages", pool->resident_pages(), "distinct mapped frames",
               per_frame.size());
  return out;
}

void require_balanced(const std::vector<std::string>& violations, const std::string& who) {
  if (violations.empty()) return;
  std::string msg = who + ": ledger violation — ";
  for (std::size_t i = 0; i < violations.size(); ++i) msg += (i ? "; " : "") + violations[i];
  throw std::runtime_error(msg);
}

}  // namespace vmsls::paging
