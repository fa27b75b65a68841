// The paging ledger: the one definition of the identities that partition
// all fault, unmap, swap and file-cache traffic (docs/ARCHITECTURE.md, "The
// ledgers"). A Ledger snapshots one pager's counters; snapshots subtract, so
// a run phase is checked without its setup traffic. `check()` covers the
// per-pager partitions, `check_machine()` the front-end totals and the
// refcount identity. They hold once the event queue drains; each violation
// names the bucket and both counts.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace vmsls::paging {

class FramePool;
class Pager;

/// What only the driver knows about one pager's run phase; unset fault
/// counts skip their partition.
struct LedgerExpect {
  std::optional<u64> read_faults;  // sent down the unmapped path
  std::optional<u64> cow_faults;   // writes to resident read-only pages
  u64 external_unmaps = 0;         // Process::evict behind the pager's back
};

/// One pager's ledger counters, by value.
struct Ledger {
  std::string name;  // the pager's
  u64 swap_ins = 0, file_reads = 0, zero_fills = 0, share_hits = 0, inherited_fills = 0;
  u64 cow_copies = 0, cow_upgrades = 0;
  u64 evictions = 0, swap_releases = 0, file_drops = 0, file_writebacks = 0, shared_releases = 0;
  // Owner window on the swap front end, client window on the buffer cache.
  u64 swap_reads = 0, swap_writes = 0, prefetches = 0, writebacks = 0, pageouts = 0;
  u64 client_hits = 0, client_misses = 0;

  static Ledger of(const Pager& pager);
  /// Counter-wise difference of two snapshots of one pager.
  Ledger operator-(const Ledger& base) const;
  std::vector<std::string> check(const LedgerExpect& expect = {}) const;
};

/// Snapshots of a set of pagers.
struct MachineLedger {
  std::vector<Ledger> pagers;

  static MachineLedger of(const std::vector<const Pager*>& pagers);
  MachineLedger operator-(const MachineLedger& base) const;
  /// Every pager's identities; `expect` is index-aligned with `pagers`, or
  /// empty.
  std::vector<std::string> check(const std::vector<LedgerExpect>& expect = {}) const;
};

/// The machine-wide identities over live pagers, which must be every owner
/// of each swap front end and every client of each buffer cache they use.
/// With `pool`, also the refcount identity (the pagers are its members and
/// share one FrameAllocator).
std::vector<std::string> check_machine(const std::vector<const Pager*>& pagers,
                                       const FramePool* pool = nullptr);

/// Throws std::runtime_error("<who>: ledger violation — <v1>; <v2>...")
/// unless `violations` is empty.
void require_balanced(const std::vector<std::string>& violations, const std::string& who);

}  // namespace vmsls::paging
