// Hardware page-table walker.
//
// A single walker component is shared by all hardware threads (the paper's
// MMU is a shared fabric block). It services up to `ports` walks
// concurrently — the default of 1 serializes all misses, which the
// thread-scaling experiment measures, and ablation A4 adds ports. Each
// level of the radix walk is one 8-byte read on the memory bus. A page-walk
// cache (fully associative, true LRU; 0 entries turns it off) remembers the
// last-level interior table for recently walked regions, cutting full walks
// to a single memory read (ablation A1).
#pragma once

#include <string>

#include "mem/bus.hpp"
#include "mem/pagetable.hpp"
#include "mem/set_assoc.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::mem {

struct WalkerConfig {
  Cycles setup_latency = 2;  // miss-handling handshake before the first read
  unsigned walk_cache_entries = 16;  // 0 = no walk cache
  unsigned ports = 1;  // concurrent walks serviced
};

struct WalkResult {
  bool fault = false;
  unsigned fault_level = 0;  // level whose PTE was invalid (0 = root)
  u64 frame = 0;
  bool writable = false;
};

class PageWalker {
 public:
  PageWalker(sim::Simulator& sim, MemoryBus& bus, PhysicalMemory& pm, const PageTable& pt,
             const WalkerConfig& cfg, std::string name);

  PageWalker(const PageWalker&) = delete;
  PageWalker& operator=(const PageWalker&) = delete;

  /// Starts (or queues) a walk for `va`; `done` fires when the walk
  /// completes, successfully or with a fault.
  ///
  /// The walk chain runs ahead (sim/simulator.hpp): its setup delay and
  /// every PTE read complete in place when nothing contends, so `done`
  /// may run inside a token-holding event and must end in tail calls; a
  /// continuation that runs foreign code calls forgo_run_ahead first.
  /// With `tail_call` the caller returns right after walk(), so a walk
  /// that starts at once may run its setup delay ahead inside this call.
  void walk(VirtAddr va, sim::Callback<const WalkResult&> done, bool tail_call = false);

  /// Drops all cached interior entries. The OS model calls this as part of
  /// TLB shootdown whenever it changes the page tables.
  void flush_cache();

  /// Funnel for every hardware accessed/dirty-bit update (walker leaf fills
  /// whose PTE lacks A, and the MMU's TLB-hit refreshes and write fills):
  /// performs the functional PTE update and, when a bit actually changed,
  /// posts the 8-byte PTE write at the leaf PTE's address on the memory
  /// bus, as real MMUs write the bit back (fire-and-forget — the walk or
  /// translation does not stall on it and no completion event is queued,
  /// but the fabric carries the traffic). Re-setting a set bit is free.
  void note_ad_update(VirtAddr va, bool dirty);

  const PageTable& page_table() const noexcept { return pt_; }
  unsigned page_bits() const noexcept { return pt_.config().page_bits; }
  unsigned active_walks() const noexcept { return active_; }

 private:
  /// Per-walk state machine, from enqueue to completion; several may be
  /// in flight. Instances are pooled and recycled (each callback chain
  /// holds exactly one live pointer at a time), so steady-state walks do
  /// not allocate.
  struct Walk {
    VirtAddr va = 0;
    unsigned level = 0;
    PhysAddr base = 0;
    sim::Callback<const WalkResult&> done;
    Cycles enqueued = 0;
    Cycles started = 0;
  };

  /// Starts queued walks while ports are free, each on the scheduled path.
  void try_start();
  /// Starts `w` now; with `run_ahead`, its setup delay may elapse in place.
  void begin(Walk* w, bool run_ahead);
  void read_level(Walk* w);
  void on_pte(Walk* w, u64 raw);
  void finish(Walk* w, const WalkResult& r);

  /// The walk cache is in use: it has entries and there is an interior
  /// level to skip.
  bool walk_cache_on() const noexcept { return cfg_.walk_cache_entries > 0 && pt_.levels() >= 2; }
  u64 cache_tag(VirtAddr va) const noexcept;

  sim::Simulator& sim_;
  MemoryBus& bus_;
  PhysicalMemory& pm_;
  const PageTable& pt_;
  WalkerConfig cfg_;
  std::string name_;

  Fifo<Walk*> queue_;
  unsigned active_ = 0;
  Pool<Walk> walk_pool_;

  SetAssoc<PhysAddr> cache_;  // one set; cache_tag -> leaf table base

  Counter& walks_;
  Counter& faults_;
  Counter& mem_reads_;
  Counter& ad_writebacks_;
  Counter& cache_hits_;
  Counter& cache_misses_;
  Histogram& walk_latency_;
  Histogram& queue_wait_;
};

}  // namespace vmsls::mem
