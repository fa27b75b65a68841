// CPU-side cache hierarchy (timing model).
//
// The software baselines execute the same kernel IR as the hardware
// threads, but their memory accesses go through an L1/L2 hierarchy instead
// of a TLB + fabric port. Caches are set-associative, write-back,
// write-allocate, true-LRU. Misses and dirty evictions generate real
// traffic on the shared memory bus, so software and hardware threads
// contend for DRAM exactly as they would on a Zynq-class SoC.
#pragma once

#include <string>

#include "mem/bus.hpp"
#include "mem/set_assoc.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::mem {

struct CacheConfig {
  u64 size_bytes = 32 * KiB;
  unsigned ways = 4;
  unsigned line_bytes = 32;
  Cycles hit_latency = 1;  // in reference (fabric) cycles
};

/// One level of cache: tag array + LRU, no data (contents live in
/// PhysicalMemory). `access` reports hit/miss and any dirty victim.
class CacheLevel {
 public:
  CacheLevel(const CacheConfig& cfg, StatRegistry& stats, std::string name);

  struct Outcome {
    bool hit = false;
    bool writeback = false;
    PhysAddr writeback_addr = 0;
  };

  /// Accesses the line containing `addr`, allocating on miss.
  Outcome access(PhysAddr addr, bool is_write);

  void flush();  // invalidate all (drops dirty state; test helper)

  const CacheConfig& config() const noexcept { return cfg_; }
  u64 hits() const noexcept { return hits_.value(); }
  u64 misses() const noexcept { return misses_.value(); }

 private:
  CacheConfig cfg_;
  SetAssoc<bool> lines_;  // keyed by line number; the payload is the dirty bit

  Counter& hits_;
  Counter& misses_;
  Counter& writebacks_;
};

struct CacheHierarchyConfig {
  CacheConfig l1{32 * KiB, 4, 32, 1};
  CacheConfig l2{512 * KiB, 8, 32, 6};
};

/// L1 + L2 in front of the memory bus. Access latency accumulates hit
/// latencies; L2 misses issue line fills on the bus and complete when the
/// fill returns. Dirty evictions are posted writes (fire and forget).
class CacheHierarchy {
 public:
  CacheHierarchy(sim::Simulator& sim, MemoryBus& bus, const CacheHierarchyConfig& cfg,
                 std::string name);

  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  /// Performs the timing for a CPU access of `bytes` at physical `addr`
  /// (split internally at line boundaries); `done` fires at completion.
  void access(PhysAddr addr, u32 bytes, bool is_write, sim::Callback<> done);

  CacheLevel& l1() noexcept { return l1_; }
  CacheLevel& l2() noexcept { return l2_; }

 private:
  /// Per-access state machine (pooled).
  struct Walk {
    PhysAddr next_line = 0;
    PhysAddr end = 0;
    bool is_write = false;
    sim::Callback<> done;
  };
  void step(Walk* w);
  void finish(Walk* w);

  sim::Simulator& sim_;
  MemoryBus& bus_;
  CacheHierarchyConfig cfg_;
  CacheLevel l1_;
  CacheLevel l2_;
  Pool<Walk> walks_;
};

}  // namespace vmsls::mem
