// Machine-wide block-level buffer cache: the file I/O front end.
//
// The second shared I/O subsystem next to the SwapScheduler ("one flash
// part, N pagers"): one file device, N pagers, and — unlike swap — a cache
// of recently-used blocks in front of the device. Read hits skip the device
// the way TLB hits skip the walker: the completion fires synchronously in
// zero simulated time. Misses queue on a single timed device port (access
// latency + bytes/bandwidth, reads dispatched ahead of background writes
// under a bounded-bypass starvation guard — the SwapScheduler's classed
// queue, specialized to two classes), and concurrent misses on one block
// merge into one device read (the kernel's wait-on-buffer-lock discipline,
// cross-process: the cache is shared machine-wide through the
// sls::Machine, so process B's miss coalesces onto process A's read).
//
// Writes are write-back with write-allocate: dirtying a block is pure
// bookkeeping and never blocks the writer — eviction of a dirty *page* is
// therefore cheap on the fault path, and the device cost is paid later by
// a flush daemon (periodic, batch-bounded, yields to demand reads by
// skipping ticks while the device is busy) or when capacity eviction pushes
// a dirty block out of the cache. Both emit background-class device writes
// with no waiter, so the event queue always drains and the daemon disarms
// once the cache is clean — the same activity-gating contract as the
// pager's pageout daemon.
//
// Like the SwapScheduler, this class is timing + bookkeeping only: block
// *bytes* live in mem::BackingFile, which the functional layer
// (AddressSpace) reads and writes directly.
#pragma once

#include <deque>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace vmsls::paging {

struct BufferCacheConfig {
  /// Blocks the cache holds (one block == one page); 0 disables caching —
  /// every read misses straight to the device, writes still absorb into a
  /// single transient slot. Sized like a real machine's page cache: a large
  /// fraction of DRAM.
  u64 capacity_blocks = 4096;
  Cycles read_latency = 3600;    // per-operation device access latency
  Cycles write_latency = 5200;   // file-device writes, flash-class asymmetry
  unsigned bytes_per_cycle = 4;  // device port streaming bandwidth
  /// Flush daemon period in cycles; 0 disables it (dirty blocks then only
  /// reach the device through capacity eviction).
  Cycles flush_interval = 20000;
  /// Dirty blocks cleaned (queued as background writes) per daemon tick.
  u64 flush_batch = 8;
  /// A queued background write is dispatched after at most this many reads
  /// bypass it (the starvation guard, as in SwapConfig).
  u64 write_starvation_limit = 8;
};

class BufferCache {
 public:
  BufferCache(sim::Simulator& sim, const BufferCacheConfig& cfg, u64 block_bytes,
              std::string name);

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  const BufferCacheConfig& config() const noexcept { return cfg_; }
  const std::string& name() const noexcept { return name_; }

  /// Registers a client (a pager). Registration order fixes ids; the name
  /// prefixes the client's hit/miss counters ("<client>.file_hits" /
  /// ".file_misses") so per-process file traffic stays attributable on a
  /// machine-wide cache.
  unsigned register_client(const std::string& client_name);

  /// Timed block read (file page lazy-load). Hit: completes synchronously,
  /// zero cycles. Miss: queues a demand-class device read; concurrent
  /// misses on the same block merge onto the in-flight or queued read.
  /// `trace_id` threads the faulting request's causal id through the
  /// "queue"/"io" spans (0 = untraced).
  void read(unsigned client, u32 file, u64 block, sim::EventFn done, u64 trace_id = 0);

  /// Write-back, write-allocate dirtying of a block (a dirty file page
  /// writing back through the cache). Never blocks: bookkeeping now, device
  /// time later (flush daemon or capacity eviction). The whole block is
  /// overwritten by a page writeback, so no read-for-allocate is needed.
  void write(unsigned client, u32 file, u64 block, u64 trace_id = 0);

  /// True while the device port is mid-transfer or requests wait.
  bool busy() const noexcept { return in_flight_ || !queue_.empty(); }
  bool block_cached(u32 file, u64 block) const { return blocks_.count(pack(file, block)) != 0; }
  bool block_dirty(u32 file, u64 block) const;

  // --- introspection ---
  u64 hits() const noexcept { return hits_.value(); }
  u64 misses() const noexcept { return misses_.value(); }
  u64 merged_reads() const noexcept { return merged_.value(); }
  u64 device_reads() const noexcept { return reads_.value(); }
  u64 device_writes() const noexcept { return writes_.value(); }
  u64 flushes() const noexcept { return flushes_.value(); }
  u64 evictions() const noexcept { return evictions_.value(); }
  u64 cached_blocks() const noexcept { return static_cast<u64>(blocks_.size()); }
  u64 dirty_blocks() const noexcept { return dirty_; }
  u64 queue_depth() const noexcept { return static_cast<u64>(queue_.size()); }
  u64 clients() const noexcept { return static_cast<u64>(clients_.size()); }
  u64 client_hits(unsigned client) const;
  u64 client_misses(unsigned client) const;

 private:
  struct Entry {
    std::list<u64>::iterator lru;  // position in lru_ (front = MRU)
    bool dirty = false;
  };
  struct Request {
    bool is_read = false;
    u64 key = 0;
    Cycles enqueued = 0;
    u64 trace_id = 0;
    std::vector<sim::EventFn> dones;  // read waiters; empty for writes
  };

  static u64 pack(u32 file, u64 block) noexcept {
    return (static_cast<u64>(file) << 40) | block;  // blocks fit far below 2^40
  }

  /// Inserts `key` resident-clean (or dirty), evicting the LRU block when
  /// over capacity — a dirty victim queues a background device write.
  void insert_block(u64 key, bool dirty);
  void touch(Entry& e);
  void enqueue(Request req);
  void pump();
  void complete(Request req);
  void arm_flush_daemon();
  void flush_tick();

  sim::Simulator& sim_;
  BufferCacheConfig cfg_;
  u64 block_bytes_;
  std::string name_;
  sim::TraceTrack trace_track_ = 0;

  struct Client {
    std::string name;
    Counter* hits = nullptr;
    Counter* misses = nullptr;
  };
  std::vector<Client> clients_;

  std::unordered_map<u64, Entry> blocks_;
  std::list<u64> lru_;  // front = most recently used
  u64 dirty_ = 0;

  std::deque<Request> queue_;
  bool in_flight_ = false;
  /// The in-flight request's key when it is a read — later misses on the
  /// same block attach here instead of issuing a second device read.
  Request inflight_req_{};
  u64 reads_bypassed_ = 0;  // starvation-guard odometer
  bool flush_armed_ = false;

  Counter& hits_;
  Counter& misses_;
  Counter& merged_;
  Counter& reads_;
  Counter& writes_;
  Counter& flushes_;
  Counter& evictions_;
  Histogram& read_wait_;
};

}  // namespace vmsls::paging
