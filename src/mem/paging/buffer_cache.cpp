#include "mem/paging/buffer_cache.hpp"

#include <utility>

#include "sim/trace.hpp"
#include "util/log.hpp"

namespace vmsls::paging {

BufferCache::BufferCache(sim::Simulator& sim, const BufferCacheConfig& cfg, u64 block_bytes,
                         std::string name)
    : sim_(sim),
      cfg_(cfg),
      block_bytes_(block_bytes),
      name_(std::move(name)),
      hits_(sim.stats().counter(name_ + ".hits")),
      misses_(sim.stats().counter(name_ + ".misses")),
      merged_(sim.stats().counter(name_ + ".merged_reads")),
      reads_(sim.stats().counter(name_ + ".reads")),
      writes_(sim.stats().counter(name_ + ".writes")),
      flushes_(sim.stats().counter(name_ + ".flushes")),
      evictions_(sim.stats().counter(name_ + ".evictions")),
      read_wait_(sim.stats().histogram(name_ + ".read_wait")) {
  require(block_bytes_ > 0, name_ + ": block size must be non-zero");
  require(cfg.bytes_per_cycle > 0, name_ + ": BufferCacheConfig::bytes_per_cycle must be nonzero");
  trace_track_ = sim_.trace().track(name_);
}

unsigned BufferCache::register_client(const std::string& client_name) {
  Client c;
  c.name = client_name;
  c.hits = &sim_.stats().counter(client_name + ".file_hits");
  c.misses = &sim_.stats().counter(client_name + ".file_misses");
  clients_.push_back(std::move(c));
  return static_cast<unsigned>(clients_.size() - 1);
}

bool BufferCache::block_dirty(u32 file, u64 block) const {
  auto it = blocks_.find(pack(file, block));
  return it != blocks_.end() && it->second.dirty;
}

u64 BufferCache::client_hits(unsigned client) const {
  return clients_.at(client).hits->value();
}

u64 BufferCache::client_misses(unsigned client) const {
  return clients_.at(client).misses->value();
}

void BufferCache::touch(Entry& e) { lru_.splice(lru_.begin(), lru_, e.lru); }

void BufferCache::insert_block(u64 key, bool dirty) {
  if (cfg_.capacity_blocks == 0) return;  // uncached mode: timing only
  if (auto it = blocks_.find(key); it != blocks_.end()) {
    // Already present (a write raced a read of the same block, or a merged
    // read landed behind a write-allocate): keep the dirtier state.
    if (dirty && !it->second.dirty) {
      it->second.dirty = true;
      ++dirty_;
    }
    touch(it->second);
  } else {
    lru_.push_front(key);
    blocks_.emplace(key, Entry{lru_.begin(), dirty});
    if (dirty) ++dirty_;
    while (blocks_.size() > cfg_.capacity_blocks) {
      const u64 victim = lru_.back();
      auto vit = blocks_.find(victim);
      evictions_.add();
      if (vit->second.dirty) {
        --dirty_;
        Request wb;
        wb.is_read = false;
        wb.key = victim;
        wb.enqueued = sim_.now();
        enqueue(std::move(wb));
      }
      lru_.pop_back();
      blocks_.erase(vit);
    }
  }
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "cached",
                      static_cast<double>(blocks_.size()));
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "dirty", static_cast<double>(dirty_));
}

void BufferCache::read(unsigned client, u32 file, u64 block, sim::EventFn done, u64 trace_id) {
  const u64 key = pack(file, block);
  if (auto it = blocks_.find(key); it != blocks_.end()) {
    // Hit: zero simulated time, synchronous completion — the device is
    // skipped the way a TLB hit skips the walker.
    hits_.add();
    clients_.at(client).hits->add();
    touch(it->second);
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "hit", trace_id, key);
    done();
    return;
  }
  misses_.add();
  clients_.at(client).misses->add();
  // Merge onto an in-flight or queued read of the same block: one device
  // operation serves every waiter (the buffer-lock wait, cross-process).
  if (in_flight_ && inflight_req_.is_read && inflight_req_.key == key) {
    merged_.add();
    VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "merge", trace_id, key);
    inflight_req_.dones.push_back(std::move(done));
    return;
  }
  for (auto& r : queue_) {
    if (r.is_read && r.key == key) {
      merged_.add();
      VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "merge", trace_id, key);
      r.dones.push_back(std::move(done));
      return;
    }
  }
  Request req;
  req.is_read = true;
  req.key = key;
  req.enqueued = sim_.now();
  req.trace_id = trace_id;
  req.dones.push_back(std::move(done));
  enqueue(std::move(req));
}

void BufferCache::write(unsigned client, u32 file, u64 block, u64 trace_id) {
  (void)client;  // writes are absorbed; attribution happens at the pager
  const u64 key = pack(file, block);
  VMSLS_TRACE_INSTANT(sim_.trace(), trace_track_, "dirtied", trace_id, key);
  if (cfg_.capacity_blocks == 0) {
    // Uncached: the block writes straight through as a background device
    // operation (still never blocking the caller).
    Request wb;
    wb.is_read = false;
    wb.key = key;
    wb.enqueued = sim_.now();
    wb.trace_id = trace_id;
    enqueue(std::move(wb));
    return;
  }
  if (auto it = blocks_.find(key); it != blocks_.end()) {
    if (!it->second.dirty) {
      it->second.dirty = true;
      ++dirty_;
    }
    touch(it->second);
    VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "dirty", static_cast<double>(dirty_));
  } else {
    // Write-allocate without a read: a page writeback overwrites the whole
    // block, so there is nothing to fetch.
    insert_block(key, /*dirty=*/true);
  }
  arm_flush_daemon();
}

void BufferCache::enqueue(Request req) {
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "queue", req.trace_id, req.key);
  queue_.push_back(std::move(req));
  pump();
}

void BufferCache::pump() {
  if (in_flight_ || queue_.empty()) return;
  // Demand reads dispatch ahead of background writes, under the bounded
  // bypass guard — the SwapScheduler's priority rule with two classes.
  std::size_t pick = 0;
  if (!queue_.front().is_read && reads_bypassed_ < cfg_.write_starvation_limit) {
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].is_read) {
        pick = i;
        break;
      }
    }
  }
  if (pick != 0) {
    ++reads_bypassed_;
  } else {
    reads_bypassed_ = 0;
  }
  Request req = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "queue", req.trace_id, req.key);
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "io", req.trace_id, req.key);
  const Cycles access = req.is_read ? cfg_.read_latency : cfg_.write_latency;
  const Cycles duration = access + block_bytes_ / cfg_.bytes_per_cycle;
  if (req.is_read) {
    reads_.add();
    read_wait_.record(sim_.now() - req.enqueued);
  } else {
    writes_.add();
  }
  in_flight_ = true;
  inflight_req_ = std::move(req);
  sim_.schedule_in(duration, [this] {
    Request done = std::move(inflight_req_);
    inflight_req_ = Request{};
    in_flight_ = false;
    complete(std::move(done));
    pump();
  });
}

void BufferCache::complete(Request req) {
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "io", req.trace_id, req.key);
  if (req.is_read) insert_block(req.key, /*dirty=*/false);
  for (auto& d : req.dones) d();
}

// --- flush daemon ----------------------------------------------------------
//
// Periodic, batch-bounded background cleaning, activity-gated the same way
// as the pager daemons: armed by the first dirty block, re-armed while dirty
// blocks remain, disarmed when the cache is clean — so an idle simulation
// quiesces and the event queue drains.

void BufferCache::arm_flush_daemon() {
  if (cfg_.flush_interval == 0 || flush_armed_ || dirty_ == 0) return;
  flush_armed_ = true;
  sim_.schedule_in(cfg_.flush_interval, [this] { flush_tick(); });
}

void BufferCache::flush_tick() {
  flush_armed_ = false;
  if (dirty_ == 0) return;
  if (busy()) {
    // Yield to demand traffic: retry the whole batch next period.
    flush_armed_ = true;
    sim_.schedule_in(cfg_.flush_interval, [this] { flush_tick(); });
    return;
  }
  // Clean coldest-first (LRU back): those blocks are the next capacity
  // victims, and a clean victim frees for nothing.
  u64 cleaned = 0;
  for (auto it = lru_.rbegin(); it != lru_.rend() && cleaned < cfg_.flush_batch; ++it) {
    Entry& e = blocks_.at(*it);
    if (!e.dirty) continue;
    e.dirty = false;
    --dirty_;
    flushes_.add();
    ++cleaned;
    Request wb;
    wb.is_read = false;
    wb.key = *it;
    wb.enqueued = sim_.now();
    enqueue(std::move(wb));
  }
  VMSLS_TRACE_COUNTER(sim_.trace(), trace_track_, "dirty", static_cast<double>(dirty_));
  arm_flush_daemon();
}

}  // namespace vmsls::paging
