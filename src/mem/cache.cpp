#include "mem/cache.hpp"

#include <utility>

namespace vmsls::mem {

namespace {

unsigned cache_sets(const CacheConfig& cfg) {
  require(is_pow2(cfg.line_bytes), "cache line size must be a power of two");
  require(cfg.ways > 0, "cache must have ways");
  const u64 lines = cfg.size_bytes / cfg.line_bytes;
  require(lines % cfg.ways == 0, "cache lines must divide evenly into ways");
  require(lines / cfg.ways > 0, "cache must have at least one set");
  return static_cast<unsigned>(lines / cfg.ways);
}

}  // namespace

CacheLevel::CacheLevel(const CacheConfig& cfg, StatRegistry& stats, std::string name)
    : cfg_(cfg),
      lines_(cache_sets(cfg), cfg.ways),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      writebacks_(stats.counter(name + ".writebacks")) {}

CacheLevel::Outcome CacheLevel::access(PhysAddr addr, bool is_write) {
  const u64 line = addr / cfg_.line_bytes;
  if (auto* way = lines_.find(line)) {
    way->payload = way->payload || is_write;
    hits_.add();
    return Outcome{true, false, 0};
  }
  misses_.add();
  Outcome out;
  const auto victim = lines_.place(line, is_write);
  if (victim.valid && victim.payload) {
    out.writeback = true;
    out.writeback_addr = victim.key * cfg_.line_bytes;
    writebacks_.add();
  }
  return out;
}

void CacheLevel::flush() { lines_.clear(); }

CacheHierarchy::CacheHierarchy(sim::Simulator& sim, MemoryBus& bus,
                               const CacheHierarchyConfig& cfg, std::string name)
    : sim_(sim),
      bus_(bus),
      cfg_(cfg),
      l1_(cfg.l1, sim.stats(), name + ".l1"),
      l2_(cfg.l2, sim.stats(), name + ".l2") {
  require(cfg.l1.line_bytes == cfg.l2.line_bytes, "L1/L2 line sizes must match");
}

void CacheHierarchy::access(PhysAddr addr, u32 bytes, bool is_write, sim::Callback<> done) {
  require(bytes > 0, "cache access must touch at least one byte");
  Walk* w = walks_.acquire();
  const u64 line_bytes = cfg_.l1.line_bytes;
  w->next_line = align_down(addr, line_bytes);
  w->end = addr + bytes;
  w->is_write = is_write;
  w->done = std::move(done);
  step(w);
}

void CacheHierarchy::finish(Walk* w) {
  auto done = std::move(w->done);
  walks_.release(w);
  done();
}

void CacheHierarchy::step(Walk* w) {
  const u64 line_bytes = cfg_.l1.line_bytes;
  if (w->next_line >= w->end) {
    sim_.schedule_now([this, w] { finish(w); });
    return;
  }
  const PhysAddr line_addr = w->next_line;
  w->next_line += line_bytes;

  const auto o1 = l1_.access(line_addr, w->is_write);
  if (o1.hit) {
    sim_.schedule_in(cfg_.l1.hit_latency, [this, w] { step(w); });
    return;
  }
  // L1 miss: a dirty L1 victim is absorbed by L2 (both track the line; we
  // charge the L2 access below). Look up L2. A dirty L2 victim's write-back
  // is posted: the access does not wait for it.
  if (o1.writeback) {
    const auto wb = l2_.access(o1.writeback_addr, /*is_write=*/true);
    if (wb.writeback)
      bus_.request(wb.writeback_addr, static_cast<u32>(line_bytes), true, nullptr);
  }
  const auto o2 = l2_.access(line_addr, w->is_write);
  if (o2.writeback)
    bus_.request(o2.writeback_addr, static_cast<u32>(line_bytes), true, nullptr);
  const Cycles lookup_cost = cfg_.l1.hit_latency + cfg_.l2.hit_latency;
  if (o2.hit) {
    sim_.schedule_in(lookup_cost, [this, w] { step(w); });
    return;
  }
  // L2 miss: fill the line from DRAM, then continue with the next line.
  sim_.schedule_in(lookup_cost, [this, w, line_addr, line_bytes] {
    bus_.request(line_addr, static_cast<u32>(line_bytes), false, [this, w] { step(w); });
  });
}

}  // namespace vmsls::mem
