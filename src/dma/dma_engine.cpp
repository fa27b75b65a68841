#include "dma/dma_engine.hpp"

#include <algorithm>

namespace vmsls::dma {

DmaEngine::DmaEngine(sim::Simulator& sim, mem::MemoryBus& bus, mem::PhysicalMemory& pm,
                     const DmaConfig& cfg, std::string name)
    : sim_(sim),
      bus_(bus),
      pm_(pm),
      cfg_(cfg),
      name_(std::move(name)),
      transfers_(sim.stats().counter(name_ + ".transfers")),
      bytes_(sim.stats().counter(name_ + ".bytes")) {
  require(cfg.chunk_bytes > 0, "DMA chunk size must be nonzero");
}

void DmaEngine::copy(PhysAddr src, PhysAddr dst, u64 bytes, sim::Callback<> done) {
  require(bytes > 0, "zero-byte DMA transfer");
  transfers_.add();
  bytes_.add(bytes);
  Xfer* x = xfers_.acquire();
  x->src = src;
  x->dst = dst;
  x->bytes = bytes;
  x->pos = 0;
  x->done = std::move(done);
  sim_.schedule_in(cfg_.setup_latency, [this, x] { step(x); });
}

void DmaEngine::step(Xfer* x) {
  if (x->pos >= x->bytes) {
    auto done = std::move(x->done);
    xfers_.release(x);
    done();
    return;
  }
  x->chunk = static_cast<u32>(std::min<u64>(cfg_.chunk_bytes, x->bytes - x->pos));
  bus_.request(x->src + x->pos, x->chunk, false, [this, x] {
    bus_.request(x->dst + x->pos, x->chunk, true, [this, x] { on_chunk_done(x); });
  });
}

void DmaEngine::on_chunk_done(Xfer* x) {
  pm_.copy(x->src + x->pos, x->dst + x->pos, x->chunk);
  x->pos += x->chunk;
  step(x);
}

}  // namespace vmsls::dma
