#include "hwt/hw_port.hpp"

#include <algorithm>
#include <utility>

namespace vmsls::hwt {

HwMemPort::HwMemPort(sim::Simulator& sim, mem::Mmu& mmu, mem::MemoryBus& bus,
                     mem::PhysicalMemory& pm, const HwPortConfig& cfg, std::string name)
    : sim_(sim),
      mmu_(mmu),
      bus_(bus),
      pm_(pm),
      cfg_(cfg),
      name_(std::move(name)),
      reads_(sim.stats().counter(name_ + ".reads")),
      writes_(sim.stats().counter(name_ + ".writes")),
      bytes_(sim.stats().counter(name_ + ".bytes")) {
  require(cfg.max_burst_bytes > 0, "burst cap must be nonzero");
}

void HwMemPort::read(VirtAddr va, std::span<u8> dst, sim::Callback<> done) {
  require(!dst.empty(), "zero-byte port read");
  reads_.add();
  start(va, dst.data(), nullptr, dst.size(), std::move(done));
}

void HwMemPort::write(VirtAddr va, std::span<const u8> data, sim::Callback<> done) {
  require(!data.empty(), "zero-byte port write");
  writes_.add();
  start(va, nullptr, data.data(), data.size(), std::move(done));
}

void HwMemPort::start(VirtAddr va, u8* rd, const u8* wr, u64 bytes, sim::Callback<>&& done) {
  bytes_.add(bytes);
  Xfer* x = xfers_.acquire();
  x->va = va;
  x->rd = rd;
  x->wr = wr;
  x->bytes = bytes;
  x->pos = 0;
  x->is_write = wr != nullptr;
  x->done = std::move(done);
  step(x);
}

void HwMemPort::step(Xfer* x) {
  x->stepping = true;
  while (x->pos < x->bytes) {
    const u64 page = 1ull << mmu_.page_bits();
    const VirtAddr va = x->va + x->pos;
    const u64 to_page_end = page - (va & (page - 1));
    x->chunk = static_cast<u32>(
        std::min<u64>({to_page_end, x->bytes - x->pos, cfg_.max_burst_bytes}));

    // The pin covers translation (including any fault service) through bus
    // completion: the physical address captured below stays valid because
    // no replacement policy will victimize a pinned page.
    if (as_ != nullptr) as_->pin(va);
    x->chunk_done = false;
    mmu_.translate(va, x->is_write, [this, x](PhysAddr pa) {
      x->pa = pa;
      bus_.request(pa, x->chunk, x->is_write, [this, x] { on_chunk_done(x); },
                   /*tail_call=*/true);
    });
    if (!x->chunk_done) {
      x->stepping = false;  // on_chunk_done re-enters step() when it fires
      return;
    }
  }
  auto done = std::move(x->done);
  xfers_.release(x);  // recycle before the continuation issues the next access
  done();
}

void HwMemPort::on_chunk_done(Xfer* x) {
  if (x->is_write)
    pm_.write(x->pa, std::span<const u8>(x->wr + x->pos, x->chunk));
  else
    pm_.read(x->pa, std::span<u8>(x->rd + x->pos, x->chunk));
  if (as_ != nullptr) as_->unpin(x->va + x->pos);
  x->pos += x->chunk;
  if (x->stepping)
    x->chunk_done = true;  // step()'s loop issues the next chunk
  else
    step(x);
}

}  // namespace vmsls::hwt
