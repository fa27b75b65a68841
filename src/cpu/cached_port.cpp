#include "cpu/cached_port.hpp"

#include <algorithm>
#include <utility>

namespace vmsls::cpu {

CachedMemPort::CachedMemPort(sim::Simulator& sim, mem::AddressSpace& as,
                             mem::CacheHierarchy& caches, std::string name)
    : sim_(sim),
      as_(as),
      caches_(caches),
      name_(std::move(name)),
      reads_(sim.stats().counter(name_ + ".reads")),
      writes_(sim.stats().counter(name_ + ".writes")) {}

void CachedMemPort::read(VirtAddr va, std::span<u8> dst, sim::Callback<> done) {
  require(!dst.empty(), "zero-byte CPU read");
  reads_.add();
  start(va, dst.data(), nullptr, dst.size(), std::move(done));
}

void CachedMemPort::write(VirtAddr va, std::span<const u8> data, sim::Callback<> done) {
  require(!data.empty(), "zero-byte CPU write");
  writes_.add();
  start(va, nullptr, data.data(), data.size(), std::move(done));
}

void CachedMemPort::start(VirtAddr va, u8* rd, const u8* wr, u64 bytes, sim::Callback<> done) {
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

void CachedMemPort::step(Xfer* x) {
  if (x->pos >= x->bytes) {
    if (x->is_write)
      as_.write(x->va, std::span<const u8>(x->wr, x->bytes));
    else
      as_.read(x->va, std::span<u8>(x->rd, x->bytes));
    auto done = std::move(x->done);
    xfers_.release(x);
    done();
    return;
  }
  const u64 page = as_.page_bytes();
  const VirtAddr va = x->va + x->pos;
  const u64 to_page_end = page - (va & (page - 1));
  const u32 chunk = static_cast<u32>(std::min<u64>(to_page_end, x->bytes - x->pos));

  // Software page touch: demand-map with zero modeled cost (resident
  // baseline assumption; see header comment).
  if (!as_.is_mapped(va)) as_.map_page(va);
  const PhysAddr pa = *as_.translate(va);
  x->pos += chunk;
  caches_.access(pa, chunk, x->is_write, [this, x] { step(x); });
}

}  // namespace vmsls::cpu
