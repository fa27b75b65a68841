// Software-thread memory port: cached, software-translated.
//
// The CPU's own MMU/TLB is not modeled cycle-by-cycle — its translation
// cost is folded into the cache hit latencies, as is standard for
// application-level CPU models. Touching an unmapped page maps it on demand
// with zero extra cost (the software baseline is assumed resident, which
// favors the baseline and keeps our speedup claims conservative).
#pragma once

#include <string>

#include "hwt/ports.hpp"
#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::cpu {

class CachedMemPort final : public hwt::MemPort {
 public:
  CachedMemPort(sim::Simulator& sim, mem::AddressSpace& as, mem::CacheHierarchy& caches,
                std::string name);

  void read(VirtAddr va, std::span<u8> dst, sim::Callback<> done) override;
  void write(VirtAddr va, std::span<const u8> data, sim::Callback<> done) override;

 private:
  struct Xfer {
    VirtAddr va = 0;
    u8* rd = nullptr;        // read destination (caller-owned)
    const u8* wr = nullptr;  // write source (caller-owned)
    u64 bytes = 0;
    u64 pos = 0;
    bool is_write = false;
    sim::Callback<> done;
  };
  void start(VirtAddr va, u8* rd, const u8* wr, u64 bytes, sim::Callback<> done);
  void step(Xfer* x);

  sim::Simulator& sim_;
  mem::AddressSpace& as_;
  mem::CacheHierarchy& caches_;
  std::string name_;
  Pool<Xfer> xfers_;
  Counter& reads_;
  Counter& writes_;
};

}  // namespace vmsls::cpu
