// DMA copy engine (baseline substrate).
//
// Moves physically addressed data in bus bursts: each chunk is one read
// plus one write transaction on the shared memory bus, with the functional
// copy performed at chunk completion. This is the engine the conventional
// copy-based offload flow uses for its copy-in/copy-out phases.
#pragma once

#include <string>

#include "mem/bus.hpp"
#include "mem/physmem.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::dma {

struct DmaConfig {
  u32 chunk_bytes = 256;    // burst size per bus transaction
  Cycles setup_latency = 24;  // descriptor fetch + channel start
};

class DmaEngine {
 public:
  DmaEngine(sim::Simulator& sim, mem::MemoryBus& bus, mem::PhysicalMemory& pm,
            const DmaConfig& cfg, std::string name);

  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// Copies `bytes` from physical `src` to physical `dst`; `done` fires at
  /// completion. Multiple copies may be outstanding (they contend on the
  /// bus, not in the engine: a multi-channel controller).
  void copy(PhysAddr src, PhysAddr dst, u64 bytes, sim::Callback<> done);

  const DmaConfig& config() const noexcept { return cfg_; }
  u64 transfers() const noexcept { return transfers_.value(); }

 private:
  struct Xfer {
    PhysAddr src = 0;
    PhysAddr dst = 0;
    u64 bytes = 0;
    u64 pos = 0;
    u32 chunk = 0;  // the chunk in flight
    sim::Callback<> done;
  };
  void step(Xfer* x);
  void on_chunk_done(Xfer* x);

  sim::Simulator& sim_;
  mem::MemoryBus& bus_;
  mem::PhysicalMemory& pm_;
  DmaConfig cfg_;
  std::string name_;
  Pool<Xfer> xfers_;
  Counter& transfers_;
  Counter& bytes_;
};

}  // namespace vmsls::dma
