// Hardware-thread memory port: MMU-translated fabric bus master.
//
// This is the synthesized wrapper component that gives a hardware thread
// its virtual-memory view. Every request is split at page boundaries (a
// translation is valid for one page) and at the port's maximum burst
// length (AXI-style), translated through the thread's MMU, then issued on
// the shared memory bus. Functional data moves against PhysicalMemory at
// each chunk's completion time, straight into (or out of) the caller's
// span; the transfer itself is a pooled record, so an access allocates
// nothing once the pool has warmed up.
//
// Every completion on this path ends in a tail call (translate -> bus
// request -> chunk done -> next chunk or the caller's `done`), so its bus
// requests are marked tail_call and may run ahead (sim/simulator.hpp).
// The translation and bus continuations are plain lambdas over `this` and
// the transfer: a TLB hit on an idle bus calls them directly, and they are
// type-erased only where the chunk waits (sim/event_fn.hpp).
// A chunk that completes inside translate() continues step()'s loop
// instead of recursing, so host stack depth does not grow with a burst's
// length.
#pragma once

#include <string>

#include "hwt/ports.hpp"
#include "mem/address_space.hpp"
#include "mem/bus.hpp"
#include "mem/mmu.hpp"
#include "mem/physmem.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::hwt {

struct HwPortConfig {
  u32 max_burst_bytes = 512;  // AXI burst cap
};

class HwMemPort final : public MemPort {
 public:
  HwMemPort(sim::Simulator& sim, mem::Mmu& mmu, mem::MemoryBus& bus, mem::PhysicalMemory& pm,
            const HwPortConfig& cfg, std::string name);

  void read(VirtAddr va, std::span<u8> dst, sim::Callback<> done) override;
  void write(VirtAddr va, std::span<const u8> data, sim::Callback<> done) override;

  mem::Mmu& mmu() noexcept { return mmu_; }

  /// Enables in-flight page pinning against `as`: each chunk holds a pin
  /// from translation start to bus completion so replacement policies never
  /// evict the frame underneath a committed transaction. Memory-pressure
  /// systems wire this; nullptr (the default) keeps the pre-pressure model.
  void set_address_space(mem::AddressSpace* as) noexcept { as_ = as; }

 private:
  struct Xfer {
    VirtAddr va = 0;
    u8* rd = nullptr;        // read destination (caller-owned)
    const u8* wr = nullptr;  // write source (caller-owned)
    u64 bytes = 0;
    u64 pos = 0;  // bytes completed
    bool is_write = false;
    // The chunk in flight: translated address and length.
    PhysAddr pa = 0;
    u32 chunk = 0;
    bool stepping = false;    // step()'s loop is on the stack
    bool chunk_done = false;  // the chunk completed inside that loop
    sim::Callback<> done;
  };
  /// Moves the caller's `done` into the transfer record, its one move
  /// before it fires.
  void start(VirtAddr va, u8* rd, const u8* wr, u64 bytes, sim::Callback<>&& done);
  void step(Xfer* x);
  void on_chunk_done(Xfer* x);

  sim::Simulator& sim_;
  mem::Mmu& mmu_;
  mem::MemoryBus& bus_;
  mem::PhysicalMemory& pm_;
  mem::AddressSpace* as_ = nullptr;
  HwPortConfig cfg_;
  std::string name_;
  Pool<Xfer> xfers_;

  Counter& reads_;
  Counter& writes_;
  Counter& bytes_;
};

}  // namespace vmsls::hwt
