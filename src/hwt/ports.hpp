// Abstract interfaces between a kernel engine and the rest of the system.
//
// The engine is agnostic to what is behind its ports. The hardware-thread
// configuration plugs in HwMemPort (TLB/MMU + fabric bus) and the delegate
// OS interface; the software configuration plugs in a cached CPU port and
// the direct syscall interface. This is the seam that lets one kernel
// description serve as both the accelerator and its software baseline.
//
// Completion contract (every per-access interface down to the walker):
//   * `done` fires exactly once. At a port it is a move-only
//     sim::Callback, moved once into a pooled record. Below the port,
//     Mmu::translate and MemoryBus::request take any callable and
//     type-erase it only when the access waits (sim/event_fn.hpp).
//   * Buffers belong to the caller. A read lands in `dst`, a write takes
//     its bytes from `data`; both spans must stay valid and untouched
//     until `done` fires. Ports never copy or allocate a data buffer.
//   * `done` may fire inside the call (a zero-latency path completes
//     inline), so callers must not assume it runs after they return.
#pragma once

#include <span>

#include "sim/event_fn.hpp"
#include "util/units.hpp"

namespace vmsls::hwt {

/// A memory port: reads and writes by *virtual* address. Completion
/// callbacks fire when the transaction (including translation, faults and
/// interconnect time) is done.
class MemPort {
 public:
  virtual ~MemPort() = default;

  virtual void read(VirtAddr va, std::span<u8> dst, sim::Callback<> done) = 0;
  virtual void write(VirtAddr va, std::span<const u8> data, sim::Callback<> done) = 0;
};

/// The OS-service interface (mailboxes and semaphores). Blocking semantics:
/// callbacks fire when the operation completes, possibly after waiting on a
/// peer thread.
class OsPort {
 public:
  virtual ~OsPort() = default;

  virtual void mbox_get(unsigned mbox, sim::Callback<i64> done) = 0;
  virtual void mbox_put(unsigned mbox, i64 value, sim::Callback<> done) = 0;
  virtual void sem_wait(unsigned sem, sim::Callback<> done) = 0;
  virtual void sem_post(unsigned sem, sim::Callback<> done) = 0;
};

}  // namespace vmsls::hwt
