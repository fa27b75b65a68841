// Shared memory interconnect (AXI-HP-like).
//
// All masters — hardware-thread memory ports, the page-table walker, the
// DMA engine, and the CPU cache hierarchy — contend for one address/data
// channel to DRAM. Arbitration is first-come-first-served with deterministic
// tie-breaking (simulator event order). The address/command phase occupies
// the channel for `header_cycles` plus the data beats; the DRAM access
// itself overlaps with subsequent commands (banks permitting), which models
// an outstanding-transaction-capable AXI port.
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>

#include "mem/dram.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"
#include "util/stats.hpp"

namespace vmsls::mem {

struct BusConfig {
  unsigned width_bytes = 8;  // data beats per fabric cycle
  Cycles header_cycles = 2;  // command/handshake overhead per transaction
};

class MemoryBus {
 public:
  MemoryBus(sim::Simulator& sim, DramModel& dram, const BusConfig& cfg, std::string name);

  MemoryBus(const MemoryBus&) = delete;
  MemoryBus& operator=(const MemoryBus&) = delete;

  /// Issues one transaction of `bytes` at `addr`. `on_done` fires at its
  /// completion cycle; the issuer then performs its functional data access
  /// against PhysicalMemory. A write may pass nullptr instead: it is posted
  /// (fire-and-forget: the walker's A/D write-backs and the CPU caches'
  /// dirty-line write-backs), so the bus charges its channel occupancy and
  /// DRAM access and marks its completion with sim::Simulator::post,
  /// queueing no event. A read needs an `on_done`.
  ///
  /// With `tail_call`, `on_done` ends in tail calls (see
  /// sim::Simulator::schedule_run_ahead): a request alone on an idle
  /// channel may complete in place, inside this call, and its completion
  /// event otherwise holds the run-ahead token. The hardware-thread port
  /// sets it on its data and the walker on its PTE reads; DMA never does.
  ///
  /// `on_done` is any callable. It becomes a sim::EventFn only when the
  /// request has to wait (queued behind a busy channel, or scheduled at
  /// its completion), so one completed in place is a direct call.
  template <class Done>
  void request(PhysAddr addr, u32 bytes, bool is_write, Done&& on_done, bool tail_call = false);

  /// Cycles the data channel was occupied (for utilization reporting).
  Cycles busy_cycles() const noexcept { return busy_cycles_; }

  const BusConfig& config() const noexcept { return cfg_; }

 private:
  /// A transaction waiting for the channel: the queue's record, and the
  /// only place a request's `on_done` is held as a sim::EventFn (empty for
  /// a posted write). The EventFn's inline storage keeps enqueueing free of
  /// heap allocation for typical closures.
  struct BusRequest {
    PhysAddr addr = 0;
    u32 bytes = 0;
    bool is_write = false;
    sim::EventFn on_done;
    bool tail_call = false;
    Cycles enqueued = 0;
  };

  /// Checks and counts a request; true when the channel is free for it at
  /// once (idle, with nothing queued: the queue would hand it straight back).
  bool admit(u32 bytes, bool is_write, bool posted) {
    require(bytes > 0, "bus request must move at least one byte");
    require(is_write || !posted,
            "bus read needs a completion callback (only a write may be posted)");
    requests_.add();
    (is_write ? write_requests_ : read_requests_).add();
    bytes_.add(bytes);
    return !pump_scheduled_ && queue_.empty() && channel_free_ <= sim_.now();
  }
  /// Gives the channel to a transaction now (it waited since `enqueued`):
  /// records the wait, occupies the channel, accesses DRAM. Returns its
  /// completion cycle.
  Cycles occupy(PhysAddr addr, u32 bytes, bool is_write, Cycles enqueued);
  /// Whether `on_done` is a posted write's absent completion.
  template <class D>
  static bool is_posted(const D& on_done) {
    if constexpr (std::is_same_v<D, std::nullptr_t>)
      return true;
    else if constexpr (std::is_same_v<D, sim::EventFn>)
      return !on_done;
    else
      return false;
  }
  /// Posts, schedules or runs ahead the completion at `done` of a request
  /// just granted the channel. Only a tail call with nothing queued behind
  /// it may run in place; returns whether it did.
  template <class Done>
  bool finish(Cycles done, Done&& on_done, bool tail_call);
  void enqueue(BusRequest req);
  void pump();
  /// Occupies the channel for the queue's front `req` and finishes it.
  void grant(BusRequest& req);

  sim::Simulator& sim_;
  DramModel& dram_;
  BusConfig cfg_;
  std::string name_;
  Fifo<BusRequest> queue_;
  Cycles channel_free_ = 0;
  bool pump_scheduled_ = false;
  Cycles busy_cycles_ = 0;

  Counter& requests_;
  Counter& read_requests_;
  Counter& write_requests_;
  Counter& bytes_;
  Histogram& wait_hist_;
};

template <class Done>
void MemoryBus::request(PhysAddr addr, u32 bytes, bool is_write, Done&& on_done,
                        bool tail_call) {
  if (!admit(bytes, is_write, is_posted(on_done))) {
    enqueue(BusRequest{addr, bytes, is_write, sim::EventFn(std::forward<Done>(on_done)),
                       tail_call, sim_.now()});
    return;
  }
  // Nothing is queued, so nothing is left to pump after this request.
  finish(occupy(addr, bytes, is_write, sim_.now()), std::forward<Done>(on_done), tail_call);
}

template <class Done>
bool MemoryBus::finish(Cycles done, Done&& on_done, bool tail_call) {
  if constexpr (!std::is_same_v<std::decay_t<Done>, std::nullptr_t>) {
    if (!is_posted(on_done)) {
      if (!tail_call) {
        sim_.schedule_at(done, sim::EventFn(std::forward<Done>(on_done)));
      } else if (queue_.empty() && sim_.try_advance_to(done)) {
        on_done();  // alone on the channel, with nothing due before it
        return true;
      } else {
        sim_.schedule_run_ahead(done, sim::EventFn(std::forward<Done>(on_done)));
      }
      return false;
    }
  }
  sim_.post(done);  // a posted write: nothing runs at its completion
  return false;
}

}  // namespace vmsls::mem
