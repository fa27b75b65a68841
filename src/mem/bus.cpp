#include "mem/bus.hpp"

#include <algorithm>
#include <utility>

namespace vmsls::mem {

MemoryBus::MemoryBus(sim::Simulator& sim, DramModel& dram, const BusConfig& cfg, std::string name)
    : sim_(sim),
      dram_(dram),
      cfg_(cfg),
      name_(std::move(name)),
      requests_(sim.stats().counter(name_ + ".requests")),
      read_requests_(sim.stats().counter(name_ + ".reads")),
      write_requests_(sim.stats().counter(name_ + ".writes")),
      bytes_(sim.stats().counter(name_ + ".bytes")),
      wait_hist_(sim.stats().histogram(name_ + ".queue_wait")) {
  require(cfg.width_bytes > 0, "bus width must be nonzero");
}

Cycles MemoryBus::occupy(PhysAddr addr, u32 bytes, bool is_write, Cycles enqueued) {
  const Cycles now = sim_.now();
  wait_hist_.record(now - enqueued);

  const Cycles beats = ceil_div(bytes, cfg_.width_bytes);
  const Cycles occupancy = cfg_.header_cycles + beats;
  channel_free_ = now + occupancy;
  busy_cycles_ += occupancy;

  // The DRAM access begins after the command phase; the response is ready
  // when both the device access and the data beats finish.
  const Cycles dram_done = dram_.access(addr, bytes, is_write, now + cfg_.header_cycles);
  return std::max(dram_done, channel_free_);
}

void MemoryBus::enqueue(BusRequest req) {
  queue_.push_back(std::move(req));
  pump();
}

void MemoryBus::pump() {
  if (pump_scheduled_ || queue_.empty()) return;
  if (channel_free_ > sim_.now()) {
    pump_scheduled_ = true;
    sim_.schedule_at(channel_free_, [this] {
      pump_scheduled_ = false;
      pump();
    });
    return;
  }
  BusRequest req = queue_.pop_front();
  grant(req);
}

void MemoryBus::grant(BusRequest& req) {
  const Cycles done = occupy(req.addr, req.bytes, req.is_write, req.enqueued);
  // Run in place, the queue was empty: nothing is left to pump.
  if (finish(done, std::move(req.on_done), req.tail_call)) return;
  pump();  // issue or schedule the next transaction
}

}  // namespace vmsls::mem
