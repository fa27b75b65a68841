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

void MemoryBus::request(BusRequest req) {
  require(req.bytes > 0, "bus request must move at least one byte");
  require(req.is_write || static_cast<bool>(req.on_done),
          "bus read needs a completion callback (only a write may be posted)");
  requests_.add();
  (req.is_write ? write_requests_ : read_requests_).add();
  bytes_.add(req.bytes);
  const Cycles now = sim_.now();
  if (!pump_scheduled_ && queue_.empty() && channel_free_ <= now) {
    grant(req, now);  // idle channel: the queue would hand it straight back
    return;
  }
  queue_.push_back(Pending{std::move(req), now});
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
  Pending p = queue_.pop_front();
  grant(p.req, p.enqueued);
}

void MemoryBus::grant(BusRequest& req, Cycles enqueued) {
  const Cycles now = sim_.now();
  wait_hist_.record(now - enqueued);

  const Cycles beats = ceil_div(req.bytes, cfg_.width_bytes);
  const Cycles occupancy = cfg_.header_cycles + beats;
  channel_free_ = now + occupancy;
  busy_cycles_ += occupancy;

  // The DRAM access begins after the command phase; the response is ready
  // when both the device access and the data beats finish.
  const Cycles dram_done =
      dram_.access(req.addr, req.bytes, req.is_write, now + cfg_.header_cycles);
  const Cycles done = std::max(dram_done, channel_free_);
  if (!req.on_done) {
    sim_.post(done);  // a posted write: nothing runs at its completion
  } else if (!req.tail_call) {
    sim_.schedule_at(done, std::move(req.on_done));
  } else if (queue_.empty() && sim_.try_advance_to(done)) {
    // Alone on the channel, with nothing due before its completion: run it
    // in place. The queue is empty, so nothing is left to pump.
    req.on_done();
    return;
  } else {
    sim_.schedule_run_ahead(done, std::move(req.on_done));
  }

  pump();  // issue or schedule the next transaction
}

}  // namespace vmsls::mem
