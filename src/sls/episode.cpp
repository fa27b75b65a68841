#include "sls/episode.hpp"

#include <sstream>
#include <stdexcept>

namespace vmsls::sls {

std::size_t EpisodeDriver::add_worker(mem::AddressSpace& as, rt::Process& process,
                                      paging::Pager& pager, std::optional<std::size_t> parent) {
  Worker wk{&as, &process, &pager};
  if (parent) wk.stored = workers_.at(*parent).stored;
  workers_.push_back(std::move(wk));
  return workers_.size() - 1;
}

void EpisodeDriver::start(std::size_t w, Cycles delay, sim::Callback<> done) {
  Worker& wk = workers_.at(w);
  if (wk.busy) throw std::logic_error("EpisodeDriver: start on a busy worker");
  wk.busy = true;
  wk.pos = 0;
  wk.done = std::move(done);
  sim_.schedule_run_ahead(sim_.now() + delay + touch_cost_, [this, w] { run(w); });
}

void EpisodeDriver::run(std::size_t w) {
  Worker& wk = workers_[w];
  if (wk.pos == wk.touches.size() || touch(w)) next(w);
}

void EpisodeDriver::next(std::size_t w) {
  Worker& wk = workers_[w];
  while (wk.pos < wk.touches.size()) {
    if (touch_cost_ > 0) {
      const Cycles at = sim_.now() + touch_cost_;
      if (!sim_.try_advance_to(at)) {
        sim_.schedule_run_ahead(at, [this, w] { run(w); });
        return;
      }
    }
    if (!touch(w)) return;
  }
  wk.busy = false;
  sim::Callback<> done = std::move(wk.done);
  sim_.forgo_run_ahead();  // `done` is the caller's code, not a tail call
  if (done) done();
}

bool EpisodeDriver::touch(std::size_t w) {
  Worker& wk = workers_[w];
  const Touch t = wk.touches[wk.pos++];
  u64 value = t.value;
  const auto found = wk.as->access_resident_u64(t.va, t.is_write, value);
  if (found == mem::AddressSpace::Access::kHit) {
    if (t.is_write)
      record(wk, t.va, t.value);
    else
      check(w, t.va, value);
    return true;
  }
  // The pager may run its continuation before it returns and is not a
  // tail call: no touch runs ahead inside it.
  sim_.forgo_run_ahead();
  if (found == mem::AddressSpace::Access::kUnmapped) {
    // Never mapped, or evicted underneath the worker: not a COW fault.
    ++wk.read_faults;
    wk.pager->handle_fault(t.va, t.is_write, [this, w, t] {
      Worker& k = workers_[w];
      if (!k.as->is_mapped(t.va)) k.process->map_in(t.va);
      if (t.is_write) {
        k.as->write_u64(t.va, t.value);
        record(k, t.va, t.value);
      } else {
        // peek: the check must not set the accessed bit the fault left clear.
        check(w, t.va, k.as->peek_u64(t.va));
      }
      next(w);
    });
  } else {
    ++wk.cow_faults;
    wk.pager->handle_fault(t.va, /*is_write=*/true, [this, w, t] {
      Worker& k = workers_[w];
      k.as->write_u64(t.va, t.value);
      record(k, t.va, t.value);
      next(w);
    });
  }
  return false;
}

void EpisodeDriver::record(Worker& wk, VirtAddr va, u64 value) {
  wk.stored.at(va / wk.as->page_bytes()) = {va, value};
}

void EpisodeDriver::check(std::size_t w, VirtAddr va, u64 read) const {
  const Worker& wk = workers_[w];
  const Stored& s = wk.stored.get(va / wk.as->page_bytes());
  if (s.va != va || s.value == read) [[likely]]
    return;
  std::ostringstream msg;
  msg << "EpisodeDriver: worker " << w << " (" << wk.process->name() << ") read 0x" << std::hex
      << read << " at va 0x" << va << ", expected 0x" << s.value
      << " (the value it last stored there)";
  throw std::runtime_error(msg.str());
}

}  // namespace vmsls::sls
