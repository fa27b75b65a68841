// The episode driver: the one loop that walks lists of page touches through
// a process's pager fault path. Each touch is classified at issue time, by
// the same leaf-PTE read that performs it when it hits
// (AddressSpace::access_resident_u64):
//   resident, read or written while writable -> the load or store(value);
//   absent -> the unmapped path (a read fault), map_in if still unmapped,
//             then the store if it is a write;
//   resident read-only, written -> the COW path, then the store.
// The per-worker read_faults / cow_faults counts are what
// paging::LedgerExpect needs. A touch cost above 0 runs each touch that
// long after the previous one (TrafficDriver's touch_cost); at cost 0
// resident touches run inline (fig14, micro_paging).
#pragma once

#include <vector>

#include "mem/paging/pager.hpp"
#include "rt/process.hpp"

namespace vmsls::sls {

class EpisodeDriver {
 public:
  /// One access; a write stores `value`.
  struct Touch {
    VirtAddr va = 0;
    bool is_write = false;
    u64 value = 0;
  };

  explicit EpisodeDriver(sim::Simulator& sim, Cycles touch_cost = 0)
      : sim_(sim), touch_cost_(touch_cost) {}
  EpisodeDriver(const EpisodeDriver&) = delete;
  EpisodeDriver& operator=(const EpisodeDriver&) = delete;

  /// Binds a worker; returns its index. Bind all before filling touch lists.
  std::size_t add_worker(mem::AddressSpace& as, rt::Process& process, paging::Pager& pager) {
    workers_.push_back({&as, &process, &pager});
    return workers_.size() - 1;
  }

  /// The worker's touch list, reused across episodes; fixed while one runs.
  std::vector<Touch>& touches(std::size_t w) { return workers_.at(w).touches; }

  /// Runs worker `w`'s touches, the first `delay + touch_cost` from now.
  /// `done` fires after the last one, with the worker already idle, so it
  /// may start the worker again. Throws if the worker is busy.
  void start(std::size_t w, Cycles delay, sim::Callback<> done = {});

  bool busy(std::size_t w) const { return workers_.at(w).busy; }
  u64 read_faults(std::size_t w) const { return workers_.at(w).read_faults; }
  u64 cow_faults(std::size_t w) const { return workers_.at(w).cow_faults; }

 private:
  struct Worker {
    mem::AddressSpace* as;
    rt::Process* process;
    paging::Pager* pager;
    std::vector<Touch> touches{};
    std::size_t pos = 0;  // next touch to issue
    bool busy = false;
    sim::Callback<> done{};
    u64 read_faults = 0;
    u64 cow_faults = 0;
  };

  void run(std::size_t w);    // touch `pos` now, then next() unless it faulted
  void next(std::size_t w);   // the next touch after the cost (inline at 0), or done
  bool touch(std::size_t w);  // false: suspended on a fault; its callback calls next()

  sim::Simulator& sim_;
  Cycles touch_cost_;
  std::vector<Worker> workers_;
};

}  // namespace vmsls::sls
