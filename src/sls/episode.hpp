// The episode driver: the one loop that walks lists of page touches through
// a process's pager fault path. Each touch is classified at issue time, by
// the same leaf-PTE read that performs it when it hits
// (AddressSpace::access_resident_u64):
//   resident, read or written while writable -> the load or store(value);
//   absent -> the unmapped path (a read fault), map_in if still unmapped,
//             then the store if it is a write;
//   resident read-only, written -> the COW path, then the store.
// Every read touch checks what it read: each worker keeps, per page, the
// last value one of its write touches stored and where (a forked worker
// starts with its parent's), and a read of that address, on a hit or once
// its fault completes, must find that value or the touch throws naming the
// worker, the va, the value expected and the value read. Only one address
// per page is remembered (every caller touches page-aligned words), and no
// other writer may store to a touched word.
// The per-worker read_faults / cow_faults counts are what
// paging::LedgerExpect needs. A touch cost above 0 runs each touch that
// long after the previous one (TrafficDriver's touch_cost); at cost 0
// resident touches run inline (fig14, micro_paging).
// Run-ahead: the next touch is a run-ahead site (sim/simulator.hpp). next()
// runs it in place when Simulator::try_advance_to grants the step, else
// queues it with schedule_run_ahead, so touches between faults, and the
// touch after a lone swap-in, skip the event queue. Two calls are not tail
// calls, and the driver gives up the token before each:
// Pager::handle_fault, which may run its continuation before it returns,
// and the episode's `done`, the caller's code.
#pragma once

#include <optional>
#include <vector>

#include "mem/paging/pager.hpp"
#include "rt/process.hpp"
#include "util/index_table.hpp"

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

  /// Binds a worker; returns its index. A worker whose process was forked
  /// from worker `parent`'s starts out expecting the values the parent's
  /// touches stored. Bind all before filling touch lists.
  std::size_t add_worker(mem::AddressSpace& as, rt::Process& process, paging::Pager& pager,
                         std::optional<std::size_t> parent = std::nullopt);

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
  /// The last value a write touch stored in a page, and its address; va 0
  /// (the null page, never touched) means none.
  struct Stored {
    VirtAddr va = 0;
    u64 value = 0;
  };

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
    IndexTable<Stored> stored{};  // by vpn
  };

  void run(std::size_t w);    // touch `pos` now, then next() unless it faulted
  void next(std::size_t w);   // the next touch after the cost (inline at 0), or done
  bool touch(std::size_t w);  // false: suspended on a fault; its callback calls next()
  void record(Worker& wk, VirtAddr va, u64 value);  // a write touch landed
  void check(std::size_t w, VirtAddr va, u64 read) const;  // a read touch's value

  sim::Simulator& sim_;
  Cycles touch_cost_;
  std::vector<Worker> workers_;
};

}  // namespace vmsls::sls
