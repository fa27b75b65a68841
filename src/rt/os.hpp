// OS model: delegate threads, syscall costs, and page-fault service.
//
// A hardware thread cannot call into the kernel; the runtime gives each one
// a *delegate* software thread (the ReconOS protocol). Every OS operation a
// hardware thread performs therefore pays: an interrupt to the host CPU,
// the delegate's syscall service time, and a response write back to the
// fabric. Page faults take the same path plus the VM subsystem's
// fault-service and page-mapping costs. OS work serializes on a bounded
// number of service cores, so fault storms and syscall-heavy kernels
// contend realistically.
#pragma once

#include <string>
#include <vector>

#include "hwt/ports.hpp"
#include "mem/address_space.hpp"
#include "mem/mmu.hpp"
#include "rt/sync.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::paging {
class Pager;
}

namespace vmsls::rt {

class Process;

struct OsConfig {
  Cycles irq_latency = 360;         // fault/doorbell raise -> delegate running
  Cycles syscall_service = 240;     // delegate servicing one mailbox/sem call
  Cycles response_latency = 80;     // result written back to the fabric
  Cycles fault_service = 1400;      // kernel VM path for one page fault
  Cycles map_page_cost = 500;       // allocate + install one PTE
  unsigned copy_bytes_per_cycle = 8;  // page-content fill bandwidth
  unsigned service_cores = 1;       // host cores available to the runtime
  Cycles sw_syscall = 60;           // a software thread's direct syscall cost
  Cycles daemon_service = 300;      // one background pageout-daemon tick on a core
};

/// Host-CPU service resource: OS paths run to completion on one of
/// `service_cores` cores; requests queue when all are busy.
class OsModel {
 public:
  OsModel(sim::Simulator& sim, const OsConfig& cfg, std::string name);

  OsModel(const OsModel&) = delete;
  OsModel& operator=(const OsModel&) = delete;

  const OsConfig& config() const noexcept { return cfg_; }

  /// Runs `work` after acquiring a core and spending `pre_cost` cycles on
  /// it; the core frees at that point (callbacks that then block, e.g. on a
  /// mailbox, sleep off-core).
  void exec_service(Cycles pre_cost, sim::Callback<> work);

  u64 services() const noexcept { return services_.value(); }

 private:
  sim::Simulator& sim_;
  OsConfig cfg_;
  std::string name_;
  std::vector<Cycles> core_free_;
  Counter& services_;
  Counter& busy_cycles_;
  Histogram& queue_wait_;
};

/// Services hardware-thread page faults: maps the page (with content from
/// the process backing store) and retries the access. With a pager
/// attached, the fault path additionally enforces the frame budget —
/// evicting victims and paying swap-device time — before the page maps.
class FaultHandler final : public mem::FaultSink {
 public:
  FaultHandler(sim::Simulator& sim, OsModel& os, Process& process, std::string name);

  /// The pager must outlive the handler; nullptr detaches (pressure-free
  /// fault servicing, the pre-pager model).
  void set_pager(paging::Pager* pager) noexcept { pager_ = pager; }

  void raise(mem::FaultRequest req) override;

  u64 faults_serviced() const noexcept { return faults_.value(); }

 private:
  /// A fault from raise() to retry; every closure on the way captures
  /// only `this` and this pooled record.
  struct InService {
    mem::FaultRequest req;
    Cycles raised_at = 0;
    u64 trace_id = 0;  // the "service" span raise() opened
    Cycles post = 0;   // map + copy + response tail
  };

  /// Shared fault completion: maps the page if still unmapped, records the
  /// service latency, closes the "service" span and retries the faulting
  /// access. Callers charge the time first.
  void finish_fault(InService* f);

  sim::Simulator& sim_;
  OsModel& os_;
  Process& process_;
  std::string name_;
  sim::TraceTrack trace_track_ = 0;
  paging::Pager* pager_ = nullptr;
  Pool<InService> in_service_;
  Counter& faults_;
  Histogram& latency_;
};

/// Maps a thread's kernel-local mailbox/semaphore indices to process-wide
/// object indices. Empty map = identity (index i -> process object i).
struct OsBindings {
  std::vector<unsigned> mailboxes;
  std::vector<unsigned> semaphores;

  unsigned map_mailbox(unsigned local) const {
    if (mailboxes.empty()) return local;
    require(local < mailboxes.size(), "unbound kernel mailbox index");
    return mailboxes[local];
  }
  unsigned map_semaphore(unsigned local) const {
    if (semaphores.empty()) return local;
    require(local < semaphores.size(), "unbound kernel semaphore index");
    return semaphores[local];
  }
};

/// OS port for hardware threads: every operation goes through the delegate
/// protocol (interrupt + syscall + response).
class DelegateOsPort final : public hwt::OsPort {
 public:
  DelegateOsPort(sim::Simulator& sim, OsModel& os, Process& process, std::string name);

  void set_bindings(OsBindings bindings) { bindings_ = std::move(bindings); }

  void mbox_get(unsigned mbox, sim::Callback<i64> done) override;
  void mbox_put(unsigned mbox, i64 value, sim::Callback<> done) override;
  void sem_wait(unsigned sem, sim::Callback<> done) override;
  void sem_post(unsigned sem, sim::Callback<> done) override;

 private:
  sim::Simulator& sim_;
  OsModel& os_;
  Process& process_;
  std::string name_;
  OsBindings bindings_;
  Counter& calls_;
};

/// OS port for software threads: direct syscall cost, no delegate hop.
class DirectOsPort final : public hwt::OsPort {
 public:
  DirectOsPort(sim::Simulator& sim, const OsConfig& cfg, Process& process, std::string name);

  void set_bindings(OsBindings bindings) { bindings_ = std::move(bindings); }

  void mbox_get(unsigned mbox, sim::Callback<i64> done) override;
  void mbox_put(unsigned mbox, i64 value, sim::Callback<> done) override;
  void sem_wait(unsigned sem, sim::Callback<> done) override;
  void sem_post(unsigned sem, sim::Callback<> done) override;

 private:
  sim::Simulator& sim_;
  OsConfig cfg_;
  Process& process_;
  std::string name_;
  OsBindings bindings_;
};

}  // namespace vmsls::rt
