#include "rt/os.hpp"

#include <algorithm>
#include <utility>

#include "mem/paging/pager.hpp"
#include "rt/process.hpp"
#include "util/log.hpp"

namespace vmsls::rt {

OsModel::OsModel(sim::Simulator& sim, const OsConfig& cfg, std::string name)
    : sim_(sim),
      cfg_(cfg),
      name_(std::move(name)),
      core_free_(cfg.service_cores, 0),
      services_(sim.stats().counter(name_ + ".services")),
      busy_cycles_(sim.stats().counter(name_ + ".busy_cycles")),
      queue_wait_(sim.stats().histogram(name_ + ".queue_wait")) {
  require(cfg.service_cores > 0, name_ + ": OsConfig::service_cores must be nonzero");
}

void OsModel::exec_service(Cycles pre_cost, sim::Callback<> work) {
  services_.add();
  busy_cycles_.add(pre_cost);
  // Earliest-available-core policy (deterministic).
  auto it = std::min_element(core_free_.begin(), core_free_.end());
  const Cycles start = std::max(sim_.now(), *it);
  queue_wait_.record(start - sim_.now());
  *it = start + pre_cost;
  sim_.schedule_at(start + pre_cost, std::move(work));
}

FaultHandler::FaultHandler(sim::Simulator& sim, OsModel& os, Process& process, std::string name)
    : sim_(sim),
      os_(os),
      process_(process),
      name_(std::move(name)),
      faults_(sim.stats().counter(name_ + ".faults")),
      latency_(sim.stats().histogram(name_ + ".latency")) {
  require(os.config().copy_bytes_per_cycle > 0,
          name_ + ": OsConfig::copy_bytes_per_cycle must be nonzero");
  trace_track_ = sim_.trace().track(name_);
}

void FaultHandler::finish_fault(InService* f) {
  mem::FaultRequest& req = f->req;
  auto& space = process_.address_space();
  // Another thread may have faulted the same page in meanwhile.
  if (!space.is_mapped(req.va)) {
    space.map_page(req.va, /*writable=*/true);
  } else if (req.is_write) {
    // A write fault against a *mapped* page is a permission fault (COW /
    // write-upgrade). The pager path resolves it inside handle_fault; this
    // fallback keeps pager-less systems from retrying the same fault
    // forever — cow_break is a no-op when the page is already writable.
    process_.cow_break(req.va);
  }
  latency_.record(sim_.now() - f->raised_at);
  VMSLS_TRACE_END(sim_.trace(), trace_track_, "service", f->trace_id, req.va);
  auto retry = std::move(req.retry);
  in_service_.release(f);
  retry();
}

void FaultHandler::raise(mem::FaultRequest req) {
  faults_.add();
  log_debug(name_, "page fault: thread ", req.thread_id, " va=0x", std::hex, req.va,
            req.is_write ? " (write)" : " (read)");
  InService* f = in_service_.acquire();
  f->raised_at = sim_.now();
  // "service" spans the whole kernel trip — raise to retry — while the
  // pager's "fault" span inside it covers only the VM work after the irq +
  // fault-service cost lands the fault on a core.
  f->trace_id = VMSLS_TRACE_NEW_ID(sim_.trace());
  VMSLS_TRACE_BEGIN(sim_.trace(), trace_track_, "service", f->trace_id, req.va);
  f->req = std::move(req);
  const auto& cfg = os_.config();
  const Cycles copy_cost = process_.address_space().page_bytes() / cfg.copy_bytes_per_cycle;
  f->post = cfg.map_page_cost + copy_cost + cfg.response_latency;
  if (pager_ == nullptr) {
    // Pressure-free path: the whole kernel VM trip runs on a service core.
    os_.exec_service(cfg.irq_latency + cfg.fault_service + f->post,
                     [this, f] { finish_fault(f); });
    return;
  }
  // Pager path: irq + fault service occupy a core; eviction writebacks and
  // the swap-in wait happen off-core on the swap device's port; then the
  // map/copy/response tail re-acquires a core once the frame is secured.
  os_.exec_service(cfg.irq_latency + cfg.fault_service, [this, f] {
    pager_->handle_fault(f->req.va, f->req.is_write, [this, f] {
      sim_.forgo_run_ahead();  // the OS is not a tail call
      os_.exec_service(f->post, [this, f] { finish_fault(f); });
    });
  });
}

DelegateOsPort::DelegateOsPort(sim::Simulator& sim, OsModel& os, Process& process,
                               std::string name)
    : sim_(sim),
      os_(os),
      process_(process),
      name_(std::move(name)),
      calls_(sim.stats().counter(name_ + ".delegate_calls")) {}

void DelegateOsPort::mbox_get(unsigned mbox, sim::Callback<i64> done) {
  calls_.add();
  const unsigned idx = bindings_.map_mailbox(mbox);
  const auto& cfg = os_.config();
  os_.exec_service(cfg.irq_latency + cfg.syscall_service,
                   [this, mbox = idx, done = std::move(done)]() mutable {
    process_.mailbox(mbox).get([this, done = std::move(done)](i64 v) mutable {
      sim_.schedule_in(os_.config().response_latency,
                       [done = std::move(done), v]() mutable { done(v); });
    });
  });
}

void DelegateOsPort::mbox_put(unsigned mbox, i64 value, sim::Callback<> done) {
  calls_.add();
  const unsigned idx = bindings_.map_mailbox(mbox);
  const auto& cfg = os_.config();
  os_.exec_service(cfg.irq_latency + cfg.syscall_service,
                   [this, mbox = idx, value, done = std::move(done)]() mutable {
    process_.mailbox(mbox).put(value, [this, done = std::move(done)]() mutable {
      sim_.schedule_in(os_.config().response_latency, std::move(done));
    });
  });
}

void DelegateOsPort::sem_wait(unsigned sem, sim::Callback<> done) {
  calls_.add();
  const unsigned idx = bindings_.map_semaphore(sem);
  const auto& cfg = os_.config();
  os_.exec_service(cfg.irq_latency + cfg.syscall_service,
                   [this, sem = idx, done = std::move(done)]() mutable {
    process_.semaphore(sem).wait([this, done = std::move(done)]() mutable {
      sim_.schedule_in(os_.config().response_latency, std::move(done));
    });
  });
}

void DelegateOsPort::sem_post(unsigned sem, sim::Callback<> done) {
  calls_.add();
  const unsigned idx = bindings_.map_semaphore(sem);
  const auto& cfg = os_.config();
  os_.exec_service(cfg.irq_latency + cfg.syscall_service,
                   [this, sem = idx, done = std::move(done)]() mutable {
    process_.semaphore(sem).post();
    sim_.schedule_in(os_.config().response_latency, std::move(done));
  });
}

DirectOsPort::DirectOsPort(sim::Simulator& sim, const OsConfig& cfg, Process& process,
                           std::string name)
    : sim_(sim), cfg_(cfg), process_(process), name_(std::move(name)) {}

void DirectOsPort::mbox_get(unsigned mbox, sim::Callback<i64> done) {
  const unsigned idx = bindings_.map_mailbox(mbox);
  sim_.schedule_in(cfg_.sw_syscall, [this, mbox = idx, done = std::move(done)]() mutable {
    process_.mailbox(mbox).get(std::move(done));
  });
}

void DirectOsPort::mbox_put(unsigned mbox, i64 value, sim::Callback<> done) {
  const unsigned idx = bindings_.map_mailbox(mbox);
  sim_.schedule_in(cfg_.sw_syscall, [this, mbox = idx, value, done = std::move(done)]() mutable {
    process_.mailbox(mbox).put(value, std::move(done));
  });
}

void DirectOsPort::sem_wait(unsigned sem, sim::Callback<> done) {
  const unsigned idx = bindings_.map_semaphore(sem);
  sim_.schedule_in(cfg_.sw_syscall, [this, sem = idx, done = std::move(done)]() mutable {
    process_.semaphore(sem).wait(std::move(done));
  });
}

void DirectOsPort::sem_post(unsigned sem, sim::Callback<> done) {
  const unsigned idx = bindings_.map_semaphore(sem);
  sim_.schedule_in(cfg_.sw_syscall, [this, sem = idx, done = std::move(done)]() mutable {
    process_.semaphore(sem).post();
    done();
  });
}

}  // namespace vmsls::rt
