#include "mem/mmu.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace vmsls::mem {

Mmu::Mmu(sim::Simulator& sim, PageWalker& walker, const MmuConfig& cfg, std::string name,
         unsigned thread_id)
    : sim_(sim),
      walker_(walker),
      cfg_(cfg),
      name_(std::move(name)),
      thread_id_(thread_id),
      tlb_(cfg.tlb, sim.stats(), name_ + ".tlb"),
      translations_(sim.stats().counter(name_ + ".translations")),
      fault_raises_(sim.stats().counter(name_ + ".faults")),
      prefetches_(sim.stats().counter(name_ + ".prefetches")),
      prefetch_fills_(sim.stats().counter(name_ + ".prefetch_fills")),
      inline_completions_(sim.stats().counter(name_ + ".inline_completions")) {}

void Mmu::maybe_prefetch(u64 missed_vpn) {
  if (!cfg_.prefetch_next_page) return;
  const u64 next_vpn = missed_vpn + 1;
  if (next_vpn == prefetch_inflight_vpn_ || tlb_.peek(next_vpn).has_value()) return;
  prefetch_inflight_vpn_ = next_vpn;
  prefetches_.add();
  const VirtAddr next_va = next_vpn << walker_.page_bits();
  walker_.walk(next_va, [this, next_vpn](const WalkResult& r) {
    if (prefetch_inflight_vpn_ == next_vpn) prefetch_inflight_vpn_ = ~0ull;
    if (r.fault) return;  // prefetches never raise faults
    tlb_.insert(next_vpn, r.frame, r.writable);
    prefetch_fills_.add();
  });
}

Mmu::Pending* Mmu::park(VirtAddr va, bool is_write, sim::Callback<PhysAddr>&& done) {
  Pending* p = pending_.acquire();
  p->va = va;
  p->is_write = is_write;
  p->done = std::move(done);
  return p;
}

void Mmu::complete(Pending* p, PhysAddr pa) {
  auto done = std::move(p->done);
  pending_.release(p);  // recycle before the continuation translates again
  done(pa);
}

void Mmu::retry(Pending* p) {
  const VirtAddr va = p->va;
  const bool is_write = p->is_write;
  auto done = std::move(p->done);
  pending_.release(p);
  translate(va, is_write, std::move(done));
}

void Mmu::park_hit(VirtAddr va, bool is_write, PhysAddr pa, Cycles at,
                   sim::Callback<PhysAddr>&& done) {
  Pending* p = park(va, is_write, std::move(done));
  p->pa = pa;
  sim_.schedule_run_ahead(at, [this, p] { complete(p, p->pa); });
}

void Mmu::start_walk(VirtAddr va, bool is_write, sim::Callback<PhysAddr>&& done) {
  // The demand walk is a tail call unless a prefetch walk must queue
  // behind it at this cycle.
  Pending* p = park(va, is_write, std::move(done));
  walker_.walk(va, [this, p](const WalkResult& r) { on_walk_done(p, r); },
               /*tail_call=*/!cfg_.prefetch_next_page);
  maybe_prefetch(va >> walker_.page_bits());
}

void Mmu::on_walk_done(Pending* p, const WalkResult& r) {
  const VirtAddr va = p->va;
  const bool is_write = p->is_write;
  const unsigned page_bits = walker_.page_bits();
  const bool permission_fault = !r.fault && is_write && !r.writable;
  if (r.fault || permission_fault) {
    fault_raises_.add();
    if (sink_ == nullptr) {
      p->done = nullptr;
      pending_.release(p);
      std::ostringstream msg;
      msg << name_ << ": unhandled " << (permission_fault ? "permission" : "page")
          << " fault at va=0x" << std::hex << va;
      throw std::runtime_error(msg.str());
    }
    FaultRequest req;
    req.thread_id = thread_id_;
    req.va = va;
    req.is_write = is_write;
    req.retry = [this, p] { retry(p); };
    sim_.forgo_run_ahead();  // the OS is not a tail call
    sink_->raise(std::move(req));
    return;
  }
  if (is_write) walker_.note_ad_update(va, /*dirty=*/true);
  tlb_.insert(va >> page_bits, r.frame, r.writable);
  complete(p, (r.frame << page_bits) | (va & ((1ull << page_bits) - 1)));
}

void Mmu::shootdown(VirtAddr va) { tlb_.invalidate(va >> walker_.page_bits()); }

void Mmu::shootdown_all() { tlb_.flush(); }

}  // namespace vmsls::mem
