// Per-hardware-thread MMU front end: TLB + shared walker + fault plumbing.
//
// This is the component the toolflow instantiates between a hardware
// thread's memory port and the system bus. Translation flow:
//
//   TLB hit                 -> +hit_latency cycles
//   TLB miss                -> queue on the shared PageWalker
//   walk fault / permission -> raise to the FaultSink (the runtime's
//                              delegate thread); when the OS has mapped the
//                              page it calls retry() and the translation
//                              restarts transparently.
//
// With `translation_enabled = false` the MMU degenerates to a physical
// pass-through, which is how the copy-based DMA baseline's kernels run.
//
// translate() is a template over its completion: a pass-through, an inline
// TLB hit or a run-ahead hit calls it directly, and it is type-erased only
// when the translation has to wait. Such a translation (timed TLB hit that
// cannot run ahead, walk, fault) parks it as a sim::Callback<PhysAddr> in a
// pooled Pending record; every closure the MMU hands the scheduler, the
// walker or the fault sink captures only `this` and that record.
#pragma once

#include <string>
#include <utility>

#include "mem/tlb.hpp"
#include "mem/walker.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace vmsls::mem {

/// A fault forwarded to the OS model. `retry` restarts the faulting
/// translation after service; it must be invoked exactly once.
struct FaultRequest {
  unsigned thread_id = 0;
  VirtAddr va = 0;
  bool is_write = false;
  sim::Callback<> retry;
};

class FaultSink {
 public:
  virtual ~FaultSink() = default;
  virtual void raise(FaultRequest req) = 0;
};

struct MmuConfig {
  TlbConfig tlb;
  bool translation_enabled = true;

  /// Maintain PTE accessed/dirty bits on TLB hits (functional update the
  /// replacement policies consume). Defaults on; systems without a pager
  /// disable it to keep the hit path free of page-table work.
  bool ad_tracking = true;

  /// Next-page prefetch: a demand miss on page N also queues a walk for
  /// page N+1 and fills the TLB in the background (faults are dropped
  /// silently). Hides compulsory misses of sequential streams at the cost
  /// of walker occupancy; ablation A3.
  bool prefetch_next_page = false;
};

class Mmu {
 public:
  Mmu(sim::Simulator& sim, PageWalker& walker, const MmuConfig& cfg, std::string name,
      unsigned thread_id);

  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  /// The sink must outlive the MMU; without one, faults are fatal (tests
  /// exercise pinned-only systems that must never fault).
  void set_fault_sink(FaultSink* sink) noexcept { sink_ = sink; }

  /// Translates `va`; `done(pa)` fires once a valid translation exists,
  /// after any walk and fault service completes.
  ///
  /// Fast path: when the translation adds zero modeled latency — physical
  /// pass-through, or a TLB hit with hit_latency == 0 — `done` is invoked
  /// synchronously, inside this call, without touching the scheduler
  /// (counted in `<name>.inline_completions`). A timed TLB hit also runs
  /// `done` inside this call when the simulator grants the run-ahead step
  /// to its completion cycle (sim::Simulator::try_advance_to), and so does
  /// a miss whose walk runs ahead; neither is an inline completion. Callers
  /// must therefore not assume `done` runs after the current event
  /// returns, and `done` must end in tail calls.
  ///
  /// `done` is any callable taking a PhysAddr. The paths above call it
  /// directly; it becomes a sim::Callback<PhysAddr> only when the
  /// translation parks (a timed hit that cannot run ahead, or a miss).
  template <class Done>
  void translate(VirtAddr va, bool is_write, Done&& done);

  /// Translations completed synchronously (no scheduler round-trip).
  u64 inline_completions() const noexcept { return inline_completions_.value(); }

  Tlb& tlb() noexcept { return tlb_; }
  const Tlb& tlb() const noexcept { return tlb_; }
  bool translation_enabled() const noexcept { return cfg_.translation_enabled; }
  unsigned thread_id() const noexcept { return thread_id_; }
  unsigned page_bits() const noexcept { return walker_.page_bits(); }

  /// TLB shootdown entry points, driven by the OS model on unmap/protect.
  void shootdown(VirtAddr va);
  void shootdown_all();

 private:
  /// A translation waiting on the scheduler, the walker or fault service.
  struct Pending {
    VirtAddr va = 0;
    bool is_write = false;
    PhysAddr pa = 0;  // result of a timed TLB hit
    sim::Callback<PhysAddr> done;
  };
  Pending* park(VirtAddr va, bool is_write, sim::Callback<PhysAddr>&& done);
  /// A timed TLB hit whose completion at `at` cannot run ahead.
  void park_hit(VirtAddr va, bool is_write, PhysAddr pa, Cycles at,
                sim::Callback<PhysAddr>&& done);
  /// A TLB miss (or a write that lost its read-only entry): walk `va`.
  void start_walk(VirtAddr va, bool is_write, sim::Callback<PhysAddr>&& done);
  void complete(Pending* p, PhysAddr pa);
  void retry(Pending* p);
  void on_walk_done(Pending* p, const WalkResult& r);
  void maybe_prefetch(u64 missed_vpn);

  sim::Simulator& sim_;
  PageWalker& walker_;
  MmuConfig cfg_;
  std::string name_;
  unsigned thread_id_;
  Tlb tlb_;
  FaultSink* sink_ = nullptr;
  u64 prefetch_inflight_vpn_ = ~0ull;
  Pool<Pending> pending_;

  Counter& translations_;
  Counter& fault_raises_;
  Counter& prefetches_;
  Counter& prefetch_fills_;
  Counter& inline_completions_;
};

template <class Done>
void Mmu::translate(VirtAddr va, bool is_write, Done&& done) {
  if (!cfg_.translation_enabled) {
    // Physical pass-through: the "MMU-less" accelerator of the DMA baseline.
    // Zero modeled latency, so complete inline — no scheduler traffic at
    // all on this path (inline_completions counts it; tests assert
    // events_scheduled() stays flat here).
    inline_completions_.add();
    done(va);
    return;
  }
  translations_.add();
  const unsigned page_bits = walker_.page_bits();
  const u64 vpn = va >> page_bits;

  if (auto entry = tlb_.lookup(vpn)) {
    if (is_write && !entry->writable) {
      // Permission fault: stale or read-only mapping. Drop the entry and
      // take the long path so the OS can upgrade the mapping.
      tlb_.invalidate(vpn);
    } else {
      // Keep the PTE's accessed/dirty bits fresh on TLB hits too, or the
      // pager's CLOCK hand would evict pages that are hot in the TLB. The
      // walker funnel charges the PTE write-back when a bit flips.
      if (cfg_.ad_tracking) walker_.note_ad_update(va, is_write);
      const PhysAddr pa = (entry->frame << page_bits) | (va & ((1ull << page_bits) - 1));
      const Cycles hit_latency = tlb_.config().hit_latency;
      if (hit_latency == 0) {
        // Combinational TLB: complete inline, same cycle, no event.
        inline_completions_.add();
        done(pa);
      } else if (const Cycles at = sim_.now() + hit_latency; sim_.try_advance_to(at)) {
        // Nothing is due before the hit completes: run the completion
        // event's work in place (a run-ahead step, not an inline one).
        done(pa);
      } else {
        park_hit(va, is_write, pa, at, std::forward<Done>(done));
      }
      return;
    }
  }
  start_walk(va, is_write, std::forward<Done>(done));
}

}  // namespace vmsls::mem
