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
// A translation that cannot complete inline (timed TLB hit, walk, fault)
// parks its completion in a pooled Pending record; every closure the MMU
// hands the scheduler, the walker or the fault sink captures only `this`
// and that record.
#pragma once

#include <string>

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
  void translate(VirtAddr va, bool is_write, sim::Callback<PhysAddr> done);

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
  Pending* park(VirtAddr va, bool is_write, sim::Callback<PhysAddr> done);
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

}  // namespace vmsls::mem
