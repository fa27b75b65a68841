// Copy-based offload driver — the conventional-accelerator baseline.
//
// Implements the flow the paper's virtual-memory hardware threads replace:
//
//   1. allocate a physically contiguous pinned buffer,
//   2. copy user data in (CPU memcpy or scatter-gather DMA over pinned
//      user pages),
//   3. run the kernel with its MMU disabled against physical addresses,
//   4. copy results back out.
//
// The driver accounts each phase separately so the SVM-vs-DMA experiment
// can report the copy/compute breakdown.
//
// Every transfer is one pooled `Transfer` record driven through one loop,
// chunk by chunk: size the chunk, admit it, fault-in step (pin each page of
// the chunk; an unmapped page faults in through the pager, or maps
// directly when there is none), move the chunk's pieces, then unpin and
// advance. Two piece movers differ only in the last step: the CPU mode
// moves `cpu_copy_chunk`-sized pieces (one per chunk) with a bus
// read/write pair, the scatter-gather (SG) mode moves page-bounded pieces
// through `DmaEngine::copy`.
//
// Without a pager an SG transfer is a single chunk admitted at launch, and
// its pin cost rides on the launch service. Under memory pressure (a Pager
// passed at construction) every page is faulted in through the pager (so
// swap-in and victim-writeback time is charged) and pinned for its
// chunk's lifetime, and admission is budget-aware: a run whose pin demand
// meets or exceeds the pin quota is chunked into quota-sized pieces, and
// chunks queue behind earlier pin releases rather than deadlocking the
// fault path. `offload.pin_stalls` / `offload.chunked_runs` count both
// pressure reliefs.
#pragma once

#include <string>

#include "dma/dma_engine.hpp"
#include "mem/address_space.hpp"
#include "mem/frames.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "util/pool.hpp"

namespace vmsls::paging {
class Pager;
}

namespace vmsls::dma {

enum class CopyMode {
  kCpuCopy,  // driver memcpy through the CPU (line-sized bus transactions)
  kSgDma,    // pin user pages, scatter-gather DMA in page-sized bursts
};

const char* copy_mode_name(CopyMode mode) noexcept;

struct OffloadConfig {
  CopyMode mode = CopyMode::kSgDma;
  Cycles pin_page_cost = 280;  // get_user_pages()-style cost per page
  Cycles launch_cost = 500;    // ioctl / descriptor setup per transfer
  u32 cpu_copy_chunk = 32;     // CPU memcpy moves cache lines
};

/// A pinned, physically contiguous device buffer.
struct PinnedBuffer {
  PhysAddr pa = 0;
  u64 bytes = 0;
  u64 first_frame = 0;
  u64 frame_count = 0;
};

class OffloadDriver {
 public:
  /// `pager` (nullable, fixed for the driver's lifetime) attaches the
  /// memory-pressure model: copies fault user pages in through it (charging
  /// swap time) and pin them per chunk, with budget-aware chunked
  /// admission. nullptr is the pressure-free model: pages map on demand.
  /// The pager must outlive the driver.
  OffloadDriver(sim::Simulator& sim, rt::OsModel& os, rt::Process& process, DmaEngine& dma,
                mem::MemoryBus& bus, mem::PhysicalMemory& pm, const OffloadConfig& cfg,
                std::string name, paging::Pager* pager);

  OffloadDriver(const OffloadDriver&) = delete;
  OffloadDriver& operator=(const OffloadDriver&) = delete;

  /// Allocates a pinned contiguous buffer from the process's frame pool
  /// (zero simulated time: done at setup).
  PinnedBuffer alloc_pinned(u64 bytes);
  void free_pinned(const PinnedBuffer& buf);

  /// Copies user [va, va+bytes) into the pinned buffer at offset `off`.
  void copy_in(VirtAddr va, const PinnedBuffer& buf, u64 off, u64 bytes,
               sim::Callback<> done);

  /// Copies pinned data back to user memory.
  void copy_out(const PinnedBuffer& buf, u64 off, VirtAddr va, u64 bytes,
                sim::Callback<> done);

  const OffloadConfig& config() const noexcept { return cfg_; }
  u64 bytes_copied() const noexcept { return bytes_copied_.value(); }
  u64 pin_stalls() const noexcept { return pin_stalls_.value(); }
  u64 chunked_runs() const noexcept { return chunked_runs_.value(); }
  /// Pages the driver holds pinned right now (all in-flight transfers).
  u64 pins_held() const noexcept { return pins_held_; }

 private:
  /// One transfer, processed as a sequence of chunks. A chunk is the unit
  /// of pinning: quota-sized for SG under a pager, the whole transfer for
  /// SG without one, one piece for the CPU mode.
  struct Transfer {
    VirtAddr va = 0;
    PhysAddr pinned = 0;
    u64 bytes = 0;
    bool to_pinned = false;
    u64 pos = 0;          // bytes fully transferred (completed chunks)
    u64 chunk_end = 0;    // byte bound of the chunk in flight
    u64 chunk_pages = 0;  // user pages the chunk pins
    u64 cursor = 0;       // next byte to pin, then next byte to move
    bool counted_chunked = false;
    sim::Callback<> done;
  };

  void launch(VirtAddr va, PhysAddr pinned, u64 bytes, bool to_pinned, sim::Callback<> done);
  /// Sizes x's next chunk from x->pos: one CPU piece, or SG pages up to
  /// `quota` (0 = unlimited).
  void size_chunk(Transfer* x, u64 quota);
  void next_chunk(Transfer* x);
  /// Takes the chunk's pins; the SG mode pays their cost (plus `extra`) in
  /// one OS service first.
  void admit(Transfer* x, Cycles extra);
  void fault_in(Transfer* x);
  void move_next(Transfer* x);
  void finish_chunk(Transfer* x);
  void pump_pin_waiters();

  sim::Simulator& sim_;
  rt::OsModel& os_;
  rt::Process& process_;
  DmaEngine& dma_;
  mem::MemoryBus& bus_;
  mem::PhysicalMemory& pm_;
  OffloadConfig cfg_;
  std::string name_;
  paging::Pager* const pager_;
  Pool<Transfer> transfers_;

  /// Pages currently pinned across all in-flight transfers; admission keeps
  /// this at or below the pager's pin quota so victim selection never runs
  /// out of candidate frames (the deadlock the quota exists to prevent).
  u64 pins_held_ = 0;
  /// Chunks waiting for earlier pin releases, admitted FIFO.
  Fifo<Transfer*> pin_waiters_;

  Counter& copies_;
  Counter& bytes_copied_;
  Counter& pages_pinned_;
  Counter& pin_faults_;
  Counter& pin_stalls_;
  Counter& chunked_runs_;
};

}  // namespace vmsls::dma
