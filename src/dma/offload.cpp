#include "dma/offload.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/paging/pager.hpp"

namespace vmsls::dma {

const char* copy_mode_name(CopyMode mode) noexcept {
  switch (mode) {
    case CopyMode::kCpuCopy:
      return "cpu_copy";
    case CopyMode::kSgDma:
      return "sg_dma";
  }
  return "?";
}

OffloadDriver::OffloadDriver(sim::Simulator& sim, rt::OsModel& os, rt::Process& process,
                             DmaEngine& dma, mem::MemoryBus& bus, mem::PhysicalMemory& pm,
                             const OffloadConfig& cfg, std::string name)
    : sim_(sim),
      os_(os),
      process_(process),
      dma_(dma),
      bus_(bus),
      pm_(pm),
      cfg_(cfg),
      name_(std::move(name)),
      copies_(sim.stats().counter(name_ + ".copies")),
      bytes_copied_(sim.stats().counter(name_ + ".bytes")),
      pages_pinned_(sim.stats().counter(name_ + ".pages_pinned")),
      pin_faults_(sim.stats().counter(name_ + ".pin_faults")),
      pin_stalls_(sim.stats().counter(name_ + ".pin_stalls")),
      chunked_runs_(sim.stats().counter(name_ + ".chunked_runs")) {}

PinnedBuffer OffloadDriver::alloc_pinned(u64 bytes) {
  require(bytes > 0, "zero-byte pinned buffer");
  auto& frames = process_.address_space().frames();
  const u64 frame_bytes = frames.frame_bytes();
  const u64 count = ceil_div(bytes, frame_bytes);
  PinnedBuffer buf;
  const auto first = frames.alloc_contiguous(count);
  if (!first)
    throw std::runtime_error("OffloadDriver: no contiguous run of " + std::to_string(count) +
                             " frames for a pinned buffer");
  buf.first_frame = *first;
  buf.frame_count = count;
  buf.bytes = bytes;
  buf.pa = frames.frame_addr(buf.first_frame);
  return buf;
}

void OffloadDriver::free_pinned(const PinnedBuffer& buf) {
  process_.address_space().frames().free_contiguous(buf.first_frame, buf.frame_count);
}

void OffloadDriver::copy_in(VirtAddr va, const PinnedBuffer& buf, u64 off, u64 bytes,
                            std::function<void()> done) {
  require(off + bytes <= buf.bytes, "copy_in overruns pinned buffer");
  copies_.add();
  bytes_copied_.add(bytes);
  run_copy(va, buf.pa + off, bytes, /*to_pinned=*/true, std::move(done));
}

void OffloadDriver::copy_out(const PinnedBuffer& buf, u64 off, VirtAddr va, u64 bytes,
                             std::function<void()> done) {
  require(off + bytes <= buf.bytes, "copy_out overruns pinned buffer");
  copies_.add();
  bytes_copied_.add(bytes);
  run_copy(va, buf.pa + off, bytes, /*to_pinned=*/false, std::move(done));
}

void OffloadDriver::run_copy(VirtAddr va, PhysAddr pinned, u64 bytes, bool to_pinned,
                             std::function<void()> done) {
  auto& as = process_.address_space();
  const u64 page = as.page_bytes();
  const u64 pages = ceil_div((va & (page - 1)) + bytes, page);
  pages_pinned_.add(pages);

  if (cfg_.mode == CopyMode::kCpuCopy) {
    // Driver-side memcpy: launch cost, then line-sized bus traffic.
    os_.exec_service(cfg_.launch_cost, [this, va, pinned, bytes, to_pinned,
                                        done = std::move(done)]() mutable {
      cpu_copy(va, pinned, bytes, to_pinned, std::move(done));
    });
    return;
  }

  if (pager_ != nullptr) {
    // Memory-pressure path: the transfer proceeds in pin-quota-sized chunks.
    // Each chunk faults its pages in through the pager (swap time charged),
    // pins them for the chunk's DMA lifetime, and releases them at bus
    // completion; chunks queue behind earlier pin releases when the budget
    // is tight. Launch cost once per transfer; pin cost per chunk.
    os_.exec_service(cfg_.launch_cost, [this, va, pinned, bytes, to_pinned,
                                        done = std::move(done)]() mutable {
      auto x = std::make_shared<SgXfer>();
      x->va = va;
      x->pinned = pinned;
      x->bytes = bytes;
      x->to_pinned = to_pinned;
      x->done = std::move(done);
      sg_start_chunk(x);
    });
    return;
  }

  // Scatter-gather DMA: pin user pages (mapping them on demand, which is
  // what get_user_pages does), then one DMA per physically contiguous run.
  const Cycles setup = cfg_.launch_cost + cfg_.pin_page_cost * pages;
  os_.exec_service(setup, [this, va, pinned, bytes, to_pinned, done = std::move(done)]() mutable {
    auto& space = process_.address_space();
    const u64 pg = space.page_bytes();
    struct Seg {
      PhysAddr user_pa;
      PhysAddr pinned_pa;
      u64 bytes;
    };
    auto segs = std::make_shared<std::vector<Seg>>();
    u64 pos = 0;
    while (pos < bytes) {
      const VirtAddr a = va + pos;
      if (!space.is_mapped(a)) space.map_page(a);
      const u64 in_page = pg - (a & (pg - 1));
      const u64 n = std::min<u64>(in_page, bytes - pos);
      segs->push_back(Seg{*space.translate(a), pinned + pos, n});
      pos += n;
    }
    auto idx = std::make_shared<std::size_t>(0);
    // The stored closure references itself only weakly; each in-flight DMA
    // continuation holds the strong reference. A strong self-capture would
    // be a shared_ptr cycle — the closure (and `done`) would never free.
    auto step = std::make_shared<std::function<void()>>();
    *step = [this, segs, idx, to_pinned, wstep = std::weak_ptr<std::function<void()>>(step),
             done = std::move(done)]() mutable {
      if (*idx >= segs->size()) {
        done();
        return;
      }
      const Seg s = (*segs)[(*idx)++];
      auto cont = [self = wstep.lock()] { (*self)(); };
      if (to_pinned)
        dma_.copy(s.user_pa, s.pinned_pa, s.bytes, std::move(cont));
      else
        dma_.copy(s.pinned_pa, s.user_pa, s.bytes, std::move(cont));
    };
    (*step)();
  });
}

// --- pressure-aware scatter-gather machinery ------------------------------

void OffloadDriver::sg_size_chunk(const std::shared_ptr<SgXfer>& x, u64 quota) {
  const u64 pg = process_.address_space().page_bytes();
  const u64 first_vpn = (x->va + x->pos) / pg;
  u64 chunk_end = x->bytes;
  if (quota != 0) {
    // Page-aligned split: the chunk covers at most `quota` user pages.
    const u64 va_limit = (first_vpn + quota) * pg;
    chunk_end = std::min(x->bytes, va_limit - x->va);
  }
  x->chunk_end = chunk_end;
  x->chunk_pages = (x->va + chunk_end - 1) / pg - first_vpn + 1;
  if (chunk_end < x->bytes && !x->counted_chunked) {
    x->counted_chunked = true;
    chunked_runs_.add();
  }
}

void OffloadDriver::sg_start_chunk(const std::shared_ptr<SgXfer>& x) {
  if (x->pos >= x->bytes) {
    x->done();
    return;
  }
  // The pager may have been detached mid-transfer; quota 0 (unlimited)
  // degenerates the rest of the machinery to the pressure-free model.
  const u64 quota = pager_ != nullptr ? pager_->pin_quota() : 0;
  sg_size_chunk(x, quota);
  // Budget-aware admission: never hold more pins than the quota allows, or
  // the fault path would run out of evictable frames. Over-demand chunks
  // queue FIFO behind in-flight transfers' pin releases — and a fresh
  // chunk never jumps an occupied queue, or alternating small transfers
  // could starve a large waiter forever.
  if (quota != 0 && (!pin_waiters_.empty() || pins_held_ + x->chunk_pages > quota)) {
    pin_stalls_.add();
    pin_waiters_.push_back(x);
    return;
  }
  sg_admit(x);
}

void OffloadDriver::sg_admit(const std::shared_ptr<SgXfer>& x) {
  pins_held_ += x->chunk_pages;
  x->pin_cursor = x->pos;
  x->seg_cursor = x->pos;
  // get_user_pages()-style software cost for this chunk's pages; the timed
  // fault-in work (evictions, swap reads) is charged by the pager per page.
  os_.exec_service(cfg_.pin_page_cost * x->chunk_pages, [this, x] { sg_pin_next(x); });
}

void OffloadDriver::sg_pin_next(const std::shared_ptr<SgXfer>& x) {
  auto& space = process_.address_space();
  const u64 pg = space.page_bytes();
  while (x->pin_cursor < x->chunk_end) {
    const VirtAddr page_va = (x->va + x->pin_cursor) & ~(pg - 1);
    space.pin(page_va);  // covers fault-in through the chunk's bus completion
    if (!space.is_mapped(page_va)) {
      if (pager_ == nullptr) {  // detached mid-transfer: pressure-free map
        space.map_page(page_va, /*writable=*/true);
        x->pin_cursor = std::min(x->chunk_end, page_va + pg - x->va);
        continue;
      }
      pin_faults_.add();
      // A DMA write into the page (copy_out) needs it writable: is_write
      // mirrors the direction the device will access user memory.
      pager_->handle_fault(page_va, /*is_write=*/!x->to_pinned, [this, x, page_va, pg] {
        // Re-enter on a fresh stack: handle_fault may complete synchronously
        // (clean evictions, no swap read), and a chunk's worth of such
        // faults must not recurse.
        sim_.schedule_now([this, x, page_va, pg] {
          auto& sp = process_.address_space();
          if (!sp.is_mapped(page_va)) sp.map_page(page_va, /*writable=*/true);
          x->pin_cursor = std::min(x->chunk_end, page_va + pg - x->va);
          sg_pin_next(x);
        });
      });
      return;
    }
    x->pin_cursor = std::min(x->chunk_end, page_va + pg - x->va);
  }
  sg_dma_next(x);
}

void OffloadDriver::sg_dma_next(const std::shared_ptr<SgXfer>& x) {
  if (x->seg_cursor >= x->chunk_end) {
    sg_finish_chunk(x);
    return;
  }
  auto& space = process_.address_space();
  const u64 pg = space.page_bytes();
  const VirtAddr a = x->va + x->seg_cursor;
  const u64 in_page = pg - (a & (pg - 1));
  const u64 n = std::min<u64>(in_page, x->chunk_end - x->seg_cursor);
  const PhysAddr user_pa = *space.translate(a);  // stable: the page is pinned
  const PhysAddr pinned_pa = x->pinned + x->seg_cursor;
  x->seg_cursor += n;
  auto cont = [this, x] { sg_dma_next(x); };
  if (x->to_pinned)
    dma_.copy(user_pa, pinned_pa, n, std::move(cont));
  else
    dma_.copy(pinned_pa, user_pa, n, std::move(cont));
}

void OffloadDriver::sg_finish_chunk(const std::shared_ptr<SgXfer>& x) {
  auto& space = process_.address_space();
  const u64 pg = space.page_bytes();
  const VirtAddr first_page = (x->va + x->pos) & ~(pg - 1);
  for (u64 p = 0; p < x->chunk_pages; ++p) {
    const VirtAddr page_va = first_page + p * pg;
    // DMA into user memory dirties the page behind the MMU's back; mark the
    // PTE so a later eviction pays the writeback (set_page_dirty semantics).
    if (!x->to_pinned && space.is_mapped(page_va))
      space.page_table().set_accessed_dirty(page_va, /*dirty=*/true);
    space.unpin(page_va);
  }
  pins_held_ -= x->chunk_pages;
  x->pos = x->chunk_end;
  // Released pins admit queued chunks first (FIFO fairness between
  // transfers), then this transfer's own next chunk competes for quota.
  pump_pin_waiters();
  sg_start_chunk(x);
}

void OffloadDriver::pump_pin_waiters() {
  // Re-size the head against the *current* quota before the admission
  // check: auto-budget rebalances can shrink the quota while a chunk
  // waits, and a chunk sized under the old, larger quota would otherwise
  // never fit again — wedging the transfer with a clean-looking queue.
  while (!pin_waiters_.empty()) {
    const u64 quota = pager_ != nullptr ? pager_->pin_quota() : 0;
    sg_size_chunk(pin_waiters_.front(), quota);
    if (quota != 0 && pins_held_ + pin_waiters_.front()->chunk_pages > quota) break;
    auto x = std::move(pin_waiters_.front());
    pin_waiters_.pop_front();
    sg_admit(x);
  }
}

void OffloadDriver::cpu_copy(VirtAddr va, PhysAddr pinned, u64 bytes, bool to_pinned,
                             std::function<void()> done) {
  // The CPU streams cache-line-sized pieces over the bus: read source line,
  // write destination line, repeat. Each chunk's functional copy happens at
  // its completion time, so partial copies interleave consistently with
  // other masters. With a pager attached, unmapped user pages fault in
  // through it (charging swap/eviction time) and each chunk's page stays
  // pinned across its bus round trip.
  auto pos = std::make_shared<u64>(0);
  // Weak self-reference; the bus-request continuations keep it alive (see
  // the scatter-gather path above for why a strong capture would leak).
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, pos, va, pinned, bytes, to_pinned,
           wstep = std::weak_ptr<std::function<void()>>(step),
           done = std::move(done)]() mutable {
    if (*pos >= bytes) {
      done();
      return;
    }
    auto& space = process_.address_space();
    const u64 page = space.page_bytes();
    const u64 off = *pos;
    const VirtAddr ua = va + off;
    const VirtAddr page_va = ua & ~(page - 1);
    if (pager_ != nullptr) space.pin(page_va);
    if (!space.is_mapped(ua)) {
      if (pager_ != nullptr) {
        pin_faults_.add();
        auto self = wstep.lock();
        pager_->handle_fault(page_va, /*is_write=*/!to_pinned, [this, self, page_va] {
          sim_.schedule_now([this, self, page_va] {
            auto& sp = process_.address_space();
            if (!sp.is_mapped(page_va)) sp.map_page(page_va, /*writable=*/true);
            // This entry's pin ends here; the re-entered step immediately
            // takes its own within the same event, so no eviction window
            // opens between the two.
            sp.unpin(page_va);
            (*self)();
          });
        });
        return;
      }
      space.map_page(ua);
    }
    const u64 in_page = page - (ua & (page - 1));
    const u32 chunk = static_cast<u32>(
        std::min<u64>({static_cast<u64>(cfg_.cpu_copy_chunk), bytes - off, in_page}));
    const PhysAddr user_pa = *space.translate(ua);
    const PhysAddr src = to_pinned ? user_pa : pinned + off;
    const PhysAddr dst = to_pinned ? pinned + off : user_pa;
    *pos += chunk;
    auto self = wstep.lock();
    bus_.request(mem::BusRequest{src, chunk, false,
                                 [this, src, dst, chunk, page_va, to_pinned, self] {
      bus_.request(mem::BusRequest{dst, chunk, true,
                                   [this, src, dst, chunk, page_va, to_pinned, self] {
        pm_.copy(src, dst, chunk);
        if (pager_ != nullptr) {
          auto& sp = process_.address_space();
          // Copy-out writes user memory behind the MMU: dirty the PTE so a
          // later eviction pays the writeback.
          if (!to_pinned && sp.is_mapped(page_va))
            sp.page_table().set_accessed_dirty(page_va, /*dirty=*/true);
          sp.unpin(page_va);
        }
        (*self)();
      }});
    }});
  };
  (*step)();
}

}  // namespace vmsls::dma
