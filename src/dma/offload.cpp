#include "dma/offload.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

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
                             const OffloadConfig& cfg, std::string name, paging::Pager* pager)
    : sim_(sim),
      os_(os),
      process_(process),
      dma_(dma),
      bus_(bus),
      pm_(pm),
      cfg_(cfg),
      name_(std::move(name)),
      pager_(pager),
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
                            sim::Callback<> done) {
  // Written so the bound cannot wrap: `off + bytes` may overflow.
  require(off <= buf.bytes && bytes <= buf.bytes - off, "copy_in overruns pinned buffer");
  launch(va, buf.pa + off, bytes, /*to_pinned=*/true, std::move(done));
}

void OffloadDriver::copy_out(const PinnedBuffer& buf, u64 off, VirtAddr va, u64 bytes,
                             sim::Callback<> done) {
  require(off <= buf.bytes && bytes <= buf.bytes - off, "copy_out overruns pinned buffer");
  launch(va, buf.pa + off, bytes, /*to_pinned=*/false, std::move(done));
}

void OffloadDriver::launch(VirtAddr va, PhysAddr pinned, u64 bytes, bool to_pinned,
                           sim::Callback<> done) {
  copies_.add();
  bytes_copied_.add(bytes);
  const u64 page = process_.address_space().page_bytes();
  pages_pinned_.add(ceil_div((va & (page - 1)) + bytes, page));

  Transfer* x = transfers_.acquire();
  x->va = va;
  x->pinned = pinned;
  x->bytes = bytes;
  x->to_pinned = to_pinned;
  x->pos = 0;
  x->counted_chunked = false;
  x->done = std::move(done);
  if (cfg_.mode == CopyMode::kSgDma && pager_ == nullptr) {
    // Pressure-free SG: the whole transfer is one chunk, admitted now, so
    // the launch and every page's pin cost are one OS service.
    size_chunk(x, /*quota=*/0);
    admit(x, cfg_.launch_cost);
    return;
  }
  os_.exec_service(cfg_.launch_cost, [this, x] { next_chunk(x); });
}

void OffloadDriver::size_chunk(Transfer* x, u64 quota) {
  const u64 pg = process_.address_space().page_bytes();
  const VirtAddr start = x->va + x->pos;
  if (cfg_.mode == CopyMode::kCpuCopy) {
    // One cache-line-sized piece, never crossing a page.
    const u64 in_page = pg - (start & (pg - 1));
    x->chunk_end = x->pos + std::min<u64>({cfg_.cpu_copy_chunk, x->bytes - x->pos, in_page});
    x->chunk_pages = 1;
    return;
  }
  const u64 first_vpn = start / pg;
  u64 chunk_end = x->bytes;
  if (quota != 0) {
    // Page-aligned split: the chunk covers at most `quota` user pages.
    const u64 va_limit = (first_vpn + quota) * pg;
    chunk_end = std::min(x->bytes, va_limit - x->va);
    if (chunk_end < x->bytes && !x->counted_chunked) {
      x->counted_chunked = true;
      chunked_runs_.add();
    }
  }
  x->chunk_end = chunk_end;
  x->chunk_pages = chunk_end > x->pos ? (x->va + chunk_end - 1) / pg - first_vpn + 1 : 0;
}

void OffloadDriver::next_chunk(Transfer* x) {
  if (x->pos >= x->bytes) {
    auto done = std::move(x->done);
    transfers_.release(x);
    done();
    return;
  }
  const u64 quota =
      cfg_.mode == CopyMode::kSgDma && pager_ != nullptr ? pager_->pin_quota() : 0;
  size_chunk(x, quota);
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
  admit(x, 0);
}

void OffloadDriver::admit(Transfer* x, Cycles extra) {
  pins_held_ += x->chunk_pages;
  x->cursor = x->pos;
  if (cfg_.mode == CopyMode::kCpuCopy) {
    fault_in(x);
    return;
  }
  // get_user_pages()-style software cost for this chunk's pages; the timed
  // fault-in work (evictions, swap reads) is charged by the pager per page.
  os_.exec_service(extra + cfg_.pin_page_cost * x->chunk_pages, [this, x] { fault_in(x); });
}

void OffloadDriver::fault_in(Transfer* x) {
  auto& space = process_.address_space();
  const u64 pg = space.page_bytes();
  while (x->cursor < x->chunk_end) {
    const VirtAddr page_va = (x->va + x->cursor) & ~(pg - 1);
    space.pin(page_va);  // covers fault-in through the chunk's last piece
    if (!space.is_mapped(page_va)) {
      if (pager_ == nullptr) {
        space.map_page(page_va);  // get_user_pages maps on demand
      } else {
        pin_faults_.add();
        // A device write into the page (copy_out) needs it writable:
        // is_write mirrors the direction the device accesses user memory.
        pager_->handle_fault(page_va, /*is_write=*/!x->to_pinned, [this, x] {
          sim_.forgo_run_ahead();  // the driver's own code, not a tail call
          // Re-enter on a fresh stack: handle_fault may complete
          // synchronously (clean evictions, no swap read), and a chunk's
          // worth of such faults must not recurse.
          sim_.schedule_now([this, x] {
            auto& sp = process_.address_space();
            const VirtAddr fault_va = (x->va + x->cursor) & ~(sp.page_bytes() - 1);
            if (!sp.is_mapped(fault_va)) sp.map_page(fault_va);
            // fault_in re-pins the page within this event, so no eviction
            // window opens between the two.
            sp.unpin(fault_va);
            fault_in(x);
          });
        });
        return;
      }
    }
    x->cursor = std::min(x->chunk_end, page_va + pg - x->va);
  }
  x->cursor = x->pos;
  move_next(x);
}

void OffloadDriver::move_next(Transfer* x) {
  if (x->cursor >= x->chunk_end) {
    finish_chunk(x);
    return;
  }
  auto& space = process_.address_space();
  const u64 pg = space.page_bytes();
  const VirtAddr a = x->va + x->cursor;
  const u64 n = std::min<u64>(pg - (a & (pg - 1)), x->chunk_end - x->cursor);
  const PhysAddr user_pa = *space.translate(a);  // stable: the page is pinned
  const PhysAddr pinned_pa = x->pinned + x->cursor;
  const PhysAddr src = x->to_pinned ? user_pa : pinned_pa;
  const PhysAddr dst = x->to_pinned ? pinned_pa : user_pa;
  x->cursor += n;
  if (cfg_.mode == CopyMode::kSgDma) {
    dma_.copy(src, dst, n, [this, x] { move_next(x); });
    return;
  }
  // The CPU reads the source line, then writes the destination line; the
  // functional copy happens at the write's completion, so partial copies
  // interleave consistently with other masters.
  const u32 piece = static_cast<u32>(n);
  bus_.request(src, piece, false, [this, x, src, dst, piece] {
    bus_.request(dst, piece, true, [this, x, src, dst, piece] {
      pm_.copy(src, dst, piece);
      move_next(x);
    });
  });
}

void OffloadDriver::finish_chunk(Transfer* x) {
  auto& space = process_.address_space();
  const u64 pg = space.page_bytes();
  const VirtAddr first_page = (x->va + x->pos) & ~(pg - 1);
  for (u64 p = 0; p < x->chunk_pages; ++p) {
    const VirtAddr page_va = first_page + p * pg;
    // Under a pager, a device write into user memory dirties the page
    // behind the MMU's back: mark the PTE so a later eviction pays the
    // writeback (set_page_dirty semantics).
    if (pager_ != nullptr && !x->to_pinned && space.is_mapped(page_va))
      space.page_table().set_accessed_dirty(page_va, /*dirty=*/true);
    space.unpin(page_va);
  }
  pins_held_ -= x->chunk_pages;
  x->pos = x->chunk_end;
  // Released pins admit queued chunks first (FIFO fairness between
  // transfers), then this transfer's own next chunk competes for quota.
  pump_pin_waiters();
  next_chunk(x);
}

void OffloadDriver::pump_pin_waiters() {
  // Re-size the head against the *current* quota before the admission
  // check: auto-budget rebalances can shrink the quota while a chunk
  // waits, and a chunk sized under the old, larger quota would otherwise
  // never fit again — wedging the transfer with a clean-looking queue.
  // Only SG chunks under a pager ever wait, so the pager is attached here.
  while (!pin_waiters_.empty()) {
    const u64 quota = pager_->pin_quota();
    size_chunk(pin_waiters_.front(), quota);
    if (quota != 0 && pins_held_ + pin_waiters_.front()->chunk_pages > quota) break;
    admit(pin_waiters_.pop_front(), 0);
  }
}

}  // namespace vmsls::dma
