#include "sls/resources.hpp"

#include <algorithm>
#include <sstream>

namespace vmsls::sls {

std::string Resources::to_string() const {
  std::ostringstream os;
  os << luts << " LUT / " << ffs << " FF / " << bram_kb << " KB BRAM / " << dsps << " DSP";
  return os.str();
}

bool fits(const Resources& r, const ResourceBudget& b) noexcept {
  return r.luts <= b.luts && r.ffs <= b.ffs && r.bram_kb <= b.bram_kb && r.dsps <= b.dsps;
}

double utilization(const Resources& r, const ResourceBudget& b) noexcept {
  double u = 0.0;
  if (b.luts) u = std::max(u, static_cast<double>(r.luts) / static_cast<double>(b.luts));
  if (b.ffs) u = std::max(u, static_cast<double>(r.ffs) / static_cast<double>(b.ffs));
  if (b.bram_kb > 0) u = std::max(u, r.bram_kb / b.bram_kb);
  if (b.dsps) u = std::max(u, static_cast<double>(r.dsps) / static_cast<double>(b.dsps));
  return u;
}

namespace {
/// Per-instruction datapath costs: HLS instantiates operator instances and
/// one FSM state per IR op.
Resources op_cost(hwt::Op op) {
  using hwt::Op;
  switch (op) {
    case Op::kMul:
    case Op::kMuli:
      return {24, 18, 0.0, 1};  // DSP48 multiplier + pipeline regs
    case Op::kDivU:
    case Op::kRemU:
      return {190, 160, 0.0, 0};  // iterative divider
    case Op::kLoad:
    case Op::kStore:
      return {42, 58, 0.0, 0};  // address gen + response capture
    case Op::kBurstLoad:
    case Op::kBurstStore:
      return {88, 112, 0.0, 0};  // burst counters + scratchpad DMA path
    case Op::kSpadLoad:
    case Op::kSpadStore:
      return {14, 10, 0.0, 0};
    case Op::kMboxGet:
    case Op::kMboxPut:
    case Op::kSemWait:
    case Op::kSemPost:
      return {26, 34, 0.0, 0};  // doorbell handshake state
    case Op::kBeqz:
    case Op::kBnez:
    case Op::kJmp:
      return {9, 6, 0.0, 0};
    case Op::kDelay:
      return {12, 18, 0.0, 0};  // cycle counter
    case Op::kHalt:
    case Op::kNop:
      return {2, 2, 0.0, 0};
    default:
      return {15, 11, 0.0, 0};  // ALU/compare/move
  }
}
}  // namespace

Resources estimate_kernel(const hwt::Kernel& kernel) {
  Resources r{310, 420, 0.0, 0};  // control FSM + start/done wrapper
  r += Resources{512, 128, 0.0, 0};  // 32x64b register file in LUTRAM
  for (std::size_t op = 0; op < kernel.op_histogram.size(); ++op) {
    const u64 count = kernel.op_histogram[op];
    if (count == 0) continue;
    r += op_cost(static_cast<hwt::Op>(op)).scaled(count);
  }
  if (kernel.iface.spad_bytes > 0) {
    r.bram_kb += static_cast<double>(kernel.iface.spad_bytes) / 1024.0;
    r += Resources{36, 22, 0.0, 0};  // BRAM controller
  }
  return r;
}

Resources estimate_tlb(const mem::TlbConfig& tlb) {
  // Each entry: CAM tag compare (LUTs) + VPN/PFN/flags registers (~110b).
  Resources r{150, 120, 0.0, 0};  // lookup/replace control
  r += Resources{22, 112, 0.0, 0}.scaled(tlb.entries);
  return r;
}

Resources estimate_mmu_frontend() { return Resources{340, 390, 0.0, 0}; }

Resources estimate_walker(const mem::WalkerConfig& cfg) {
  Resources r{880, 720, 0.0, 0};
  r += Resources{26, 96, 0.0, 0}.scaled(cfg.walk_cache_entries);
  return r;
}

Resources estimate_mem_port(const hwt::HwPortConfig& cfg) {
  // AXI master burst engine; wider bursts need deeper reorder/boundary
  // logic but the dependence is weak.
  Resources r{410, 520, 0.0, 0};
  if (cfg.max_burst_bytes > 256) r += Resources{60, 90, 0.0, 0};
  return r;
}

Resources estimate_os_interface(unsigned mailboxes, unsigned semaphores) {
  Resources r{120, 150, 0.0, 0};  // doorbell + IRQ
  r += Resources{64, 90, 0.0, 0}.scaled(mailboxes);  // 16-deep LUTRAM FIFOs
  r += Resources{18, 12, 0.0, 0}.scaled(semaphores);
  return r;
}

Resources estimate_interconnect(unsigned masters) {
  return Resources{620, 480, 0.0, 0} + Resources{240, 210, 0.0, 0}.scaled(masters);
}

Resources estimate_dma_engine() { return Resources{840, 960, 0.0, 0}; }

}  // namespace vmsls::sls
