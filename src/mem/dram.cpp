#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

namespace vmsls::mem {

DramModel::DramModel(const DramConfig& cfg, StatRegistry& stats, std::string name)
    : cfg_(cfg),
      row_shift_(static_cast<unsigned>(std::countr_zero(cfg.row_bytes))),
      banks_pow2_(is_pow2(cfg.banks)),
      banks_(cfg.banks),
      row_hits_(stats.counter(name + ".row_hits")),
      row_misses_(stats.counter(name + ".row_misses")),
      reads_(stats.counter(name + ".reads")),
      writes_(stats.counter(name + ".writes")),
      bytes_moved_(stats.counter(name + ".bytes")) {
  require(cfg.banks > 0, "DRAM needs at least one bank");
  require(is_pow2(cfg.row_bytes), "DRAM row size must be a power of two");
  require(cfg.data_bytes_per_cycle > 0, "DRAM bandwidth must be nonzero");
}

Cycles DramModel::best_case_latency(u32 bytes) const noexcept {
  return cfg_.t_cas + ceil_div(bytes, cfg_.data_bytes_per_cycle);
}

Cycles DramModel::access_chunk(PhysAddr addr, u32 bytes, Cycles earliest_start) {
  // Row-interleaved bank mapping: consecutive rows land on consecutive
  // banks, which is the common controller configuration and gives streaming
  // accesses bank-level parallelism. A power-of-two bank count (the usual
  // one) indexes by mask; any other count wraps by modulo.
  const u64 global_row = addr >> row_shift_;
  const u64 bank_idx = banks_pow2_ ? global_row & (cfg_.banks - 1) : global_row % cfg_.banks;
  Bank& bank = banks_[bank_idx];

  const Cycles start = std::max(earliest_start, bank.busy_until);
  Cycles latency = 0;
  if (bank.open_row == global_row) {
    latency += cfg_.t_cas;
    row_hits_.add();
  } else if (bank.open_row == kNoRow) {
    latency += cfg_.t_rcd + cfg_.t_cas;
    row_misses_.add();
  } else {
    latency += cfg_.t_rp + cfg_.t_rcd + cfg_.t_cas;
    row_misses_.add();
  }
  latency += ceil_div(bytes, cfg_.data_bytes_per_cycle);

  bank.open_row = global_row;
  bank.busy_until = start + latency;
  return start + latency;
}

Cycles DramModel::access(PhysAddr addr, u32 bytes, bool is_write, Cycles earliest_start) {
  require(bytes > 0, "DRAM access must move at least one byte");
  (is_write ? writes_ : reads_).add();
  bytes_moved_.add(bytes);

  // Split at row boundaries so long bursts pay activation per row but keep
  // streaming within a row.
  Cycles done = earliest_start;
  PhysAddr a = addr;
  u64 remaining = bytes;
  Cycles chunk_start = earliest_start;
  while (remaining > 0) {
    const u64 in_row = cfg_.row_bytes - (a & (cfg_.row_bytes - 1));
    const u32 n = static_cast<u32>(std::min<u64>(in_row, remaining));
    done = access_chunk(a, n, chunk_start);
    // Subsequent chunks can begin their activation as soon as this chunk
    // started (banks are independent), but data is serialized on the shared
    // data pins: approximate by chaining starts.
    chunk_start = done;
    a += n;
    remaining -= n;
  }
  return done;
}

}  // namespace vmsls::mem
