// DRAM timing model.
//
// Bank-level model with open-row policy: a hit pays CAS only, a conflict
// pays precharge + activate + CAS. Data transfer occupies the device for
// ceil(bytes / data_bytes_per_cycle) cycles. Bursts that cross row
// boundaries are split internally. Timing parameters are expressed in
// fabric (reference) cycles; defaults approximate a DDR3-1066 part behind a
// 200 MHz fabric, i.e. Zynq-7000 class.
#pragma once

#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace vmsls::mem {

struct DramConfig {
  u64 size_bytes = 512 * MiB;
  unsigned banks = 8;
  u64 row_bytes = 2 * KiB;
  Cycles t_cas = 6;   // column access (row already open)
  Cycles t_rcd = 6;   // activate -> column
  Cycles t_rp = 6;    // precharge
  unsigned data_bytes_per_cycle = 8;  // effective controller bandwidth
};

/// Timing-only DRAM device. Thread of control lives in the caller (the
/// memory bus): `access` computes when a transaction beginning no earlier
/// than `earliest_start` completes, advancing internal bank state.
class DramModel {
 public:
  DramModel(const DramConfig& cfg, StatRegistry& stats, std::string name);

  const DramConfig& config() const noexcept { return cfg_; }

  /// Returns the completion cycle of the access. Updates bank open-row
  /// state and busy times.
  Cycles access(PhysAddr addr, u32 bytes, bool is_write, Cycles earliest_start);

  /// Latency of an isolated row-hit read of `bytes` (for analytical checks).
  Cycles best_case_latency(u32 bytes) const noexcept;

 private:
  struct Bank {
    u64 open_row = kNoRow;
    Cycles busy_until = 0;
  };
  static constexpr u64 kNoRow = ~0ull;

  Cycles access_chunk(PhysAddr addr, u32 bytes, Cycles earliest_start);

  DramConfig cfg_;
  unsigned row_shift_;  // log2(row_bytes)
  bool banks_pow2_;     // index banks by mask, not modulo
  std::vector<Bank> banks_;
  Counter& row_hits_;
  Counter& row_misses_;
  Counter& reads_;
  Counter& writes_;
  Counter& bytes_moved_;
};

}  // namespace vmsls::mem
