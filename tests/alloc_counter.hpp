// Exact, process-wide count of global operator new calls.
//
// A binary that links tests/alloc_counter.cpp has its global operator
// new/delete replaced by a counting pair; the count is atomic, so
// allocations from every host thread (sharded runs, worker pools) land in
// it. alloc_free_test pins zero allocations on warmed-up paths with it, and
// the fig12 and fig15 smokes bound their allocations per simulated fault.
// The count is a work count: deterministic for a given C++ runtime, so a
// gate on it does not depend on host speed.
#pragma once

#include <iostream>
#include <stdexcept>
#include <string>

namespace vmsls::alloc_counter {

/// Global operator new calls so far, from every thread.
unsigned long long count() noexcept;

/// Prints "mallocs=<count()> faults=<faults>" to stderr and throws unless
/// the process has made at most `bound` allocations per fault so far.
inline void require_per_fault(unsigned long long faults, double bound) {
  const unsigned long long mallocs = count();
  std::cerr << "mallocs=" << mallocs << " faults=" << faults << "\n";
  if (static_cast<double>(mallocs) > bound * static_cast<double>(faults))
    throw std::runtime_error(std::to_string(mallocs) + " allocations for " +
                             std::to_string(faults) + " faults exceeds " + std::to_string(bound) +
                             " per fault");
}

}  // namespace vmsls::alloc_counter
