// Persistence for toolflow and run artifacts.
//
// Writes the synthesis report as markdown and the statistics registry as
// CSV — the artifacts a user archives next to a generated bitstream. The
// bench harness can point these at files to keep machine-readable records
// of every experiment run.
#pragma once

#include <iosfwd>
#include <string>

#include "sls/synthesis.hpp"
#include "util/stats.hpp"

namespace vmsls::sls {

/// Markdown rendering of a synthesis report: summary, per-component
/// resources, address map, and pass timings.
void write_report_markdown(std::ostream& os, const SynthesisReport& report,
                           const std::string& title);

/// CSV of every counter and histogram summary in a registry
/// (`name,value` rows of StatRegistry::snapshot; histograms contribute
/// .count/.mean/.max/.p50/.p95/.p99).
void write_stats_csv(std::ostream& os, const StatRegistry& stats);

/// One-line-per-counter summary of the paging subsystem after a run under
/// memory pressure: faults, evictions, swap-ins/outs, dirty writebacks,
/// mean fault-service time, mean swap-queue wait, and — when readahead ran
/// — the prefetch accuracy counters. Quiet (prints a note) when the
/// registry holds no pager counters — i.e. the system ran without a frame
/// budget.
void write_pager_summary(std::ostream& os, const StatRegistry& stats,
                         const std::string& pager_name = "pager",
                         const std::string& fault_handler_name = "faults");

/// Two-line summary of a swap front end (device + scheduler) after a run:
/// device transfers and bytes, queue-wait and queue-depth moments, and the
/// per-class dispatch counts with writeback starvation-guard promotions.
/// Works for a shared device (`swap_name` = "swap") and a private one
/// ("pager.swap"). Quiet (prints a note) when the registry holds no such
/// counters.
void write_swap_summary(std::ostream& os, const StatRegistry& stats,
                        const std::string& swap_name = "swap");

/// One-line summary of a buffer cache (the file-I/O front end) after a run:
/// hit rate, merged reads, device transfers, flush-daemon and capacity
/// writebacks, and read-wait moments (the machine's cache is "bcache").
/// Quiet (prints a note) when the registry holds no such counters.
void write_file_cache_summary(std::ostream& os, const StatRegistry& stats,
                              const std::string& cache_name = "bcache");

/// One-line summary of a shared FramePool after a multi-process
/// over-subscription run: pool evictions, cross-process evictions, and
/// auto-budget rebalances. Quiet (prints a note) when the registry holds
/// no pool counters.
void write_frame_pool_summary(std::ostream& os, const StatRegistry& stats,
                              const std::string& pool_name = "pool");

/// Serving-plane summary after a TrafficDriver run: the request ledger
/// (arrivals / admitted / rejected / completed), latency and queue-wait
/// percentiles, and mean service time — the open-system counterpart of the
/// makespan summaries above. Percentiles come from the registry histograms:
/// never below the exact value in the driver's Report, and at most 1/16
/// above it. Quiet (prints a note) when the registry holds no
/// counters under `traffic_name`.
void write_serving_summary(std::ostream& os, const StatRegistry& stats,
                           const std::string& traffic_name = "traffic");

/// One-line summary of the copy-based offload driver after a run: copies,
/// bytes moved, pages pinned, pages faulted in during pinning, and the
/// memory-pressure admission counters (pin_stalls = chunks queued behind
/// pin releases, chunked_runs = transfers split to fit the pin quota).
/// Quiet (prints a note) when the registry holds no offload counters.
void write_offload_summary(std::ostream& os, const StatRegistry& stats,
                           const std::string& offload_name = "offload");

/// Convenience file writers; throw std::runtime_error on I/O failure.
void save_report_markdown(const std::string& path, const SynthesisReport& report,
                          const std::string& title);
void save_stats_csv(const std::string& path, const StatRegistry& stats);

}  // namespace vmsls::sls
