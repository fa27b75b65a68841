#include "sls/report_writer.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

namespace vmsls::sls {

void write_report_markdown(std::ostream& os, const SynthesisReport& report,
                           const std::string& title) {
  os << "# " << title << "\n\n";
  os << "- hardware threads: " << report.hw_threads << "\n";
  os << "- software threads: " << report.sw_threads << "\n";
  os << "- fits budget: " << (report.fits_budget ? "yes" : "NO") << " (utilization "
     << static_cast<int>(report.utilization * 100.0) << "% of the binding resource)\n";
  os << "- netlist: " << report.netlist_instances << " instances, " << report.netlist_nets
     << " nets\n";
  if (!report.demoted_threads.empty()) {
    os << "- demoted to software:";
    for (const auto& t : report.demoted_threads) os << " " << t;
    os << "\n";
  }

  os << "\n## Resources\n\n| component | LUT | FF | BRAM KB | DSP |\n|---|---|---|---|---|\n";
  for (const auto& [name, r] : report.components)
    os << "| " << name << " | " << r.luts << " | " << r.ffs << " | " << r.bram_kb << " | "
       << r.dsps << " |\n";
  const auto& s = report.static_resources;
  os << "| static (walker+interconnect) | " << s.luts << " | " << s.ffs << " | " << s.bram_kb
     << " | " << s.dsps << " |\n";
  const auto& t = report.total;
  os << "| **total** | " << t.luts << " | " << t.ffs << " | " << t.bram_kb << " | " << t.dsps
     << " |\n";

  os << "\n## Address map\n\n| component | base | size |\n|---|---|---|\n";
  for (const auto& e : report.address_map)
    os << "| " << e.component << " | 0x" << std::hex << e.base << std::dec << " | " << e.size
       << " |\n";

  os << "\n## Pass timings\n\n| pass | microseconds |\n|---|---|\n";
  for (const auto& p : report.pass_timings) os << "| " << p.pass << " | " << p.microseconds
                                               << " |\n";
}

void write_stats_csv(std::ostream& os, const StatRegistry& stats) {
  os << "name,value\n";
  for (const auto& [name, value] : stats.snapshot()) os << name << "," << value << "\n";
}

namespace {

/// One component's `<name>.*` stats, read by key suffix; a missing key
/// reads 0. Built empty — after printing `inactive` as its own line — when
/// the registry holds no stat under the name.
class StatSection {
 public:
  StatSection(std::ostream& os, const StatRegistry& stats, const std::string& name,
              const std::string& inactive)
      : prefix_(name + "."), stats_(stats.snapshot_prefix(prefix_)) {
    if (stats_.empty()) os << inactive << "\n";
  }

  explicit operator bool() const noexcept { return !stats_.empty(); }

  double operator()(const std::string& key) const {
    auto it = stats_.find(prefix_ + key);
    return it == stats_.end() ? 0.0 : it->second;
  }

 private:
  std::string prefix_;
  std::map<std::string, double> stats_;
};

}  // namespace

void write_pager_summary(std::ostream& os, const StatRegistry& stats,
                         const std::string& pager_name,
                         const std::string& fault_handler_name) {
  const StatSection at(os, stats, pager_name, "pager: inactive (no frame budget configured)");
  if (!at) return;
  os << "pager: evictions=" << at("evictions") << " swap_ins=" << at("swap_ins")
     << " swap_outs=" << at("swap.writes") << " writebacks=" << at("writebacks")
     << " file_reads=" << at("file_reads") << " file_drops=" << at("file_drops")
     << " file_writebacks=" << at("file_writebacks") << " zero_fills=" << at("zero_fills")
     << " reclaims=" << at("reclaims") << " mean_fault_stall=" << at("fault_stall.mean")
     << " p50_fault_stall=" << at("fault_stall.p50")
     << " p95_fault_stall=" << at("fault_stall.p95")
     << " p99_fault_stall=" << at("fault_stall.p99")
     << " swap_queue_wait=" << at("swap.queue_wait.mean")
     << " faults=" << stats.counter_value(fault_handler_name + ".faults") << "\n";
  if (at("prefetches") > 0) {
    const double useful = at("prefetch_useful");
    const double late = at("prefetch_late");
    const double issued = at("prefetches");
    const double demand = at("swap_ins");
    os << "pager: prefetches=" << issued << " useful=" << useful << " late=" << late
       << " wasted=" << at("prefetch_wasted")
       << " accuracy=" << (issued > 0 ? (useful + late) / issued : 0.0)
       << " coverage=" << (demand + useful + late > 0 ? (useful + late) / (demand + useful + late)
                                                      : 0.0)
       << "\n";
  }
}

void write_swap_summary(std::ostream& os, const StatRegistry& stats,
                        const std::string& swap_name) {
  const StatSection at(os, stats, swap_name,
                       "swap: inactive (no swap front end named '" + swap_name + "')");
  if (!at) return;
  os << "swap: reads=" << at("reads") << " writes=" << at("writes") << " bytes=" << at("bytes")
     << " queue_wait_mean=" << at("queue_wait.mean") << " queue_wait_max=" << at("queue_wait.max")
     << " queue_wait_p95=" << at("queue_wait.p95") << " queue_wait_p99=" << at("queue_wait.p99")
     << " queue_depth_mean=" << at("sched.queue_depth.mean")
     << " queue_depth_max=" << at("sched.queue_depth.max") << "\n";
  os << "swap.sched: demand_reads=" << at("sched.demand_reads")
     << " prefetch_reads=" << at("sched.prefetch_reads")
     << " writebacks=" << at("sched.writebacks")
     << " wb_promotions=" << at("sched.wb_promotions") << "\n";
  // Per-class queue waits (the fault-path latency classes): printed only
  // for classes that actually dispatched traffic.
  bool any_class = false;
  std::string class_line = "swap.sched.wait:";
  for (const char* cls : {"demand_read", "demand_write", "prefetch_read", "writeback"}) {
    const std::string key = std::string("sched.wait_") + cls;
    if (at(key + ".count") <= 0) continue;
    any_class = true;
    std::ostringstream part;
    part << " " << cls << "(mean=" << at(key + ".mean") << ",p99=" << at(key + ".p99") << ")";
    class_line += part.str();
  }
  if (any_class) os << class_line << "\n";
}

void write_serving_summary(std::ostream& os, const StatRegistry& stats,
                           const std::string& traffic_name) {
  const StatSection at(os, stats, traffic_name,
                       "serving: inactive (no traffic driver named '" + traffic_name + "')");
  if (!at) return;
  os << "serving: arrivals=" << at("arrivals") << " admitted=" << at("admitted")
     << " rejected=" << at("rejected") << " completed=" << at("completed")
     << " latency_p50=" << at("latency.p50") << " latency_p95=" << at("latency.p95")
     << " latency_p99=" << at("latency.p99") << " latency_max=" << at("latency.max")
     << " queue_wait_mean=" << at("queue_wait.mean")
     << " queue_wait_p99=" << at("queue_wait.p99") << " service_mean=" << at("service.mean")
     << "\n";
}

void write_file_cache_summary(std::ostream& os, const StatRegistry& stats,
                              const std::string& cache_name) {
  const StatSection at(os, stats, cache_name,
                       "bcache: inactive (no buffer cache named '" + cache_name + "')");
  if (!at) return;
  const double lookups = at("hits") + at("misses");
  os << "bcache: hits=" << at("hits") << " misses=" << at("misses")
     << " hit_rate=" << (lookups > 0 ? at("hits") / lookups : 0.0)
     << " merged_reads=" << at("merged_reads") << " device_reads=" << at("reads")
     << " device_writes=" << at("writes") << " flushes=" << at("flushes")
     << " evictions=" << at("evictions") << " read_wait_mean=" << at("read_wait.mean")
     << " read_wait_max=" << at("read_wait.max") << "\n";
}

void write_frame_pool_summary(std::ostream& os, const StatRegistry& stats,
                              const std::string& pool_name) {
  const StatSection at(os, stats, pool_name, "pool: inactive (no shared frame pool)");
  if (!at) return;
  os << "pool: evictions=" << at("evictions") << " cross_evictions=" << at("cross_evictions")
     << " rebalances=" << at("rebalances") << "\n";
}

void write_offload_summary(std::ostream& os, const StatRegistry& stats,
                           const std::string& offload_name) {
  const StatSection at(os, stats, offload_name,
                       "offload: inactive (system synthesized without the DMA baseline)");
  if (!at) return;
  os << "offload: copies=" << at("copies") << " bytes=" << at("bytes")
     << " pages_pinned=" << at("pages_pinned") << " pin_faults=" << at("pin_faults")
     << " pin_stalls=" << at("pin_stalls") << " chunked_runs=" << at("chunked_runs") << "\n";
}

namespace {
std::ofstream open_or_throw(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "' for writing");
  return f;
}
}  // namespace

void save_report_markdown(const std::string& path, const SynthesisReport& report,
                          const std::string& title) {
  auto f = open_or_throw(path);
  write_report_markdown(f, report, title);
}

void save_stats_csv(const std::string& path, const StatRegistry& stats) {
  auto f = open_or_throw(path);
  write_stats_csv(f, stats);
}

}  // namespace vmsls::sls
