// Figure 12 — Shared swap I/O: one flash part, N pagers.
//
// The fig10 over-subscription mix (hash_join + pointer_chase + bfs, cycled)
// reruns with the swap path as the contended resource instead of the frame
// pool: every process keeps its own frame budget (per-process mode, equal
// working-set slices), and the experiment varies who owns the backing
// store and how its queue is scheduled:
//
//   private          — each pager pages against its own SwapScheduler
//                      (devices never queue against each other — the
//                      unrealistically optimistic baseline),
//   shared fifo      — one SwapScheduler for the whole group, arrival-
//                      order dispatch,
//   shared priority  — the same single device with class-aware dispatch
//                      (demand reads >> prefetch reads >> writebacks,
//                      bounded writeback starvation) and, in the readahead
//                      sweep, swap-in clustering prefetch.
//
// Tables:
//   12a. contention: process count x device mode at 250% over-subscription
//        (shared devices degrade makespan vs private at equal budgets),
//   12b. recovery: scheduling x readahead depth on the shared device
//        (priority dispatch + clustering prefetch win back a measurable
//        share of the contention penalty; accuracy/coverage reported).
//
// Gates (hard errors): every run drains its event queue; the run balances
// the paging ledger (mem/paging/ledger.hpp: per-owner swap reads/writes
// and their partition of the device totals, the unmap partition); a
// single-member shared device is bit-identical to a private one (the
// determinism contract); the grid run on --shards N host threads (default
// 2) is bit-identical to the serial walk; the contention and recovery
// regimes both actually show (12a/12b headline directions).
//
// Artifacts: BENCH_fig12_swap.json (engine-report schema) and
// fig12_swap_summary.txt (headline numbers + write_swap_summary /
// write_pager_summary dumps) for the CI artifact upload.
//
// --smoke mode (CI's traced run): skips the tables, keeps the determinism
// gate, and runs the worked example twice — once bare, once with a trace
// sink and the telemetry sampler attached — and gates that (a) tracing
// perturbs nothing (cycles, events, and ledgers bit-identical), (b) every
// span balances and every fault span decomposes exactly into its evict +
// queue + io sub-spans with the per-pager maximum matching the fault_stall
// histogram, and (c) the telemetry time-series covers the whole run at the
// configured cadence. Its BENCH_fig12_swap.json holds the worked example's
// cycles, events, queued events and faults (smoke_fig12_shared_swap diffs it against
// bench/golden/smoke/fig12_shared_swap.json), and it prints
// "mallocs= faults=" on stderr and fails past kSmokeMallocsPerFault.
// --trace/--telemetry name the artifact files and need --smoke.

#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/ledger.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "sls/process_group.hpp"
#include "sls/report_writer.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {

enum class DeviceMode { kPrivate, kSharedFifo, kSharedPriority };

const char* device_mode_name(DeviceMode m) {
  switch (m) {
    case DeviceMode::kPrivate: return "private";
    case DeviceMode::kSharedFifo: return "shared-fifo";
    case DeviceMode::kSharedPriority: return "shared-priority";
  }
  return "?";
}

struct MixOptions {
  unsigned processes = 4;
  unsigned oversub_pct = 250;  // per-process WS as % of its frame budget
  DeviceMode device = DeviceMode::kPrivate;
  unsigned readahead = 0;
  bool dump_summaries = false;
  // --smoke instrumentation; all default off so the table runs stay bare.
  std::string trace_path;                // Perfetto JSON artifact; empty = none
  sim::TraceSink* extra_sink = nullptr;  // in-memory validation sink
  u64 telemetry_period = 0;              // sampling period in cycles; 0 = off
  std::string telemetry_csv;             // telemetry CSV artifact; empty = none
};

struct MixResult {
  Cycles cycles = 0;  // makespan: start_all -> last thread halted
  u64 events = 0;
  bench::HostWork work;
  double host_ms = 0;
  u64 faults = 0;
  u64 swap_ins = 0;
  u64 prefetches = 0;
  u64 prefetch_useful = 0;
  u64 prefetch_late = 0;
  u64 prefetch_wasted = 0;
  u64 device_reads = 0;
  u64 device_writes = 0;
  u64 wb_promotions = 0;
  double queue_wait_mean = 0;
  // --smoke captures (empty unless the matching MixOptions knob was set).
  std::vector<std::string> trace_tracks;
  std::vector<std::string> telemetry_columns;
  std::vector<sim::TelemetrySampler::Row> telemetry_rows;
  std::vector<std::pair<std::string, double>> pager_fault_stall_max;

  double accuracy() const {
    return prefetches > 0
               ? static_cast<double>(prefetch_useful + prefetch_late) / static_cast<double>(prefetches)
               : 0.0;
  }
  double coverage() const {
    const u64 served = prefetch_useful + prefetch_late;
    return swap_ins + served > 0
               ? static_cast<double>(served) / static_cast<double>(swap_ins + served)
               : 0.0;
  }
};

/// Duplicates the stream to two sinks (--smoke wants both the JSON artifact
/// and an in-memory copy for validation from one run).
struct TeeSink final : sim::TraceSink {
  sim::TraceSink* a = nullptr;
  sim::TraceSink* b = nullptr;
  void on_event(const sim::TraceContext& ctx, const sim::TraceEvent& ev) override {
    if (a != nullptr) a->on_event(ctx, ev);
    if (b != nullptr) b->on_event(ctx, ev);
  }
};

/// The full mix on a caller-supplied simulator: the sharded grid driver
/// hands each grid point its own Simulator (one shard = one instance), and
/// the serial wrapper below keeps the original single-run shape.
MixResult run_mix_on(sim::Simulator& sim, const MixOptions& opt) {
  const u64 page = 4 * KiB;
  std::vector<workloads::Workload> wls;
  for (unsigned i = 0; i < opt.processes; ++i) wls.push_back(bench::make_mix_member(i));

  sls::PlatformSpec plat = sls::zynq7045();  // large part: room for 8 processes
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = 7;
  plat.pager.swap.shared = opt.device != DeviceMode::kPrivate;
  plat.pager.swap.sched = opt.device == DeviceMode::kSharedPriority
                              ? paging::SwapSchedPolicy::kPriority
                              : paging::SwapSchedPolicy::kFifo;
  plat.pager.swap.readahead = opt.readahead;
  plat.telemetry.period = opt.telemetry_period;

  std::unique_ptr<sim::JsonTraceWriter> json;
  if (!opt.trace_path.empty()) json = std::make_unique<sim::JsonTraceWriter>(opt.trace_path);
  TeeSink tee;
  tee.a = json.get();
  tee.b = opt.extra_sink;
  if (tee.a != nullptr || tee.b != nullptr) sim.trace().set_sink(&tee);
  sls::ProcessGroup group(sim, plat, bench::member_pool(plat));
  for (unsigned i = 0; i < opt.processes; ++i) {
    // Equal pressure everywhere: each process gets its own WS-proportional
    // slice, so the only machine-wide contention is the swap path (and the
    // bus) — the axis under study.
    const u64 budget = std::max<u64>(2, bench::ws_pages(wls[i], page) * 100 / opt.oversub_pct);
    // Cold start: all buffer pages return through the timed fault path, and
    // the in-vpn-order eviction clusters each process's swap slots.
    bench::cold_start(bench::add_member(group, wls[i], plat, budget), wls[i]);
  }

  // The cold-start evictions are setup traffic: the ledger checks the run.
  const paging::MachineLedger before = paging::MachineLedger::of(group.pagers());
  group.start_all();
  MixResult r;
  const u64 events_before = sim.events_executed();
  const bench::HostWork work_before = bench::HostWork::of(sim, group.copied_pages());
  bench::WallTimer timer;
  r.cycles = group.run_to_completion();
  group.drain(bench::kDrainCycles);
  r.host_ms = timer.ms();
  r.events = sim.events_executed() - events_before;
  r.work = bench::HostWork::of(sim, group.copied_pages()) - work_before;

  for (unsigned i = 0; i < opt.processes; ++i)
    if (!wls[i].verify(group.process(i)))
      throw std::runtime_error("fig12: workload '" + wls[i].name + "' (p" + std::to_string(i) +
                               ") failed verification");
  const paging::MachineLedger run = paging::MachineLedger::of(group.pagers()) - before;
  paging::require_balanced(run.check(), "fig12");

  const auto stats = sim.stats().snapshot();
  const auto at = [&stats](const std::string& name) { return bench::stat_value(stats, name); };
  for (unsigned i = 0; i < opt.processes; ++i) {
    const std::string prefix = "p" + std::to_string(i) + ".";
    auto* pager = group.process(i).pager();
    r.faults += static_cast<u64>(at(prefix + "faults.faults"));
    r.swap_ins += pager->swap_ins();
    r.prefetches += pager->prefetches();
    r.prefetch_useful += pager->prefetch_useful();
    r.prefetch_late += pager->prefetch_late();
    r.prefetch_wasted += pager->prefetch_wasted();
    r.pager_fault_stall_max.emplace_back(prefix + "pager",
                                         at(prefix + "pager.fault_stall.max"));
    // The owner windows partition the device totals (checked above).
    r.device_reads += run.pagers[i].swap_reads;
    r.device_writes += run.pagers[i].swap_writes;
  }
  if (opt.device == DeviceMode::kPrivate) {
    // Mean of the per-pager queue-wait means, weighted by sample counts.
    double wait_sum = 0, wait_count = 0;
    for (unsigned i = 0; i < opt.processes; ++i) {
      const std::string h = "p" + std::to_string(i) + ".pager.swap.queue_wait";
      wait_sum += at(h + ".mean") * at(h + ".count");
      wait_count += at(h + ".count");
    }
    r.queue_wait_mean = wait_count > 0 ? wait_sum / wait_count : 0.0;
  } else {
    r.wb_promotions = group.shared_swap()->wb_promotions();
    r.queue_wait_mean = at("swap.queue_wait.mean");
  }
  if (opt.dump_summaries) {
    for (unsigned i = 0; i < opt.processes; ++i) {
      const std::string prefix = "p" + std::to_string(i);
      std::cout << "[" << prefix << " " << wls[i].name << "] ";
      sls::write_pager_summary(std::cout, sim.stats(), prefix + ".pager", prefix + ".faults");
    }
    sls::write_swap_summary(std::cout, sim.stats(),
                            opt.device == DeviceMode::kPrivate ? "p0.pager.swap" : "swap");
  }
  if (group.telemetry() != nullptr) {
    r.telemetry_columns = group.telemetry()->columns();
    r.telemetry_rows = group.telemetry()->rows();
    if (!opt.telemetry_csv.empty()) group.telemetry()->save_csv(opt.telemetry_csv);
  }
  if (json != nullptr) json->finish(sim.trace());
  if (sim.trace().enabled()) {
    r.trace_tracks = sim.trace().track_names();
    sim.trace().set_sink(nullptr);
  }
  return r;
}

MixResult run_mix(const MixOptions& opt) {
  sim::Simulator sim;
  return run_mix_on(sim, opt);
}

void determinism_gate() {
  // Single-member shared device must be bit-identical to a private device:
  // the shared path earns its keep only if it costs nothing when nothing is
  // shared. (tests/swap_sched_test.cpp pins this too; the bench re-checks
  // it on the real fig12 workload scale.)
  MixOptions priv;
  priv.processes = 1;
  priv.device = DeviceMode::kPrivate;
  priv.readahead = 2;
  MixOptions shared = priv;
  shared.device = DeviceMode::kSharedFifo;
  const MixResult a = run_mix(priv);
  const MixResult b = run_mix(shared);
  if (a.cycles != b.cycles || a.events != b.events || a.swap_ins != b.swap_ins ||
      a.prefetches != b.prefetches || a.device_reads != b.device_reads ||
      a.device_writes != b.device_writes)
    throw std::runtime_error("fig12: single-member shared device is NOT bit-identical to a "
                             "private device");
  std::cout << "[determinism] single-member shared == private: cycles=" << a.cycles
            << " events=" << a.events << " reads=" << a.device_reads << " (bit-identical)\n";
}

// --- --smoke: traced worked example with hard validation gates -------------

/// Bound on the smoke's operator-new calls per fault in its artifact. The
/// count covers the whole process: the determinism gate and both the
/// untraced and the traced run, while the artifact holds one run's faults,
/// so one more allocation per fault raises the ratio by more than 2. Set
/// from 78367 / 2942 = 26.6 (GCC 12 libstdc++) with 5% headroom for other
/// C++ runtimes.
constexpr double kSmokeMallocsPerFault = 28.0;

struct MemorySink final : sim::TraceSink {
  std::vector<sim::TraceEvent> events;  // names are literals; safe to retain
  void on_event(const sim::TraceContext&, const sim::TraceEvent& ev) override {
    events.push_back(ev);
  }
};

/// Walks the captured stream: every begin has exactly one matching end (per
/// (track, name, id) key, never nested, none left open); every "fault" span
/// equals its "evict" + "queue" + "io" sub-spans cycle for cycle; at least
/// one fault decomposed into all three; and per pager track the longest
/// fault span matches the fault_stall histogram's max.
void validate_spans(const std::vector<sim::TraceEvent>& events,
                    const std::vector<std::string>& tracks,
                    const std::vector<std::pair<std::string, double>>& stall_max) {
  using Kind = sim::TraceEvent::Kind;
  using Key = std::tuple<sim::TraceTrack, std::string, u64>;
  std::map<Key, Cycles> open;  // begin-ts of the currently open span
  struct Durations {
    Cycles fault = 0, evict = 0, queue = 0, io = 0;
    bool have_fault = false;
  };
  std::map<u64, Durations> by_id;
  std::map<sim::TraceTrack, Cycles> max_fault_span;
  u64 spans = 0;
  for (const auto& ev : events) {
    if (ev.kind != Kind::kBegin && ev.kind != Kind::kEnd) continue;
    const Key key{ev.track, ev.name, ev.id};
    if (ev.kind == Kind::kBegin) {
      if (!open.emplace(key, ev.ts).second)
        throw std::runtime_error("smoke: duplicate begin for span '" + std::string(ev.name) +
                                 "' id=" + std::to_string(ev.id));
      continue;
    }
    const auto it = open.find(key);
    if (it == open.end())
      throw std::runtime_error("smoke: end without begin for span '" + std::string(ev.name) +
                               "' id=" + std::to_string(ev.id));
    const Cycles dur = ev.ts - it->second;
    open.erase(it);
    ++spans;
    const std::string name = ev.name;
    auto& d = by_id[ev.id];
    if (name == "fault") {
      d.fault = dur;
      d.have_fault = true;
      auto& mx = max_fault_span[ev.track];
      mx = std::max(mx, dur);
    } else if (name == "evict") {
      d.evict += dur;
    } else if (name == "queue") {
      d.queue += dur;
    } else if (name == "io") {
      d.io += dur;
    }
  }
  if (!open.empty())
    throw std::runtime_error("smoke: " + std::to_string(open.size()) +
                             " spans still open at end of trace");
  u64 faults = 0, full = 0;
  for (const auto& [id, d] : by_id) {
    if (!d.have_fault) continue;  // writeback/prefetch ids have no fault span
    ++faults;
    if (d.fault != d.evict + d.queue + d.io)
      throw std::runtime_error(
          "smoke: fault span id=" + std::to_string(id) + " (" + std::to_string(d.fault) +
          " cycles) != evict " + std::to_string(d.evict) + " + queue " + std::to_string(d.queue) +
          " + io " + std::to_string(d.io));
    if (d.evict > 0 && d.queue > 0 && d.io > 0) ++full;
  }
  if (faults == 0) throw std::runtime_error("smoke: trace contains no fault spans");
  if (full == 0)
    throw std::runtime_error("smoke: no fault span decomposed into nonzero evict+queue+io");
  for (const auto& [pager, want] : stall_max) {
    Cycles got = 0;
    for (sim::TraceTrack t = 0; t < tracks.size(); ++t)
      if (tracks[t] == pager) {
        const auto it = max_fault_span.find(t);
        got = it == max_fault_span.end() ? 0 : it->second;
      }
    if (static_cast<double>(got) != want)
      throw std::runtime_error("smoke: max fault span on '" + pager + "' (" +
                               std::to_string(got) + ") != fault_stall.max (" +
                               std::to_string(want) + ")");
  }
  std::cout << "[smoke] spans balanced: " << spans << " spans, " << faults
            << " fault spans (" << full << " with nonzero evict+queue+io), "
            << "per-pager max matches fault_stall.max\n";
}

void validate_telemetry(const MixResult& r, u64 period) {
  if (r.telemetry_rows.empty()) throw std::runtime_error("smoke: telemetry produced no rows");
  for (std::size_t i = 1; i < r.telemetry_rows.size(); ++i)
    if (r.telemetry_rows[i].cycle - r.telemetry_rows[i - 1].cycle != period)
      throw std::runtime_error("smoke: telemetry cadence broken at row " + std::to_string(i));
  if (r.telemetry_rows.back().cycle < r.cycles)
    throw std::runtime_error("smoke: telemetry stops before the end of the run");
  double total_fault_rate = 0;
  for (std::size_t c = 0; c < r.telemetry_columns.size(); ++c)
    if (r.telemetry_columns[c].find("fault_rate") != std::string::npos)
      for (const auto& row : r.telemetry_rows) total_fault_rate += row.values.at(c);
  if (total_fault_rate <= 0)
    throw std::runtime_error("smoke: telemetry fault_rate columns never saw a fault");
  std::cout << "[smoke] telemetry: " << r.telemetry_rows.size() << " rows at period " << period
            << ", last row at cycle " << r.telemetry_rows.back().cycle << " >= makespan "
            << r.cycles << "\n";
}

void run_smoke(const bench::Cli& cli) {
  MixOptions base;  // the worked example: 4 processes, shared-priority, ra=4
  base.processes = 4;
  base.device = DeviceMode::kSharedPriority;
  base.readahead = 4;
  base.telemetry_period = cli.telemetry_period;

  const MixResult control = run_mix(base);

  MemorySink captured;
  MixOptions traced = base;
  traced.trace_path = cli.trace;
  traced.extra_sink = &captured;
  traced.telemetry_csv = cli.telemetry;
  const MixResult t = run_mix(traced);

  // Tracing is observation only: the traced run must be bit-identical.
  if (control.cycles != t.cycles || control.events != t.events ||
      control.faults != t.faults || control.swap_ins != t.swap_ins ||
      control.device_reads != t.device_reads || control.device_writes != t.device_writes)
    throw std::runtime_error("smoke: traced run is NOT bit-identical to the untraced run");
  std::cout << "[smoke] traced == untraced: cycles=" << t.cycles << " events=" << t.events
            << " faults=" << t.faults << " (bit-identical)\n";

  validate_spans(captured.events, t.trace_tracks, t.pager_fault_stall_max);
  validate_telemetry(t, cli.telemetry_period);
  if (!cli.trace.empty())
    std::cout << "[smoke] wrote " << cli.trace << " (" << captured.events.size()
              << " trace events)\n";
  if (!cli.telemetry.empty()) std::cout << "[smoke] wrote " << cli.telemetry << "\n";

  bench::EngineBenchReport engine;
  engine.add("fig12/4p_shared-priority_ra4", control.cycles, control.events, control.work,
             control.faults, control.host_ms);
  engine.write_json("BENCH_fig12_swap.json");
  alloc_counter::require_per_fault(engine.faults(), kSmokeMallocsPerFault);
}

void run_grid(const bench::Cli& cli) {
  bench::EngineBenchReport engine;
  std::ostringstream headline;

  // --- the grid: every 12a/12b operating point is one independent shard ---
  // Grid points share nothing (each builds its whole system on its own
  // Simulator), so they fan out across --shards workers; results land in
  // submission-order slots and the tables below read them back serially,
  // bit-identical for any worker count.
  struct GridPoint {
    std::string label;
    MixOptions opt;
  };
  std::vector<GridPoint> grid;
  for (unsigned procs : {2u, 4u, 8u})
    for (const auto mode :
         {DeviceMode::kPrivate, DeviceMode::kSharedFifo, DeviceMode::kSharedPriority}) {
      GridPoint g;
      g.label = "fig12/" + std::to_string(procs) + "p_" + device_mode_name(mode);
      g.opt.processes = procs;
      g.opt.device = mode;
      grid.push_back(std::move(g));
    }
  const std::size_t grid_b_start = grid.size();
  for (const auto mode : {DeviceMode::kSharedFifo, DeviceMode::kSharedPriority})
    for (unsigned ra : {0u, 2u, 4u, 8u}) {
      GridPoint g;
      g.label = "fig12/4p_" + std::string(device_mode_name(mode)) + "_ra" + std::to_string(ra);
      g.opt.processes = 4;
      g.opt.device = mode;
      g.opt.readahead = ra;
      grid.push_back(std::move(g));
    }

  std::vector<MixResult> results(grid.size());
  std::vector<sls::Shard> shard_list;
  shard_list.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    shard_list.push_back({grid[i].label, [&results, &grid, i](sim::Simulator& sim) {
                            results[i] = run_mix_on(sim, grid[i].opt);
                          }});
  bench::run_sharded(shard_list, cli.shards, std::to_string(grid.size()) + " grid points");

  // --- 12a: contention — process count x device mode, readahead off ------
  Table table_a({"processes", "device", "cycles", "faults", "swap reads", "queue wait",
                 "slowdown vs private"});
  Cycles fifo4 = 0, private4 = 0;
  {
    std::size_t gi = 0;
    for (unsigned procs : {2u, 4u, 8u}) {
      Cycles private_cycles = 0;
      for (const auto mode :
           {DeviceMode::kPrivate, DeviceMode::kSharedFifo, DeviceMode::kSharedPriority}) {
        const MixResult& r = results[gi];
        if (mode == DeviceMode::kPrivate) private_cycles = r.cycles;
        if (procs == 4 && mode == DeviceMode::kPrivate) private4 = r.cycles;
        if (procs == 4 && mode == DeviceMode::kSharedFifo) fifo4 = r.cycles;
        table_a.add_row({Table::num(static_cast<u64>(procs)), device_mode_name(mode),
                         Table::num(r.cycles), Table::num(r.faults), Table::num(r.device_reads),
                         Table::num(r.queue_wait_mean, 0),
                         Table::num(static_cast<double>(r.cycles) /
                                        static_cast<double>(private_cycles),
                                    2)});
        engine.add(grid[gi].label, r.cycles, r.events, r.work, r.faults, r.host_ms);
        ++gi;
      }
    }
  }
  table_a.print(std::cout,
                "Figure 12a: swap-device contention at 250% over-subscription "
                "(hash_join + pointer_chase + bfs, per-process budgets, readahead off)");
  if (fifo4 <= private4)
    throw std::runtime_error("fig12: contention regime missing — shared-fifo did not degrade "
                             "makespan vs private devices");

  // --- 12b: recovery — scheduling x readahead on the shared device -------
  Table table_b({"device", "readahead", "cycles", "prefetches", "useful", "late", "wasted",
                 "accuracy", "coverage", "recovered"});
  Cycles best_shared = fifo4;
  std::string best_shared_name = "shared-fifo ra=0";
  std::size_t gi = grid_b_start;
  for (const auto mode : {DeviceMode::kSharedFifo, DeviceMode::kSharedPriority}) {
    for (unsigned ra : {0u, 2u, 4u, 8u}) {
      const MixResult& r = results[gi];
      if (r.cycles < best_shared) {
        best_shared = r.cycles;
        best_shared_name = std::string(device_mode_name(mode)) + " ra=" + std::to_string(ra);
      }
      // Share of the contention penalty (shared-fifo/ra0 over private) won
      // back by this operating point.
      const double recovered =
          fifo4 > private4 ? static_cast<double>(static_cast<i64>(fifo4) - static_cast<i64>(r.cycles)) /
                                 static_cast<double>(fifo4 - private4)
                           : 0.0;
      table_b.add_row({device_mode_name(mode), Table::num(static_cast<u64>(ra)),
                       Table::num(r.cycles), Table::num(r.prefetches),
                       Table::num(r.prefetch_useful), Table::num(r.prefetch_late),
                       Table::num(r.prefetch_wasted), Table::num(r.accuracy(), 2),
                       Table::num(r.coverage(), 2), Table::num(recovered, 2)});
      engine.add(grid[gi].label, r.cycles, r.events, r.work, r.faults, r.host_ms);
      if (mode == DeviceMode::kSharedPriority && ra == 4 && r.prefetches == 0)
        throw std::runtime_error("fig12: readahead issued no prefetches at depth 4");
      ++gi;
    }
  }
  table_b.print(std::cout,
                "Figure 12b: scheduling x readahead on the shared device (4 processes, 250%)");
  if (best_shared >= fifo4)
    throw std::runtime_error("fig12: recovery regime missing — scheduled readahead did not "
                             "improve on the unscheduled shared-fifo baseline");

  const double recovered_share =
      static_cast<double>(fifo4 - best_shared) / static_cast<double>(fifo4 - private4);
  headline << "fig12 headline: 4 processes at 250% over-subscription\n"
           << "  private devices        " << private4 << " cycles\n"
           << "  shared device (fifo)   " << fifo4 << " cycles  ("
           << static_cast<double>(fifo4) / static_cast<double>(private4) << "x contention)\n"
           << "  best shared config     " << best_shared << " cycles  (" << best_shared_name
           << ": clustered readahead recovers " << static_cast<int>(recovered_share * 100.0)
           << "% of the contention penalty; priority dispatch tracks FIFO on makespan while "
              "bounding fault-path waits";
  if (best_shared < private4)
    headline << " — clustering amortizes the per-op access latency so the shared device "
                "beats even the readahead-less private baseline";
  headline << ")\n";
  std::cout << headline.str();

  // One worked example with summaries on stdout + the artifact file.
  MixOptions worked;
  worked.processes = 4;
  worked.device = DeviceMode::kSharedPriority;
  worked.readahead = 4;
  worked.dump_summaries = true;
  const MixResult r = run_mix(worked);
  std::cout << "[4p shared-priority ra=4] cycles=" << r.cycles << " swap_ins=" << r.swap_ins
            << " prefetches=" << r.prefetches << " accuracy=" << r.accuracy()
            << " coverage=" << r.coverage() << " wb_promotions=" << r.wb_promotions << "\n";

  std::ostringstream tail;
  tail << "[4p shared-priority ra=4] swap_ins=" << r.swap_ins << " prefetches=" << r.prefetches
       << " useful=" << r.prefetch_useful << " late=" << r.prefetch_late
       << " wasted=" << r.prefetch_wasted << " accuracy=" << r.accuracy()
       << " coverage=" << r.coverage() << " queue_wait_mean=" << r.queue_wait_mean << "\n";
  bench::write_artifacts(engine, "fig12_swap", headline.str(), nullptr, "", tail.str());
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, "fig12", bench::kSmoke | bench::kShards | bench::kTracing,
                         [](const bench::Cli& cli) {
                           determinism_gate();
                           if (cli.smoke) run_smoke(cli);
                           else run_grid(cli);
                         });
}
