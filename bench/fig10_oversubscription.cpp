// Figure 10 — Multi-process over-subscription on a shared frame pool.
//
// Several processes — a hash_join, a pointer_chase, and a bfs, cycled to
// fill the process count — run cold-start on one machine: one physical
// memory, one DRAM + bus, one set of OS service cores, and one FramePool
// arbiter. The aggregate working set exceeds the frame budget by the
// over-subscription ratio (150% = mild pressure, 400% = thrash), and the
// experiment compares the two budget regimes:
//
//   global       — one machine-wide budget; the global CLOCK/aging sweep
//                  may evict another process's page (cross-process
//                  pressure, like a real kernel's global page cache), or
//   per-process  — each process gets a proportional slice of the budget
//                  and only ever evicts its own pages (strict isolation).
//
// Three tables:
//   1. policy × budget mode × over-subscription ratio (4 processes),
//   2. process-count scaling at 250% (2 / 4 / 8 processes),
//   3. background-service ablation: working-set auto-budgets and the
//      proactive pageout daemon on top of the per-process baseline.
//
// Deterministic: workload data, attach order, policy seeds, and event
// order are all fixed — rerunning produces identical tables (pinned by
// tests/oversub_test.cpp).
//
// --smoke runs only the worked example (4 processes, 400%, global, CLOCK)
// and writes BENCH_fig10_oversub.json: its simulated cycles, events and
// faults and its queued-event count, which the smoke test diffs against a
// committed golden.

#include <iostream>

#include "bench_util.hpp"
#include "mem/paging/frame_pool.hpp"
#include "sls/process_group.hpp"
#include "sls/report_writer.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {

struct MixResult {
  Cycles cycles = 0;       // makespan: start_all -> last thread halted
  u64 events = 0;          // scheduler events executed over the makespan
  bench::HostWork work;    // host work over the makespan
  u64 faults = 0;          // aggregate across processes
  u64 swap_ins = 0;
  u64 pool_evictions = 0;  // global mode only
  u64 cross_evictions = 0;
  u64 pager_evictions = 0;  // per-process pagers, summed
  u64 writebacks = 0;
  u64 pageouts = 0;
  u64 rebalances = 0;
  u64 peak_resident = 0;
  u64 budget = 0;
};

struct MixOptions {
  unsigned processes = 4;
  unsigned oversub_pct = 250;  // aggregate WS as % of the frame budget
  paging::BudgetMode mode = paging::BudgetMode::kGlobal;
  paging::PolicyKind policy = paging::PolicyKind::kClock;
  /// Per-process mode: split the machine budget evenly instead of
  /// proportionally to each working set (the starting point the WS
  /// auto-budget service is supposed to correct).
  bool equal_split = false;
  bool auto_budget = false;
  Cycles ws_interval = 0;
  Cycles pageout_interval = 0;
  /// Print per-process pager summaries + the pool summary after the run.
  bool dump_summaries = false;
};

MixResult run_mix(const MixOptions& opt) {
  const u64 page = 4 * KiB;
  std::vector<workloads::Workload> wls;
  u64 total_ws = 0;
  for (unsigned i = 0; i < opt.processes; ++i) {
    wls.push_back(bench::make_mix_member(i));
    total_ws += bench::ws_pages(wls.back(), page);
  }
  const u64 total_budget = std::max<u64>(2 * opt.processes, total_ws * 100 / opt.oversub_pct);

  sls::PlatformSpec plat = sls::zynq7045();  // large part: room for 8 processes
  plat.pager.budget_mode = opt.mode;
  plat.pager.policy = opt.policy;
  plat.pager.policy_seed = 7;
  plat.pager.ws_interval = opt.ws_interval;
  plat.pager.ws_window = 4 * opt.ws_interval;  // smooth over several sweeps
  plat.pager.pageout_interval = opt.pageout_interval;
  paging::FramePoolConfig pool_cfg = bench::member_pool(plat);
  pool_cfg.total_frames = total_budget;
  pool_cfg.auto_budget = opt.auto_budget;

  sim::Simulator sim;
  sls::ProcessGroup group(sim, plat, pool_cfg);
  for (unsigned i = 0; i < opt.processes; ++i) {
    const u64 budget =
        (opt.mode == paging::BudgetMode::kPerProcess)
            ? std::max<u64>(2, opt.equal_split
                                   ? total_budget / opt.processes
                                   : bench::ws_pages(wls[i], page) * 100 / opt.oversub_pct)
            : 0;
    // Cold start: all buffer pages return through the timed fault path.
    bench::cold_start(bench::add_member(group, wls[i], plat, budget), wls[i]);
  }
  group.pool().reset_peak_residency();

  group.start_all();
  MixResult r;
  const u64 events_before = sim.events_executed();
  const bench::HostWork work_before = bench::HostWork::of(sim, group.copied_pages());
  r.cycles = group.run_to_completion();
  r.events = sim.events_executed() - events_before;
  r.work = bench::HostWork::of(sim, group.copied_pages()) - work_before;
  // Peak residency before verification: verify's functional reads re-map
  // evicted pages outside the budgeted fault path.
  r.peak_resident = group.pool().peak_resident_pages();
  for (unsigned i = 0; i < opt.processes; ++i)
    if (!wls[i].verify(group.process(i)))
      throw std::runtime_error("fig10: workload '" + wls[i].name + "' (p" + std::to_string(i) +
                               ") failed verification");

  const auto stats = sim.stats().snapshot();
  const auto at = [&stats](const std::string& name) { return bench::stat_value(stats, name); };
  for (unsigned i = 0; i < opt.processes; ++i) {
    const std::string prefix = "p" + std::to_string(i) + ".";
    r.faults += static_cast<u64>(at(prefix + "faults.faults"));
    r.swap_ins += static_cast<u64>(at(prefix + "pager.swap_ins"));
    r.pager_evictions += static_cast<u64>(at(prefix + "pager.evictions"));
    r.writebacks += static_cast<u64>(at(prefix + "pager.writebacks"));
    r.pageouts += static_cast<u64>(at(prefix + "pager.pageouts"));
  }
  r.pool_evictions = group.pool().evictions();
  r.cross_evictions = group.pool().cross_evictions();
  r.rebalances = group.pool().rebalances();
  r.budget = total_budget;
  if (opt.dump_summaries) {
    for (unsigned i = 0; i < opt.processes; ++i) {
      const std::string prefix = "p" + std::to_string(i);
      std::cout << "[" << prefix << " " << wls[i].name << "] ";
      sls::write_pager_summary(std::cout, sim.stats(), prefix + ".pager", prefix + ".faults");
    }
    sls::write_frame_pool_summary(std::cout, sim.stats());
  }
  return r;
}

void policy_table() {
  Table table({"oversub %", "mode", "policy", "cycles", "faults", "evictions", "cross",
               "swap ins", "slowdown"});
  Cycles baseline = 0;
  for (unsigned ratio : {150u, 250u, 400u}) {
    for (const auto mode : {paging::BudgetMode::kGlobal, paging::BudgetMode::kPerProcess}) {
      for (const auto policy :
           {paging::PolicyKind::kClock, paging::PolicyKind::kLruApprox, paging::PolicyKind::kFifo,
            paging::PolicyKind::kRandom}) {
        MixOptions opt;
        opt.processes = 4;
        opt.oversub_pct = ratio;
        opt.mode = mode;
        opt.policy = policy;
        const MixResult r = run_mix(opt);
        if (baseline == 0) baseline = r.cycles;  // first cell: mildest pressure
        const u64 evictions = mode == paging::BudgetMode::kGlobal ? r.pool_evictions
                                                                  : r.pager_evictions;
        table.add_row({Table::num(static_cast<u64>(ratio)), paging::budget_mode_name(mode),
                       paging::policy_name(policy), Table::num(r.cycles), Table::num(r.faults),
                       Table::num(evictions), Table::num(r.cross_evictions),
                       Table::num(r.swap_ins),
                       Table::num(static_cast<double>(r.cycles) / static_cast<double>(baseline),
                                  2)});
      }
    }
  }
  table.print(std::cout,
              "Figure 10a: policy x budget mode x over-subscription (4 processes: "
              "hash_join + pointer_chase + bfs + hash_join)");
}

void scaling_table() {
  Table table({"processes", "mode", "budget", "cycles", "faults", "cross", "peak resident"});
  for (unsigned procs : {2u, 4u, 8u}) {
    for (const auto mode : {paging::BudgetMode::kGlobal, paging::BudgetMode::kPerProcess}) {
      MixOptions opt;
      opt.processes = procs;
      opt.oversub_pct = 250;
      opt.mode = mode;
      const MixResult r = run_mix(opt);
      table.add_row({Table::num(static_cast<u64>(procs)), paging::budget_mode_name(mode),
                     Table::num(r.budget), Table::num(r.cycles), Table::num(r.faults),
                     Table::num(r.cross_evictions), Table::num(r.peak_resident)});
    }
  }
  table.print(std::cout, "Figure 10b: process-count scaling at 250% over-subscription (clock)");
}

void services_table() {
  Table table({"services", "cycles", "writebacks", "pageouts", "rebalances", "faults"});
  struct Variant {
    const char* name;
    bool equal_split;
    bool auto_budget;
    Cycles ws_interval;
    Cycles pageout_interval;
  };
  const Variant variants[] = {
      {"static split by true WS", false, false, 0, 0},
      {"static equal split", true, false, 0, 0},
      {"equal + ws auto-budget (PFF)", true, true, 50000, 0},
      {"equal + ws auto-budget + pageout", true, true, 50000, 10000},
  };
  for (const auto& v : variants) {
    MixOptions opt;
    opt.processes = 4;
    opt.oversub_pct = 250;
    opt.mode = paging::BudgetMode::kPerProcess;
    opt.equal_split = v.equal_split;
    opt.auto_budget = v.auto_budget;
    opt.ws_interval = v.ws_interval;
    opt.pageout_interval = v.pageout_interval;
    const MixResult r = run_mix(opt);
    table.add_row({v.name, Table::num(r.cycles), Table::num(r.writebacks),
                   Table::num(r.pageouts), Table::num(r.rebalances), Table::num(r.faults)});
  }
  table.print(std::cout,
              "Figure 10c: background services on the per-process baseline (4 processes, 250%)");
}

/// One worked example with the live registry: the thrash corner.
MixResult worked_example() {
  MixOptions opt;
  opt.processes = 4;
  opt.oversub_pct = 400;
  opt.mode = paging::BudgetMode::kGlobal;
  opt.dump_summaries = true;
  const MixResult r = run_mix(opt);
  std::cout << "[4 processes, 400%, global, clock] cycles=" << r.cycles
            << " pool_evictions=" << r.pool_evictions
            << " cross_evictions=" << r.cross_evictions << " (budget " << r.budget
            << " pages, peak resident " << r.peak_resident << ")\n";
  return r;
}

void run_smoke() {
  bench::WallTimer timer;
  const MixResult r = worked_example();
  bench::EngineBenchReport engine;
  engine.add("fig10/4p_400_global_clock", r.cycles, r.events, r.work, r.faults, timer.ms());
  engine.write_json("BENCH_fig10_oversub.json");
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, "fig10", bench::kSmoke, [](const bench::Cli& cli) {
    if (cli.smoke) {
      run_smoke();
      return;
    }
    policy_table();
    scaling_table();
    services_table();
    worked_example();
  });
}
