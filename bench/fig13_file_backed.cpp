// Figure 13 — File-backed working sets vs anonymous memory + swap.
//
// Two processes run the same pointer_chase traversal over the same input
// data (the shared-library / shared-data-file scenario) under a residency
// sweep, and the experiment varies only where the cold pages come from:
//
//   anon — the buffers are anonymous: the cold-start eviction gives every
//          page a swap slot, and each refault pays a demand swap-in on the
//          process's private swap device (the pre-PR-8 model),
//   file — the buffers are MAP_SHARED mmaps of one machine-wide
//          BackingFile: refaults lazy-load through the group's shared
//          BufferCache (hits complete in zero device time; misses pay one
//          file-device read, merged across processes), and clean evictions
//          drop for free instead of keeping a swap slot warm.
//
// Both modes cold-start (buffers evicted after setup) and run at equal
// per-process frame budgets, so the only difference is the page lifecycle —
// exactly the tentpole claim: a read-mostly file-backed working set beats
// anon+swap at equal residency because refaults hit the shared cache and
// evictions are clean drops.
//
// Gates (hard errors): every run drains its event queue (including the
// buffer cache's background flush writes); the run phase balances the
// paging ledger (mem/paging/ledger.hpp) and keeps its lifecycle (anon never
// touches the file tier, file never touches swap); workloads verify in
// every cell; and one grid point rerun on a fresh simulator is
// bit-identical down to the full stat snapshot (the determinism contract).
//
// Artifacts: BENCH_fig13_file.json (engine-report schema) and
// fig13_file_summary.txt (headline + write_file_cache_summary /
// write_pager_summary dumps).
//
// --smoke mode (CI's Release run): the 100% and 50% residency pairs plus
// every gate above including bit-identity; writes the same artifacts, and
// its BENCH JSON must match bench/golden/smoke/fig13_file_backed.json.

#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mem/backing_file.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/ledger.hpp"
#include "sls/process_group.hpp"
#include "sls/report_writer.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {

enum class MemMode { kAnon, kFile };

const char* mode_name(MemMode m) { return m == MemMode::kAnon ? "anon" : "file"; }

struct PointOptions {
  unsigned residency_pct = 100;  // per-process frame budget as % of its WS
  MemMode mode = MemMode::kAnon;
  bool dump_summaries = false;
};

struct PointResult {
  Cycles cycles = 0;  // makespan: start_all -> last thread halted
  u64 events = 0;
  bench::HostWork work;
  double host_ms = 0;
  u64 faults = 0;
  u64 swap_ins = 0;
  u64 file_reads = 0;
  u64 file_drops = 0;
  u64 bc_hits = 0;
  u64 bc_misses = 0;
  u64 bc_merged = 0;
  std::map<std::string, double> snapshot;  // full registry, for bit-identity

  double hit_rate() const {
    const u64 lookups = bc_hits + bc_misses;
    return lookups > 0 ? static_cast<double>(bc_hits) / static_cast<double>(lookups) : 0.0;
  }
};

constexpr unsigned kProcs = 2;

PointResult run_point(const PointOptions& opt) {
  const u64 page = 4 * KiB;
  sim::Simulator sim;

  workloads::WorkloadParams params;
  params.n = 4096;  // 32 pages of 32 B nodes, random-permutation visit order
  params.seed = 42;

  sls::PlatformSpec plat = sls::zynq7045();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = 7;
  plat.pager.swap.shared = false;  // swap stays private: the file tier is the shared axis
  plat.pager.swap.readahead = 0;

  sls::ProcessGroup group(sim, plat, bench::member_pool(plat));
  std::vector<workloads::Workload> wls;
  mem::BackingFile* file = nullptr;
  for (unsigned i = 0; i < kProcs; ++i) {
    // Identical workloads (same seed): both processes traverse the same
    // chain, and identical images give the buffer identical virtual
    // addresses in both address spaces — which is what makes the absolute
    // next-pointers in the one shared file valid in every mapping.
    wls.push_back(workloads::make_pointer_chase(params));
    const u64 ws = ceil_div(wls[i].footprint_hint_bytes, page);
    const u64 budget = std::max<u64>(2, ws * opt.residency_pct / 100);
    auto& sys = bench::add_member(group, wls[i], plat, budget, /*pinned_buffers=*/false);
    if (opt.mode == MemMode::kFile) {
      const auto& buf = wls[i].buffers.at(0);
      if (file == nullptr) file = &group.files().create("chain.dat", buf.bytes);
      // MAP_SHARED before setup: the setup writes land in file-backed pages,
      // and the cold-start eviction below writes them back to the file (the
      // one-time "write the input file out" cost) instead of swap.
      sys.address_space().bind_file(sys.buffer(buf.name), buf.bytes, *file, 0,
                                    /*shared=*/true);
    }
    // Cold start: every page returns through the timed fault path — swap-in
    // reads (anon) or buffer-cache reads (file).
    bench::cold_start(sys, wls[i]);
  }
  // Settle the setup phase: in file mode the cold-start evictions queued
  // background writebacks through the buffer cache; drain them so the
  // measured run starts from a quiet device and the run-phase ledger leaves
  // the setup traffic out.
  group.drain(bench::kDrainCycles);
  const paging::MachineLedger before = paging::MachineLedger::of(group.pagers());
  const u64 merged_before = group.buffer_cache().merged_reads();

  group.start_all();
  PointResult r;
  const u64 events_before = sim.events_executed();
  const bench::HostWork work_before = bench::HostWork::of(sim, group.copied_pages());
  bench::WallTimer timer;
  r.cycles = group.run_to_completion();
  group.drain(bench::kDrainCycles);
  if (group.buffer_cache().busy())
    throw std::runtime_error("fig13: buffer cache still busy after the event queue drained");
  r.host_ms = timer.ms();
  r.events = sim.events_executed() - events_before;
  r.work = bench::HostWork::of(sim, group.copied_pages()) - work_before;

  for (unsigned i = 0; i < kProcs; ++i)
    if (!wls[i].verify(group.process(i)))
      throw std::runtime_error("fig13: pointer_chase p" + std::to_string(i) +
                               " failed verification");

  const paging::MachineLedger run = paging::MachineLedger::of(group.pagers()) - before;
  paging::require_balanced(run.check(), "fig13");
  for (unsigned i = 0; i < kProcs; ++i) {
    const paging::Ledger& l = run.pagers[i];
    r.faults += static_cast<u64>(
        sim.stats().counter_value("p" + std::to_string(i) + ".faults.faults"));
    r.swap_ins += l.swap_ins;
    r.file_reads += l.file_reads;
    r.file_drops += l.file_drops;
    r.bc_hits += l.client_hits;  // the client windows partition the cache
    r.bc_misses += l.client_misses;
    // The lifecycles never cross: anon refaults never touch the file tier,
    // file refaults never touch swap.
    const bool crossed = opt.mode == MemMode::kAnon
                             ? l.file_reads + l.file_drops + l.file_writebacks != 0
                             : l.swap_reads + l.swap_writes + l.swap_ins != 0;
    if (crossed)
      throw std::runtime_error(std::string("fig13: ") + mode_name(opt.mode) +
                               " run crossed into the other tier for p" + std::to_string(i));
  }
  r.bc_merged = group.buffer_cache().merged_reads() - merged_before;

  if (opt.dump_summaries) {
    for (unsigned i = 0; i < kProcs; ++i) {
      const std::string prefix = "p" + std::to_string(i);
      std::cout << "[" << prefix << "] ";
      sls::write_pager_summary(std::cout, sim.stats(), prefix + ".pager", prefix + ".faults");
    }
    sls::write_file_cache_summary(std::cout, sim.stats(), "bcache");
  }
  r.snapshot = sim.stats().snapshot();
  return r;
}

void determinism_gate() {
  // Same grid point, fresh simulator: cycles, events, and the entire stat
  // registry must match bit for bit — the repo-wide contract, re-checked on
  // the real file-backed fault path (cache hits, merges, flush daemon).
  PointOptions opt;
  opt.residency_pct = 50;
  opt.mode = MemMode::kFile;
  const PointResult a = run_point(opt);
  const PointResult b = run_point(opt);
  if (a.cycles != b.cycles || a.events != b.events || a.snapshot != b.snapshot)
    throw std::runtime_error("fig13: file-backed run is NOT bit-identical across reruns");
  std::cout << "[determinism] file@50% rerun: cycles=" << a.cycles << " events=" << a.events
            << " stats=" << a.snapshot.size() << " entries (bit-identical)\n";
}

struct Cell {
  PointResult anon;
  PointResult file;
};

Cell run_pair(unsigned residency_pct) {
  PointOptions a;
  a.residency_pct = residency_pct;
  a.mode = MemMode::kAnon;
  PointOptions f = a;
  f.mode = MemMode::kFile;
  Cell c;
  c.anon = run_point(a);
  c.file = run_point(f);
  // The headline gate: with refaults in play (residency < 100%) the file
  // lifecycle must win outright; at full residency it must at least not
  // lose (its cold start reads the warm cache instead of the swap device).
  if (residency_pct < 100 && c.file.cycles >= c.anon.cycles)
    throw std::runtime_error("fig13: file-backed did not beat anon+swap at " +
                             std::to_string(residency_pct) + "% residency");
  if (residency_pct >= 100 && c.file.cycles > c.anon.cycles)
    throw std::runtime_error("fig13: file-backed lost to anon+swap at full residency");
  return c;
}

void add_rows(Table& table, bench::EngineBenchReport& engine, unsigned pct, const Cell& c) {
  for (const PointResult* r : {&c.anon, &c.file}) {
    const bool is_file = r == &c.file;
    const std::string label =
        "fig13/" + std::to_string(pct) + "pct_" + (is_file ? "file" : "anon");
    table.add_row({Table::num(static_cast<u64>(pct)), is_file ? "file" : "anon",
                   Table::num(r->cycles), Table::num(r->faults), Table::num(r->swap_ins),
                   Table::num(r->file_reads), Table::num(r->bc_hits), Table::num(r->bc_misses),
                   Table::num(r->hit_rate(), 2), Table::num(r->file_drops),
                   Table::num(static_cast<double>(c.anon.cycles) /
                                  static_cast<double>(r->cycles),
                              2)});
    engine.add(label, r->cycles, r->events, r->work, r->faults, r->host_ms);
  }
}

void run_grid(const bench::Cli& cli) {
  determinism_gate();

  bench::EngineBenchReport engine;
  Table table({"residency %", "mode", "cycles", "faults", "swap ins", "file reads", "bc hits",
               "bc misses", "hit rate", "clean drops", "speedup vs anon"});
  std::vector<unsigned> sweep = cli.smoke ? std::vector<unsigned>{100, 50}
                                          : std::vector<unsigned>{100, 70, 50, 35};
  std::map<unsigned, Cell> cells;
  for (unsigned pct : sweep) cells[pct] = run_pair(pct);
  for (unsigned pct : sweep) add_rows(table, engine, pct, cells.at(pct));
  table.print(std::cout,
              "Figure 13: file-backed mmap vs anonymous memory + swap "
              "(2 processes sharing one input file, pointer_chase, cold start)");

  const unsigned low = sweep.back();
  const Cell& tight = cells.at(low);
  std::ostringstream headline;
  headline << "fig13 headline: 2 processes, shared read-mostly input, " << low << "% residency\n"
           << "  anon + swap        " << tight.anon.cycles << " cycles  (" << tight.anon.swap_ins
           << " swap-ins)\n"
           << "  file + bcache      " << tight.file.cycles << " cycles  ("
           << tight.file.file_reads << " file reads, "
           << static_cast<int>(tight.file.hit_rate() * 100.0) << "% cache hits, "
           << tight.file.file_drops << " clean drops, " << tight.file.bc_merged
           << " cross-process merges)\n"
           << "  speedup            "
           << static_cast<double>(tight.anon.cycles) / static_cast<double>(tight.file.cycles)
           << "x — refaults hit the shared cache instead of the swap device, and clean\n"
           << "  file pages drop for free at eviction instead of holding swap slots\n";
  std::cout << headline.str();

  // One worked example with summaries on stdout + the artifact files.
  PointOptions worked;
  worked.residency_pct = low;
  worked.mode = MemMode::kFile;
  worked.dump_summaries = true;
  run_point(worked);

  bench::write_artifacts(engine, "fig13_file", headline.str(), &table, "Figure 13");
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, "fig13", bench::kSmoke, run_grid);
}
