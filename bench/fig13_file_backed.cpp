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
// buffer cache's background flush writes); per-owner ledgers partition all
// fault traffic by lifecycle (anon: owner swap reads == swap-ins and zero
// file-tier traffic; file: zero swap traffic, pager file_reads == its
// buffer-cache client hits + misses, client counters partition the cache
// totals, cache misses == device reads + merged reads, and run-phase
// evictions == clean drops + file writebacks); workloads verify in every
// cell; and one grid point rerun on a fresh simulator is bit-identical down
// to the full stat snapshot (the determinism contract).
//
// Artifacts: BENCH_fig13_file.json (engine-report schema) and
// fig13_file_summary.txt (headline + write_file_cache_summary /
// write_pager_summary dumps).
//
// --smoke mode (CI's Release run): the 100% and 50% residency pairs plus
// every gate above including bit-identity; writes the same artifacts.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mem/backing_file.hpp"
#include "mem/paging/frame_pool.hpp"
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
  double host_ms = 0;
  u64 faults = 0;
  u64 swap_ins = 0;
  u64 file_reads = 0;
  u64 file_drops = 0;
  u64 file_writebacks = 0;
  u64 bc_hits = 0;
  u64 bc_misses = 0;
  u64 bc_merged = 0;
  u64 bc_device_reads = 0;
  u64 bc_device_writes = 0;
  std::map<std::string, double> snapshot;  // full registry, for bit-identity

  double hit_rate() const {
    const u64 lookups = bc_hits + bc_misses;
    return lookups > 0 ? static_cast<double>(bc_hits) / static_cast<double>(lookups) : 0.0;
  }
};

constexpr unsigned kProcs = 2;

/// Per-pager counter snapshot for delta-based ledgers: the setup phase
/// (writing the input + the cold-start eviction) produces its own file
/// writebacks, so the run-phase ledgers compare against this baseline.
struct LedgerSnap {
  u64 swap_reads = 0, swap_writes = 0, swap_ins = 0;
  u64 file_reads = 0, file_drops = 0, file_writebacks = 0, shared_releases = 0;
  u64 evictions = 0, client_hits = 0, client_misses = 0;
};

LedgerSnap snap_pager(paging::Pager& pager) {
  LedgerSnap s;
  s.swap_reads = pager.swap().reads();
  s.swap_writes = pager.swap().writes();
  s.swap_ins = pager.swap_ins();
  s.file_reads = pager.file_reads();
  s.file_drops = pager.file_drops();
  s.file_writebacks = pager.file_writebacks();
  s.shared_releases = pager.shared_releases();
  s.evictions = pager.evictions();
  s.client_hits = pager.buffer_cache().client_hits(pager.bcache_client());
  s.client_misses = pager.buffer_cache().client_misses(pager.bcache_client());
  return s;
}

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

  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  pool_cfg.policy = plat.pager.policy;
  pool_cfg.policy_seed = 7;

  sls::ProcessGroup group(sim, plat, pool_cfg);
  std::vector<workloads::Workload> wls;
  mem::BackingFile* file = nullptr;
  for (unsigned i = 0; i < kProcs; ++i) {
    // Identical workloads (same seed): both processes traverse the same
    // chain, and identical images give the buffer identical virtual
    // addresses in both address spaces — which is what makes the absolute
    // next-pointers in the one shared file valid in every mapping.
    wls.push_back(workloads::make_pointer_chase(params));
    const u64 ws = ceil_div(wls[i].footprint_hint_bytes, page);
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = std::max<u64>(2, ws * opt.residency_pct / 100);
    sls::SynthesisFlow flow(proc_plat);
    auto app = workloads::single_thread_app(wls[i], sls::ThreadKind::kHardware,
                                            sls::Addressing::kVirtual,
                                            /*pinned_buffers=*/false);
    auto& sys = group.add_process(flow.synthesize(app), "p" + std::to_string(i));
    if (opt.mode == MemMode::kFile) {
      const auto& buf = wls[i].buffers.at(0);
      if (file == nullptr) file = &group.files().create("chain.dat", buf.bytes);
      // MAP_SHARED before setup: the setup writes land in file-backed pages,
      // and the cold-start eviction below writes them back to the file (the
      // one-time "write the input file out" cost) instead of swap.
      sys.address_space().bind_file(sys.buffer(buf.name), buf.bytes, *file, 0,
                                    /*shared=*/true);
    }
    wls[i].setup(sys);
    // Cold start: every page returns through the timed fault path — swap-in
    // reads (anon) or buffer-cache reads (file).
    bench::evict_all_buffers(sys);
  }
  // Settle the setup phase: in file mode the cold-start evictions queued
  // background writebacks through the buffer cache; drain them so the
  // measured run starts from a quiet device.
  while (sim.step()) {
  }

  std::vector<LedgerSnap> before;
  for (unsigned i = 0; i < kProcs; ++i) before.push_back(snap_pager(*group.process(i).pager()));
  paging::BufferCache& bc = group.buffer_cache();
  const u64 bc_hits0 = bc.hits(), bc_misses0 = bc.misses(), bc_merged0 = bc.merged_reads();
  const u64 bc_reads0 = bc.device_reads(), bc_writes0 = bc.device_writes();

  group.start_all();
  PointResult r;
  const u64 events_before = sim.events_executed();
  bench::WallTimer timer;
  r.cycles = group.run_to_completion();
  // Drained-queue gate: pending buffer-cache flushes and swap requests must
  // retire once the threads halt — a stuck request chain is a bug.
  const Cycles drain_deadline = sim.now() + 1'000'000'000ull;
  while (sim.step())
    if (sim.now() > drain_deadline)
      throw std::runtime_error("fig13: event queue failed to drain after completion");
  if (bc.busy())
    throw std::runtime_error("fig13: buffer cache still busy after the event queue drained");
  r.host_ms = timer.ms();
  r.events = sim.events_executed() - events_before;

  for (unsigned i = 0; i < kProcs; ++i)
    if (!wls[i].verify(group.process(i)))
      throw std::runtime_error("fig13: pointer_chase p" + std::to_string(i) +
                               " failed verification");

  r.bc_hits = bc.hits() - bc_hits0;
  r.bc_misses = bc.misses() - bc_misses0;
  r.bc_merged = bc.merged_reads() - bc_merged0;
  r.bc_device_reads = bc.device_reads() - bc_reads0;
  r.bc_device_writes = bc.device_writes() - bc_writes0;

  // --- per-owner lifecycle ledgers (run-phase deltas) ---
  u64 client_hits_total = 0, client_misses_total = 0;
  for (unsigned i = 0; i < kProcs; ++i) {
    const std::string prefix = "p" + std::to_string(i) + ".";
    paging::Pager& pager = *group.process(i).pager();
    const LedgerSnap now = snap_pager(pager);
    const LedgerSnap& b = before[i];
    r.faults += static_cast<u64>(sim.stats().counter_value(prefix + "faults.faults"));
    r.swap_ins += now.swap_ins - b.swap_ins;
    r.file_reads += now.file_reads - b.file_reads;
    r.file_drops += now.file_drops - b.file_drops;
    r.file_writebacks += now.file_writebacks - b.file_writebacks;
    client_hits_total += now.client_hits - b.client_hits;
    client_misses_total += now.client_misses - b.client_misses;
    if (opt.mode == MemMode::kAnon) {
      // Anon lifecycle: all refaults are swap-ins on the owner's device and
      // the file tier is never touched.
      if (now.swap_reads - b.swap_reads != now.swap_ins - b.swap_ins)
        throw std::runtime_error("fig13: anon swap read ledger unbalanced for p" +
                                 std::to_string(i));
      if (now.file_reads != b.file_reads || now.file_drops != b.file_drops ||
          now.file_writebacks != b.file_writebacks)
        throw std::runtime_error("fig13: anon run touched the file tier for p" +
                                 std::to_string(i));
    } else {
      // File lifecycle: no swap traffic at all, every refault is a file
      // read attributed to this client, and every pager-driven eviction is
      // a clean drop, a cache writeback, or the release of a mapping another
      // process still shares — nothing else can happen to a file page.
      if (now.swap_reads != b.swap_reads || now.swap_writes != b.swap_writes ||
          now.swap_ins != b.swap_ins)
        throw std::runtime_error("fig13: file run touched the swap tier for p" +
                                 std::to_string(i));
      if (now.file_reads - b.file_reads !=
          (now.client_hits - b.client_hits) + (now.client_misses - b.client_misses))
        throw std::runtime_error("fig13: pager file_reads != its cache client hits+misses for p" +
                                 std::to_string(i));
      if (now.evictions - b.evictions !=
          (now.file_drops - b.file_drops) + (now.file_writebacks - b.file_writebacks) +
              (now.shared_releases - b.shared_releases))
        throw std::runtime_error("fig13: eviction ledger unbalanced for p" + std::to_string(i));
    }
  }
  if (opt.mode == MemMode::kFile) {
    // The per-client windows must partition the machine-wide cache totals,
    // and every miss must be accounted as one device read or one merge.
    if (client_hits_total != r.bc_hits || client_misses_total != r.bc_misses)
      throw std::runtime_error("fig13: client counters do not partition the cache totals");
    if (r.bc_misses != r.bc_device_reads + r.bc_merged)
      throw std::runtime_error("fig13: cache misses != device reads + merged reads");
  }

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
    engine.add(label, r->cycles, r->events, r->host_ms);
  }
}

int run_grid(bool smoke) {
  determinism_gate();

  bench::EngineBenchReport engine;
  Table table({"residency %", "mode", "cycles", "faults", "swap ins", "file reads", "bc hits",
               "bc misses", "hit rate", "clean drops", "speedup vs anon"});
  std::vector<unsigned> sweep = smoke ? std::vector<unsigned>{100, 50}
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

  engine.write_json("BENCH_fig13_file.json");
  {
    std::ofstream summary("fig13_file_summary.txt");
    summary << headline.str();
    std::ostringstream table_txt;
    table.print(table_txt, "Figure 13");
    summary << table_txt.str();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else {
      std::cerr << "usage: bench_fig13_file_backed [--smoke]\n";
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  try {
    return run_grid(smoke);
  } catch (const std::exception& e) {
    std::cerr << "fig13 FAILED: " << e.what() << "\n";
    return 1;
  }
}
