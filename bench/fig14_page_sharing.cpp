// Figure 14 — Copy-on-write page sharing at scale.
//
// One parent process maps a MAP_SHARED "library" file plus private
// anonymous state, then forks N workers (N up to 1024). Every process is a
// pager-only member of one sls::ProcessGroup, the same machine the
// threaded benches run on. Fork maps every resident parent page into the
// child by reference: file pages stay writable against the one shared
// frame, anonymous pages are downgraded to read-only in both spaces and
// split on first write. Three phases, each a touch list per worker on
// sls::EpisodeDriver, drive the timed fault path:
//
//   cold fill  — one worker demand-faults the untouched half of the file
//                (buffer-cache misses: the only device reads in the run)
//                while the parent refaults its pre-fork-evicted pages
//                (demand swap-ins),
//   share sweep — every other worker sweeps the whole file: frames are
//                resident machine-wide, so each fault resolves through the
//                FrameShareIndex (share_hits) with no device trip and no
//                frame of its own; inherited-backing and zero-fill pages
//                ride along for bucket coverage,
//   divergence — every worker writes its private anonymous pages: each
//                first write is a COW fault that copies the shared frame
//                (cow_copies), paid as one page-sized write burst on the
//                group's bus; the parent then writes last, after every
//                child diverged, so its refcount-1 faults upgrade in place
//                (cow_upgrades).
//
// Gates (hard errors, every cell):
//   * the paging ledger (mem/paging/ledger.hpp) over the measured phases,
//     the driver's fault classification closing the read-side and COW
//     partitions; the machine ledger with refcounts after every drain;
//     without pressure every bucket is exactly predictable per worker,
//   * read-only sharing never copies — COW counters are zero before the
//     divergence phase,
//   * divergence — every worker reads back its own value, the parent its
//     own, and the shared file pages their seeded contents,
//   * dedup ratio >= 0.9 at 256+ workers,
//   * drained event queue, and the smallest cell rerun on a fresh
//     simulator is bit-identical down to the full stat snapshot — also
//     re-checked under ShardedRunner (serial == sharded, any worker
//     count).
//
// A pressure cell runs 16 workers against a pool budget far below the
// aggregate mapped set, so the global sweep nominates shared frames and
// the eviction fan-out (one shootdown per sharer, one bucket entry per
// unmap) carries the eviction-ledger gate.
//
// Artifacts: BENCH_fig14_sharing.json (engine-report schema plus
// dedup_ratio / share_fault_cycles / cow_fault_cycles metrics; the --smoke
// run's must match bench/golden/smoke/fig14_page_sharing.json exactly) and
// fig14_sharing_summary.txt.
//
// --smoke mode (CI's Release run): drops the 1024-worker cell, keeps every
// gate including bit-identity and the sharded rerun.

#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mem/backing_file.hpp"
#include "mem/paging/ledger.hpp"
#include "sls/episode.hpp"
#include "sls/process_group.hpp"
#include "util/table.hpp"

using namespace vmsls;

namespace {

constexpr u64 kPage = 4 * KiB;
/// Chain-launch stagger between workers: enough to interleave the chains
/// without serializing the phases.
constexpr Cycles kStagger = 17;

struct PointOptions {
  u64 workers = 256;     // forked children (processes = workers + 1)
  u64 file_pages = 64;   // MAP_SHARED library region
  u64 anon_pages = 2;    // private COW pages per process
  u64 evict_pages = 2;   // parent-evicted pre-fork: inherited-backing bucket
  u64 zero_pages = 1;    // never touched pre-fork: zero-fill bucket
  u64 pool_budget = 0;   // 0 = unlimited; nonzero forces the eviction fan-out
};

// Distinct value families so divergence failures name the culprit.
u64 file_word(u64 p) { return 0xF11E'0000'0000'0000ull + p * 1024; }
constexpr u64 kSentinel = 0x5EA1'ED5E'A1ED'5EA1ull;  // parent-dirtied file word
u64 parent_word(u64 p) { return 0xA11C'E000'0000'0000ull + p; }
u64 parent_final(u64 p) { return parent_word(p) ^ 0xFFFF; }
u64 evict_word(u64 p) { return 0xE71C'7000'0000'0000ull + p; }
u64 child_word(u64 w, u64 p) { return 0xC0DE'0000'0000'0000ull + (w << 8) + p; }

/// The machine: one ProcessGroup — one frame pool, swap part, buffer cache,
/// share index and DRAM + bus — and N+1 pager-only members contending for
/// all of them.
struct ShareRig {
  sls::ProcessGroup group;
  sls::EpisodeDriver episodes;  // member i is episode worker i

  ShareRig(sim::Simulator& sim, const PointOptions& opt)
      : group(sim, platform(), pool_cfg(opt)), episodes(sim) {}

  static sls::PlatformSpec platform() {
    sls::PlatformSpec p;
    p.dram.size_bytes = 128 * MiB;
    p.pager.budget_mode = paging::BudgetMode::kGlobal;  // the pool's budget is the only cap
    p.pager.policy = paging::PolicyKind::kClock;
    p.pager.swap = bench::fast_swap();
    p.pager.swap.shared = true;
    p.pager.bcache.read_latency = 200;
    p.pager.bcache.write_latency = 300;
    p.pager.bcache.bytes_per_cycle = 64;
    return p;
  }

  static paging::FramePoolConfig pool_cfg(const PointOptions& opt) {
    paging::FramePoolConfig cfg;
    cfg.mode = paging::BudgetMode::kGlobal;
    cfg.total_frames = opt.pool_budget;
    cfg.policy = paging::PolicyKind::kClock;
    cfg.policy_seed = 7;
    return cfg;
  }

  /// Binds `w` as the next episode worker (worker index == member index);
  /// a forked worker names its parent's index.
  sls::System& bind(sls::System& w, std::optional<std::size_t> parent = std::nullopt) {
    episodes.add_worker(w.address_space(), w.process(), *w.pager(), parent);
    return w;
  }

  mem::AddressSpace& as(std::size_t w) { return group.process(w).address_space(); }

  /// Starts worker `w` on `touches` after `delay`, one fault after another.
  void launch(std::size_t w, const std::vector<sls::EpisodeDriver::Touch>& touches,
              Cycles delay) {
    episodes.touches(w) = touches;
    episodes.start(w, delay);
  }

  u64 read_faults() const {
    u64 n = 0;
    for (std::size_t i = 0; i < group.size(); ++i) n += episodes.read_faults(i);
    return n;
  }
};

struct PointResult {
  u64 workers = 0;
  u64 mapped = 0;         // total page mappings at end of run
  u64 unique_frames = 0;  // frames backing them
  double dedup = 0;
  Cycles share_cycles = 0;  // share-sweep phase makespan
  u64 share_events = 0;
  bench::HostWork share_work;  // host work of the share phase
  u64 share_faults = 0;
  Cycles cow_cycles = 0;  // divergence phase makespan (children)
  u64 cow_events = 0;
  bench::HostWork cow_work;
  u64 cow_faults = 0;
  u64 evictions = 0;  // pool total (pressure cell only)
  double host_ms = 0;
  std::map<std::string, double> snapshot;  // full registry, for bit-identity

  double share_fault_cycles() const {
    return share_faults ? static_cast<double>(share_cycles) / static_cast<double>(share_faults)
                        : 0.0;
  }
  double cow_fault_cycles() const {
    return cow_faults ? static_cast<double>(cow_cycles) / static_cast<double>(cow_faults) : 0.0;
  }
};

void require_gate(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("fig14: " + what);
}

PointResult run_point_on(sim::Simulator& sim, const PointOptions& opt) {
  require_gate(opt.workers >= 2 && opt.file_pages >= 2 && opt.file_pages % 2 == 0,
               "bad point options");
  bench::WallTimer timer;
  const u64 S = opt.file_pages, A = opt.anon_pages, E = opt.evict_pages, Z = opt.zero_pages;
  const u64 N = opt.workers;
  ShareRig rig(sim, opt);

  // --- setup: the parent's pre-fork image ------------------------------
  sls::System& parent = rig.bind(rig.group.add_process("w0"));
  mem::AddressSpace& pas = parent.address_space();
  mem::BackingFile& file = rig.group.files().create("lib.dat", S * kPage);
  for (u64 p = 0; p < S; ++p) {
    std::vector<u8> block(kPage, 0);
    for (u64 w = 0; w < kPage / 8; ++w) {
      const u64 v = file_word(p) + w;
      std::memcpy(block.data() + w * 8, &v, 8);
    }
    file.write(p * kPage, block);
  }
  const VirtAddr file_base = parent.process().mmap(file, 0, S * kPage, /*shared=*/true);
  const VirtAddr anon_base = pas.alloc(A * kPage, kPage);
  const VirtAddr evict_base = pas.alloc(E * kPage, kPage);
  const VirtAddr zero_base = pas.alloc(Z * kPage, kPage);
  // Software pre-touch of the first file half: these frames are what fork
  // shares by reference into every child.
  for (u64 p = 0; p < S / 2; ++p) (void)pas.read_u64(file_base + p * kPage);
  // One dirty shared-file word: under pressure its eviction must write back
  // through the buffer cache (file_writebacks bucket), and every reader
  // afterwards must still see the sentinel — the one-writeback correctness
  // probe.
  pas.write_u64(file_base + 8, kSentinel);
  for (u64 p = 0; p < A; ++p) pas.write_u64(anon_base + p * kPage, parent_word(p));
  for (u64 p = 0; p < E; ++p) pas.write_u64(evict_base + p * kPage, evict_word(p));
  parent.process().evict(evict_base, E * kPage);  // children inherit backing, parent keeps a slot

  // --- fork ------------------------------------------------------------
  for (u64 i = 1; i <= N; ++i) rig.bind(rig.group.fork(parent, "w" + std::to_string(i)), 0);
  const std::vector<const paging::Pager*> pagers = rig.group.pagers();
  // Every phase ends drained with the machine ledger balanced.
  const auto drain = [&] { rig.group.drain(bench::kDrainCycles); };
  drain();
  const paging::MachineLedger base = paging::MachineLedger::of(pagers);
  using Touch = sls::EpisodeDriver::Touch;

  // --- phase A: cold fill ---------------------------------------------
  // Worker 1 faults the untouched file half (the run's only device reads);
  // the parent refaults its evicted pages (demand swap-ins).
  {
    std::vector<Touch> cold;
    for (u64 p = S / 2; p < S; ++p) cold.push_back({file_base + p * kPage, false, 0});
    rig.launch(1, cold, 0);
    std::vector<Touch> refault;
    for (u64 p = 0; p < E; ++p) refault.push_back({evict_base + p * kPage, false, 0});
    rig.launch(0, refault, 0);
    drain();
  }

  // --- phase B: the share sweep (measured) -----------------------------
  PointResult r;
  r.workers = N;
  const u64 faults_before = rig.read_faults();
  {
    const Cycles t0 = sim.now();
    const u64 e0 = sim.events_executed();
    const bench::HostWork w0 = bench::HostWork::of(sim, rig.group.copied_pages());
    std::vector<Touch> sweep;
    for (u64 p = 0; p < S; ++p) sweep.push_back({file_base + p * kPage, false, 0});
    for (u64 p = 0; p < E; ++p) sweep.push_back({evict_base + p * kPage, false, 0});
    for (u64 p = 0; p < Z; ++p) sweep.push_back({zero_base + p * kPage, false, 0});
    for (u64 i = 1; i <= N; ++i) rig.launch(i, sweep, i * kStagger);
    drain();
    r.share_cycles = sim.now() - t0;
    r.share_events = sim.events_executed() - e0;
    r.share_work = bench::HostWork::of(sim, rig.group.copied_pages()) - w0;
  }
  r.share_faults = rig.read_faults() - faults_before;
  // Read-only sharing never copies: no COW traffic before anyone writes.
  for (const paging::Pager* pg : pagers)
    require_gate(pg->cow_copies() == 0 && pg->cow_upgrades() == 0,
                 "read-only sharing triggered a COW on " + pg->name());

  // --- phase C: divergence (measured) ----------------------------------
  {
    const Cycles t0 = sim.now();
    const u64 e0 = sim.events_executed();
    const bench::HostWork w0 = bench::HostWork::of(sim, rig.group.copied_pages());
    for (u64 i = 1; i <= N; ++i) {
      std::vector<Touch> writes;
      for (u64 p = 0; p < A; ++p) writes.push_back({anon_base + p * kPage, true, child_word(i, p)});
      rig.launch(i, writes, i * kStagger);
    }
    drain();
    r.cow_cycles = sim.now() - t0;
    r.cow_events = sim.events_executed() - e0;
    r.cow_work = bench::HostWork::of(sim, rig.group.copied_pages()) - w0;
  }
  // Parent writes last: every child has its private copy, so the parent's
  // refcount-1 faults upgrade in place instead of copying.
  {
    std::vector<Touch> writes;
    for (u64 p = 0; p < A; ++p) writes.push_back({anon_base + p * kPage, true, parent_final(p)});
    rig.launch(0, writes, 0);
    drain();
  }

  // --- ledgers ---------------------------------------------------------
  const paging::MachineLedger run = paging::MachineLedger::of(pagers) - base;
  std::vector<paging::LedgerExpect> expect;
  for (std::size_t i = 0; i < pagers.size(); ++i) {
    expect.push_back({rig.episodes.read_faults(i), rig.episodes.cow_faults(i), 0});
    r.cow_faults += rig.episodes.cow_faults(i);
  }
  paging::require_balanced(run.check(expect), "fig14");
  if (opt.pool_budget == 0) {
    // No pressure: every bucket is exactly predictable per worker.
    for (std::size_t i = 0; i < run.pagers.size(); ++i) {
      const paging::Ledger& l = run.pagers[i];
      require_gate(l.evictions == 0, "unexpected eviction in an unpressured cell");
      if (i == 0)
        require_gate(l.swap_ins == E && l.cow_upgrades == A && l.cow_copies == 0,
                     "parent bucket mismatch");
      else
        require_gate(l.share_hits == (i >= 2 ? S / 2 : 0) &&
                         l.file_reads == (i == 1 ? S - S / 2 : 0) && l.inherited_fills == E &&
                         l.zero_fills == Z && l.cow_copies == A && l.cow_upgrades == 0,
                     "worker bucket mismatch for " + l.name);
    }
  }
  const paging::FramePool& pool = rig.group.pool();
  r.mapped = pool.mapped_pages();
  r.unique_frames = pool.resident_pages();
  r.dedup = pool.dedup_ratio();
  r.evictions = pool.evictions();
  if (N >= 256)
    require_gate(r.dedup >= 0.9, "dedup ratio " + std::to_string(r.dedup) + " below 0.9 at " +
                                     std::to_string(N) + " workers");

  // --- divergence / content verification -------------------------------
  // Software reads (zero cost, demand-map on touch) so evicted pages in the
  // pressure cell still verify against their backing truth.
  for (u64 p = 0; p < A; ++p) {
    require_gate(pas.read_u64(anon_base + p * kPage) == parent_final(p),
                 "parent anon value corrupted");
    for (u64 i = 1; i <= N; ++i)
      require_gate(rig.as(i).read_u64(anon_base + p * kPage) == child_word(i, p),
                   "worker " + std::to_string(i) + " anon divergence lost");
  }
  for (u64 i = 0; i <= N; ++i) {
    mem::AddressSpace& as = rig.as(i);
    for (u64 p = 0; p < S; ++p)
      require_gate(as.read_u64(file_base + p * kPage) == file_word(p),
                   "shared file page corrupted");
    require_gate(as.read_u64(file_base + 8) == kSentinel, "dirty shared word lost");
    for (u64 p = 0; p < E; ++p)
      require_gate(as.read_u64(evict_base + p * kPage) == evict_word(p),
                   "inherited page corrupted");
  }
  for (u64 i = 1; i <= N; ++i)
    for (u64 p = 0; p < Z; ++p)
      require_gate(rig.as(i).read_u64(zero_base + p * kPage) == 0, "zero-fill page not zero");

  r.host_ms = timer.ms();
  r.snapshot = sim.stats().snapshot();
  return r;
}

PointResult run_point(const PointOptions& opt) {
  sim::Simulator sim;
  return run_point_on(sim, opt);
}

PointOptions small_point() {
  PointOptions opt;
  opt.workers = 16;
  opt.file_pages = 16;
  return opt;
}

void determinism_gate() {
  PointOptions opt;
  opt.workers = 32;
  const PointResult a = run_point(opt);
  const PointResult b = run_point(opt);
  if (a.share_cycles != b.share_cycles || a.cow_cycles != b.cow_cycles ||
      a.share_events != b.share_events || a.snapshot != b.snapshot)
    throw std::runtime_error("fig14: rerun is NOT bit-identical");
  std::cout << "[determinism] 32-worker rerun: share=" << a.share_cycles
            << "c cow=" << a.cow_cycles << "c stats=" << a.snapshot.size()
            << " entries (bit-identical)\n";
}

void run_grid(const bench::Cli& cli) {
  determinism_gate();
  {
    // Four instances of the smallest cell, each on its own simulator: the
    // parallel merged registry must be bit-identical to the serial one —
    // page sharing adds no hidden cross-shard state.
    std::vector<sls::Shard> shards;
    for (unsigned i = 0; i < 4; ++i)
      shards.push_back(
          {"s" + std::to_string(i), [](sim::Simulator& sim) { run_point_on(sim, small_point()); }});
    bench::run_sharded(shards, cli.shards, "4x16-worker cells");
  }

  bench::EngineBenchReport engine;
  Table table({"workers", "mapped pages", "frames", "dedup", "share flt", "cyc/share flt",
               "cow flt", "cyc/cow flt", "evictions"});
  std::vector<u64> sweep = cli.smoke ? std::vector<u64>{64, 256} : std::vector<u64>{64, 256, 1024};
  std::vector<PointResult> cells;
  for (const u64 n : sweep) {
    PointOptions opt;
    opt.workers = n;
    cells.push_back(run_point(opt));
  }
  // Pressure cell: a budget far below the mapped set forces the global
  // sweep through shared frames — eviction fan-out + ledger partition.
  PointOptions pressure;
  pressure.workers = 16;
  pressure.pool_budget = 48;
  cells.push_back(run_point(pressure));
  require_gate(cells.back().evictions > 0, "pressure cell produced no evictions");

  for (const PointResult& r : cells) {
    const bool pressured = r.evictions > 0;
    const std::string label =
        "fig14/" + std::to_string(r.workers) + "w" + (pressured ? "_pressure" : "");
    table.add_row({Table::num(r.workers), Table::num(r.mapped), Table::num(r.unique_frames),
                   Table::num(r.dedup, 3), Table::num(r.share_faults),
                   Table::num(r.share_fault_cycles(), 1), Table::num(r.cow_faults),
                   Table::num(r.cow_fault_cycles(), 1), Table::num(r.evictions)});
    engine.add(label, r.share_cycles + r.cow_cycles, r.share_events + r.cow_events,
               r.share_work + r.cow_work, r.share_faults + r.cow_faults, r.host_ms);
    engine.add_metric(label, "dedup_ratio", r.dedup);
    engine.add_metric(label, "share_fault_cycles", r.share_fault_cycles());
    engine.add_metric(label, "cow_fault_cycles", r.cow_fault_cycles());
  }
  table.print(std::cout,
              "Figure 14: copy-on-write page sharing at scale "
              "(N forked workers, one MAP_SHARED file + private COW state)");

  const PointResult& big = cells[sweep.size() - 1];
  std::ostringstream headline;
  headline << "fig14 headline: " << big.workers << " forked workers, one frame pool\n"
           << "  mapped pages       " << big.mapped << " backed by " << big.unique_frames
           << " frames (dedup " << big.dedup << ")\n"
           << "  share-sweep fault  " << big.share_fault_cycles() << " cycles/fault ("
           << big.share_faults << " faults, no device reads — FrameShareIndex hits)\n"
           << "  COW divergence     " << big.cow_fault_cycles() << " cycles/fault ("
           << big.cow_faults << " first-write copies, each a page-sized bus write burst)\n"
           << "  refcounts sum to mappings, every unmap lands in exactly one ledger bucket,\n"
           << "  and the run is bit-identical across reruns and shard counts\n";
  std::cout << headline.str();

  bench::write_artifacts(engine, "fig14_sharing", headline.str(), &table, "Figure 14");
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, "fig14", bench::kSmoke | bench::kShards, run_grid);
}
