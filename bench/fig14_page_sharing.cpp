// Figure 14 — Copy-on-write page sharing at scale.
//
// One parent process maps a MAP_SHARED "library" file plus private
// anonymous state, then forks N workers (N up to 1024). Fork maps every
// resident parent page into the child by reference: file pages stay
// writable against the one shared frame, anonymous pages are downgraded to
// read-only in both spaces and split on first write. The experiment drives
// three phases through the timed fault path:
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
//                (cow_copies, charged as one page-sized bus burst); the
//                parent then writes last, after every child diverged, so
//                its refcount-1 faults upgrade in place (cow_upgrades).
//
// Gates (hard errors, every cell):
//   * refcount identity — summing each worker's resident mappings per
//     frame must reproduce FrameAllocator::refcount exactly, total
//     mappings == pool.mapped_pages(), unique frames ==
//     pool.resident_pages(),
//   * fault ledger — per pager, driven unmapped faults ==
//     swap_ins + file_reads + zero_fills + share_hits + inherited_fills,
//     and driven write faults on resident read-only pages ==
//     cow_copies + cow_upgrades,
//   * eviction ledger — per pager, evictions == swap_releases +
//     file_drops + file_writebacks + shared_releases (each unmap lands in
//     exactly one bucket: the double-count audit),
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
// dedup_ratio / share_fault_cycles / cow_fault_cycles metrics — gated by
// tools/check_bench.py once baselined) and fig14_sharing_summary.txt.
//
// --smoke mode (CI's Release run): drops the 1024-worker cell, keeps every
// gate including bit-identity and the sharded rerun.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "mem/address_space.hpp"
#include "mem/backing_file.hpp"
#include "mem/frame_share.hpp"
#include "mem/frames.hpp"
#include "mem/paging/buffer_cache.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/pager.hpp"
#include "mem/physmem.hpp"
#include "rt/process.hpp"
#include "sim/simulator.hpp"
#include "sls/sharded_runner.hpp"
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

/// Fast device timings: the figure measures fault-path structure (share
/// hits vs device trips vs COW copies), not flash latency.
paging::SwapConfig swap_cfg() {
  paging::SwapConfig cfg;
  cfg.read_latency = 50;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 64;
  cfg.readahead = 0;
  return cfg;
}

paging::BufferCacheConfig bcache_cfg() {
  paging::BufferCacheConfig cfg;
  cfg.capacity_blocks = 4096;
  cfg.read_latency = 200;
  cfg.write_latency = 300;
  cfg.bytes_per_cycle = 64;
  return cfg;
}

/// One access of a worker's sweep chain.
struct Step {
  VirtAddr va = 0;
  bool is_write = false;
  u64 value = 0;
};

/// One forked worker: its own address space, process, and pager over the
/// rig's shared substrate, the driver-side fault classification the
/// ledgers are gated against, and the one chain it runs at a time.
struct WorkerRig {
  std::unique_ptr<mem::AddressSpace> as;
  std::unique_ptr<rt::Process> process;
  std::unique_ptr<paging::Pager> pager;
  u64 read_faults = 0;  // driven faults that entered the unmapped path
  u64 cow_faults = 0;   // driven write faults on resident read-only pages
  std::vector<Step> steps;  // the chain in flight
  std::size_t pos = 0;      // next step to issue
};

/// The machine: one simulator, one frame pool, one swap part, one buffer
/// cache, one share index — and N+1 processes contending for all of them.
struct ShareRig {
  sim::Simulator& sim;
  mem::PhysicalMemory pm{128 * MiB};
  mem::FrameAllocator frames{0, (128 * MiB) / kPage, kPage};
  mem::FileStore files{kPage};
  mem::FrameShareIndex share;
  paging::FramePool pool;
  paging::SwapScheduler swap;
  paging::BufferCache bcache;
  std::vector<WorkerRig> workers;  // [0] = parent

  ShareRig(sim::Simulator& sim_, const PointOptions& opt)
      : sim(sim_),
        pool(sim_, pool_cfg(opt), "pool"),
        swap(sim_, swap_cfg(), kPage, "swap"),
        bcache(sim_, bcache_cfg(), kPage, "bcache") {
    workers.reserve(opt.workers + 1);
  }

  static paging::FramePoolConfig pool_cfg(const PointOptions& opt) {
    paging::FramePoolConfig cfg;
    cfg.mode = paging::BudgetMode::kGlobal;
    cfg.total_frames = opt.pool_budget;
    cfg.policy = paging::PolicyKind::kClock;
    cfg.policy_seed = 7;
    return cfg;
  }

  WorkerRig& add_worker() {
    const auto i = workers.size();
    WorkerRig w;
    w.as = std::make_unique<mem::AddressSpace>(pm, frames, mem::PageTableConfig{});
    w.as->set_share_index(&share);
    w.process = std::make_unique<rt::Process>(sim, *w.as, "w" + std::to_string(i));
    paging::PagerConfig cfg;
    cfg.frame_budget = 0;  // the pool's machine-wide budget is the only cap
    cfg.budget_mode = paging::BudgetMode::kGlobal;
    cfg.policy = paging::PolicyKind::kClock;
    cfg.swap = swap_cfg();
    w.pager = std::make_unique<paging::Pager>(sim, *w.process, cfg,
                                              "w" + std::to_string(i) + ".pager", &swap, &bcache);
    pool.attach(*w.pager);
    workers.push_back(std::move(w));
    return workers.back();
  }
};

void drain(sim::Simulator& sim) {
  const Cycles deadline = sim.now() + 2'000'000'000ull;
  while (sim.step())
    if (sim.now() > deadline)
      throw std::runtime_error("fig14: event queue failed to drain");
  if (!sim.idle()) throw std::runtime_error("fig14: simulator not idle after drain");
}

/// Issues worker `w`'s chain from its current step, each fault issued from
/// the previous fault's ready callback (the shape of a thread missing page
/// after page). Already-mapped read steps are skipped synchronously; write
/// steps classify at issue time — unmapped pages refault through the read
/// path, resident read-only pages take the COW path — which is exactly the
/// classification the ledger gates compare against.
void advance(ShareRig& rig, std::size_t w) {
  WorkerRig& wk = rig.workers[w];
  while (wk.pos < wk.steps.size()) {
    const Step s = wk.steps[wk.pos++];
    if (!s.is_write) {
      if (wk.as->is_mapped(s.va)) continue;
      ++wk.read_faults;
      wk.pager->handle_fault(s.va, /*is_write=*/false, [&rig, w, s] {
        WorkerRig& done = rig.workers[w];
        if (!done.as->is_mapped(s.va)) done.process->map_in(s.va);
        advance(rig, w);
      });
      return;
    }
    const auto pte = wk.as->page_table().lookup(s.va);
    if (pte && pte->writable) {  // already private (or never shared): plain store
      wk.as->write_u64(s.va, s.value);
      continue;
    }
    if (!pte) {
      // Evicted underneath us (pressure cell): refault through the read
      // path, then store — not a COW fault, and counted accordingly.
      ++wk.read_faults;
      wk.pager->handle_fault(s.va, /*is_write=*/true, [&rig, w, s] {
        WorkerRig& done = rig.workers[w];
        if (!done.as->is_mapped(s.va)) done.process->map_in(s.va);
        done.as->write_u64(s.va, s.value);
        advance(rig, w);
      });
    } else {
      ++wk.cow_faults;
      wk.pager->handle_fault(s.va, /*is_write=*/true, [&rig, w, s] {
        rig.workers[w].as->write_u64(s.va, s.value);
        advance(rig, w);
      });
    }
    return;
  }
}

/// Starts `steps` on worker `w` after `delay`; the worker's previous chain
/// must have finished.
void launch_chain(ShareRig& rig, std::size_t w, std::vector<Step> steps, Cycles delay) {
  WorkerRig& wk = rig.workers[w];
  if (wk.pos != wk.steps.size()) throw std::runtime_error("fig14: worker chain still in flight");
  wk.steps = std::move(steps);
  wk.pos = 0;
  rig.sim.schedule_in(delay, [&rig, w] { advance(rig, w); });
}

/// Per-pager bucket snapshot for delta ledgers (setup traffic excluded).
struct LedgerSnap {
  u64 swap_ins = 0, file_reads = 0, zero_fills = 0, share_hits = 0, inherited_fills = 0;
  u64 cow_copies = 0, cow_upgrades = 0;
  u64 evictions = 0, swap_releases = 0, file_drops = 0, file_writebacks = 0, shared_releases = 0;

  static LedgerSnap of(const paging::Pager& p) {
    LedgerSnap s;
    s.swap_ins = p.swap_ins();
    s.file_reads = p.file_reads();
    s.zero_fills = p.zero_fills();
    s.share_hits = p.share_hits();
    s.inherited_fills = p.inherited_fills();
    s.cow_copies = p.cow_copies();
    s.cow_upgrades = p.cow_upgrades();
    s.evictions = p.evictions();
    s.swap_releases = p.swap_releases();
    s.file_drops = p.file_drops();
    s.file_writebacks = p.file_writebacks();
    s.shared_releases = p.shared_releases();
    return s;
  }
  u64 reads() const { return swap_ins + file_reads + zero_fills + share_hits + inherited_fills; }
  u64 cows() const { return cow_copies + cow_upgrades; }
  u64 unmaps() const { return swap_releases + file_drops + file_writebacks + shared_releases; }
};

struct PointResult {
  u64 workers = 0;
  u64 mapped = 0;         // total page mappings at end of run
  u64 unique_frames = 0;  // frames backing them
  double dedup = 0;
  Cycles share_cycles = 0;  // share-sweep phase makespan
  u64 share_events = 0;
  u64 share_faults = 0;
  Cycles cow_cycles = 0;  // divergence phase makespan (children)
  u64 cow_events = 0;
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
  WorkerRig& parent = rig.add_worker();
  mem::BackingFile& file = rig.files.create("lib.dat", S * kPage);
  for (u64 p = 0; p < S; ++p) {
    std::vector<u8> block(kPage, 0);
    for (u64 w = 0; w < kPage / 8; ++w) {
      const u64 v = file_word(p) + w;
      std::memcpy(block.data() + w * 8, &v, 8);
    }
    file.write(p * kPage, block);
  }
  const VirtAddr file_base = parent.process->mmap(file, 0, S * kPage, /*shared=*/true);
  const VirtAddr anon_base = parent.as->alloc(A * kPage, kPage);
  const VirtAddr evict_base = parent.as->alloc(E * kPage, kPage);
  const VirtAddr zero_base = parent.as->alloc(Z * kPage, kPage);
  // Software pre-touch of the first file half: these frames are what fork
  // shares by reference into every child.
  for (u64 p = 0; p < S / 2; ++p) (void)parent.as->read_u64(file_base + p * kPage);
  // One dirty shared-file word: under pressure its eviction must write back
  // through the buffer cache (file_writebacks bucket), and every reader
  // afterwards must still see the sentinel — the one-writeback correctness
  // probe.
  parent.as->write_u64(file_base + 8, kSentinel);
  for (u64 p = 0; p < A; ++p) parent.as->write_u64(anon_base + p * kPage, parent_word(p));
  for (u64 p = 0; p < E; ++p) parent.as->write_u64(evict_base + p * kPage, evict_word(p));
  parent.process->evict(evict_base, E * kPage);  // children inherit backing, parent keeps a slot

  // --- fork ------------------------------------------------------------
  for (u64 i = 0; i < N; ++i) {
    WorkerRig& child = rig.add_worker();
    parent.process->fork(*child.process);
  }
  drain(sim);

  std::vector<LedgerSnap> base;
  base.reserve(rig.workers.size());
  for (const auto& w : rig.workers) base.push_back(LedgerSnap::of(*w.pager));

  // --- phase A: cold fill ---------------------------------------------
  // Worker 1 faults the untouched file half (the run's only device reads);
  // the parent refaults its evicted pages (demand swap-ins).
  {
    std::vector<Step> cold;
    for (u64 p = S / 2; p < S; ++p) cold.push_back({file_base + p * kPage, false, 0});
    launch_chain(rig, 1, std::move(cold), 0);
    std::vector<Step> refault;
    for (u64 p = 0; p < E; ++p) refault.push_back({evict_base + p * kPage, false, 0});
    launch_chain(rig, 0, std::move(refault), 0);
    drain(sim);
  }

  // --- phase B: the share sweep (measured) -----------------------------
  PointResult r;
  r.workers = N;
  u64 faults_before = 0;
  for (const auto& w : rig.workers) faults_before += w.read_faults;
  {
    const Cycles t0 = sim.now();
    const u64 e0 = sim.events_executed();
    for (u64 i = 1; i <= N; ++i) {
      std::vector<Step> sweep;
      for (u64 p = 0; p < S; ++p) sweep.push_back({file_base + p * kPage, false, 0});
      for (u64 p = 0; p < E; ++p) sweep.push_back({evict_base + p * kPage, false, 0});
      for (u64 p = 0; p < Z; ++p) sweep.push_back({zero_base + p * kPage, false, 0});
      launch_chain(rig, i, std::move(sweep), i * kStagger);
    }
    drain(sim);
    r.share_cycles = sim.now() - t0;
    r.share_events = sim.events_executed() - e0;
  }
  for (const auto& w : rig.workers) r.share_faults += w.read_faults;
  r.share_faults -= faults_before;
  // Read-only sharing never copies: no COW traffic before anyone writes.
  for (const auto& w : rig.workers)
    require_gate(w.pager->cow_copies() == 0 && w.pager->cow_upgrades() == 0,
                 "read-only sharing triggered a COW on " + w.pager->name());

  // --- phase C: divergence (measured) ----------------------------------
  {
    const Cycles t0 = sim.now();
    const u64 e0 = sim.events_executed();
    for (u64 i = 1; i <= N; ++i) {
      std::vector<Step> writes;
      for (u64 p = 0; p < A; ++p) writes.push_back({anon_base + p * kPage, true, child_word(i, p)});
      launch_chain(rig, i, std::move(writes), i * kStagger);
    }
    drain(sim);
    r.cow_cycles = sim.now() - t0;
    r.cow_events = sim.events_executed() - e0;
  }
  // Parent writes last: every child has its private copy, so the parent's
  // refcount-1 faults upgrade in place instead of copying.
  {
    std::vector<Step> writes;
    for (u64 p = 0; p < A; ++p) writes.push_back({anon_base + p * kPage, true, parent_final(p)});
    launch_chain(rig, 0, std::move(writes), 0);
    drain(sim);
  }
  for (const auto& w : rig.workers) r.cow_faults += w.cow_faults;

  // --- ledgers ---------------------------------------------------------
  for (std::size_t i = 0; i < rig.workers.size(); ++i) {
    const WorkerRig& w = rig.workers[i];
    const LedgerSnap now = LedgerSnap::of(*w.pager);
    const LedgerSnap& b = base[i];
    require_gate(now.reads() - b.reads() == w.read_faults,
                 "read-fault ledger unbalanced for " + w.pager->name());
    require_gate(now.cows() - b.cows() == w.cow_faults,
                 "COW ledger unbalanced for " + w.pager->name());
    require_gate(now.evictions - b.evictions == now.unmaps() - b.unmaps(),
                 "eviction ledger unbalanced for " + w.pager->name());
    if (opt.pool_budget == 0) {
      // No pressure: every bucket is exactly predictable per worker.
      const u64 share_exp = i >= 2 ? S / 2 : 0;
      const u64 file_exp = i == 1 ? S - S / 2 : 0;
      require_gate(now.evictions == b.evictions, "unexpected eviction in an unpressured cell");
      if (i == 0)
        require_gate(now.swap_ins - b.swap_ins == E && now.cow_upgrades - b.cow_upgrades == A &&
                         now.cow_copies == b.cow_copies,
                     "parent bucket mismatch");
      else
        require_gate(now.share_hits - b.share_hits == share_exp &&
                         now.file_reads - b.file_reads == file_exp &&
                         now.inherited_fills - b.inherited_fills == E &&
                         now.zero_fills - b.zero_fills == Z &&
                         now.cow_copies - b.cow_copies == A && now.cow_upgrades == b.cow_upgrades,
                     "worker bucket mismatch for " + w.pager->name());
    }
  }

  // --- refcount identity -----------------------------------------------
  std::unordered_map<u64, u64> per_frame;
  u64 mappings = 0;
  for (const auto& w : rig.workers) {
    w.as->for_each_resident([&](u64 vpn) {
      ++per_frame[*w.as->frame_of(vpn)];
      ++mappings;
    });
  }
  require_gate(mappings == rig.pool.mapped_pages(), "pool mapped_pages != sum of residency");
  require_gate(per_frame.size() == rig.pool.resident_pages(), "pool resident != unique frames");
  for (const auto& [frame, count] : per_frame)
    require_gate(rig.frames.refcount(frame) == count,
                 "frame refcount != mapping count for frame " + std::to_string(frame));
  r.mapped = mappings;
  r.unique_frames = per_frame.size();
  r.dedup = rig.pool.dedup_ratio();
  r.evictions = rig.pool.evictions();
  if (N >= 256)
    require_gate(r.dedup >= 0.9, "dedup ratio " + std::to_string(r.dedup) + " below 0.9 at " +
                                     std::to_string(N) + " workers");

  // --- divergence / content verification -------------------------------
  // Software reads (zero cost, demand-map on touch) so evicted pages in the
  // pressure cell still verify against their backing truth.
  for (u64 p = 0; p < A; ++p) {
    require_gate(parent.as->read_u64(anon_base + p * kPage) == parent_final(p),
                 "parent anon value corrupted");
    for (u64 i = 1; i <= N; ++i)
      require_gate(rig.workers[i].as->read_u64(anon_base + p * kPage) == child_word(i, p),
                   "worker " + std::to_string(i) + " anon divergence lost");
  }
  for (auto& w : rig.workers) {
    for (u64 p = 0; p < S; ++p)
      require_gate(w.as->read_u64(file_base + p * kPage) == file_word(p),
                   "shared file page corrupted");
    require_gate(w.as->read_u64(file_base + 8) == kSentinel, "dirty shared word lost");
    for (u64 p = 0; p < E; ++p)
      require_gate(w.as->read_u64(evict_base + p * kPage) == evict_word(p),
                   "inherited page corrupted");
  }
  for (u64 i = 1; i <= N; ++i)
    for (u64 p = 0; p < Z; ++p)
      require_gate(rig.workers[i].as->read_u64(zero_base + p * kPage) == 0,
                   "zero-fill page not zero");

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

void sharded_gate(unsigned shard_workers) {
  // Four instances of the smallest cell, each on its own simulator: the
  // parallel merged registry must be bit-identical to the serial one —
  // page sharing adds no hidden cross-shard state.
  std::vector<sls::Shard> shards;
  for (unsigned i = 0; i < 4; ++i)
    shards.push_back(
        {"s" + std::to_string(i), [](sim::Simulator& sim) { run_point_on(sim, small_point()); }});
  sls::ShardedRunner runner(shard_workers);
  const sls::ShardedReport report = runner.run(shards);
  runner.verify_against_serial(shards, report);
  std::cout << "[shards] 4x16-worker cells on " << shard_workers
            << " host threads == serial (bit-identical)\n";
}

int run_grid(bool smoke, unsigned shard_workers) {
  determinism_gate();
  sharded_gate(shard_workers);

  bench::EngineBenchReport engine;
  Table table({"workers", "mapped pages", "frames", "dedup", "share flt", "cyc/share flt",
               "cow flt", "cyc/cow flt", "evictions"});
  std::vector<u64> sweep = smoke ? std::vector<u64>{64, 256} : std::vector<u64>{64, 256, 1024};
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
    engine.add(label, r.share_cycles + r.cow_cycles, r.share_events + r.cow_events, r.host_ms);
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
           << big.cow_faults << " first-write copies, each one page-sized bus burst)\n"
           << "  refcounts sum to mappings, every unmap lands in exactly one ledger bucket,\n"
           << "  and the run is bit-identical across reruns and shard counts\n";
  std::cout << headline.str();

  engine.write_json("BENCH_fig14_sharing.json");
  {
    std::ofstream summary("fig14_sharing_summary.txt");
    summary << headline.str();
    std::ostringstream table_txt;
    table.print(table_txt, "Figure 14");
    summary << table_txt.str();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  unsigned shard_workers = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      shard_workers = static_cast<unsigned>(std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else {
      std::cerr << "usage: bench_fig14_page_sharing [--smoke] [--shards=N]\n";
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  try {
    return run_grid(smoke, shard_workers);
  } catch (const std::exception& e) {
    std::cerr << "fig14 FAILED: " << e.what() << "\n";
    return 1;
  }
}
