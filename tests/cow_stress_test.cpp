// Randomized COW / page-sharing storms, 20 seeds.
//
// One parent forks three workers over a kGlobal FramePool with a tight
// budget, then a seeded mix of operations hammers the sharing machinery:
// driven write faults on COW pages, driven read faults on shared-file and
// evicted pages, software stores to MAP_SHARED pages, and random external
// evictions. After every storm the invariants that define the sharing
// model are re-checked:
//
//   * the paging ledger (mem/paging/ledger.hpp) with the episode driver's
//     fault classification and the external evictions, and the refcount
//     identity (every drain goes through ProcessGroup::drain),
//   * content — every process reads back exactly the value the reference
//     model last wrote for it (divergence is never lost, sharing is never
//     broken), and
//   * determinism — each seed rerun on a fresh simulator is bit-identical
//     down to the full stat snapshot.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "mem/backing_file.hpp"
#include "mem/paging/ledger.hpp"
#include "sls/episode.hpp"
#include "sls/process_group.hpp"
#include "test_util.hpp"

namespace vmsls::paging {
namespace {

constexpr u64 kPageSz = 4096;
constexpr u64 kProcs = 4;       // parent + 3 forked workers
constexpr u64 kFilePages = 8;   // MAP_SHARED region
constexpr u64 kAnonPages = 4;   // COW pages per process
constexpr u64 kOps = 120;

struct StormResult {
  Cycles cycles = 0;
  u64 events = 0;
  std::map<std::string, double> snapshot;
};

/// Pager-only members of one ProcessGroup driven by one EpisodeDriver:
/// member w is episode worker w.
struct Storm {
  sim::Simulator sim;
  sls::ProcessGroup group{sim, platform(), pool_cfg()};
  sls::EpisodeDriver driver{sim};
  std::vector<u64> external_unmaps = std::vector<u64>(kProcs, 0);
  // The reference content model.
  std::vector<std::vector<u64>> anon_model;  // [proc][page] expected value
  std::vector<u64> file_model;               // [page] expected value (shared)
  VirtAddr file_base = 0, anon_base = 0, zero_base = 0;

  Storm() {
    sls::System& parent = group.add_process("w0");
    mem::AddressSpace& as = parent.address_space();
    // Parent image: a seeded MAP_SHARED file plus dirty anonymous pages.
    mem::BackingFile& file = group.files().create("storm.dat", kFilePages * kPageSz);
    file_model.assign(kFilePages, 0);
    for (u64 p = 0; p < kFilePages; ++p) {
      std::vector<u8> block(kPageSz, 0);
      const u64 v = 0xF0F0 + p;
      std::memcpy(block.data(), &v, 8);
      file.write(p * kPageSz, block);
      file_model[p] = v;
    }
    file_base = parent.process().mmap(file, 0, kFilePages * kPageSz, /*shared=*/true);
    anon_base = as.alloc(kAnonPages * kPageSz, kPageSz);
    zero_base = as.alloc(2 * kPageSz, kPageSz);
    anon_model.assign(kProcs, std::vector<u64>(kAnonPages, 0));
    for (u64 p = 0; p < kAnonPages; ++p) {
      const u64 v = 0xA000 + p;
      as.write_u64(anon_base + p * kPageSz, v);
      for (u64 i = 0; i < kProcs; ++i) anon_model[i][p] = v;
    }
    for (u64 p = 0; p < kFilePages / 2; ++p)  // half the file resident at fork
      (void)as.read_u64(file_base + p * kPageSz);
    for (const char* child : {"w1", "w2", "w3"}) group.fork(parent, child);
    for (u64 i = 0; i < kProcs; ++i) {
      sls::System& s = group.process(i);
      driver.add_worker(s.address_space(), s.process(), *s.pager());
    }
    group.drain();
  }

  static sls::PlatformSpec platform() {
    sls::PlatformSpec plat;
    plat.dram.size_bytes = 32 * MiB;
    plat.pager.budget_mode = BudgetMode::kGlobal;
    return plat;
  }

  static FramePoolConfig pool_cfg() {
    FramePoolConfig cfg;
    cfg.mode = BudgetMode::kGlobal;
    cfg.total_frames = 14;  // well under the ~28-mapping peak: evictions flow
    cfg.policy = PolicyKind::kClock;
    return cfg;
  }

  mem::AddressSpace& as(u64 w) { return group.process(w).address_space(); }

  /// Runs one touch on worker `w` to completion; the driver classifies it
  /// the way the ledgers partition (unmapped -> read bucket, resident
  /// read-only + write -> COW bucket) and a write stores `value`.
  void drive(u64 w, VirtAddr va, bool is_write, u64 value = 0) {
    driver.touches(w) = {{va, is_write, value}};
    driver.start(w, 0);
    group.drain();
  }

  void run_ops(u64 seed) {
    std::mt19937 rng(seed);
    for (u64 op = 0; op < kOps; ++op) {
      const u64 w = rng() % kProcs;
      switch (rng() % 6) {
        case 0: {  // COW (or refault) write to an anonymous page
          const u64 p = rng() % kAnonPages;
          const u64 v = 0xC0DE0000 + (w << 8) + (rng() & 0xFF);
          drive(w, anon_base + p * kPageSz, /*is_write=*/true, v);
          anon_model[w][p] = v;
          break;
        }
        case 1: {  // driven read fault on a file page
          const u64 p = rng() % kFilePages;
          drive(w, file_base + p * kPageSz, /*is_write=*/false);
          break;
        }
        case 2: {  // software store to a MAP_SHARED page: visible machine-wide
          const u64 p = rng() % kFilePages;
          const u64 v = 0x5A5A0000 + (w << 8) + (rng() & 0xFF);
          as(w).write_u64(file_base + p * kPageSz, v);
          file_model[p] = v;
          break;
        }
        case 3: {  // external eviction (setup-style, not pager-driven)
          const u64 p = rng() % (kFilePages + kAnonPages);
          const VirtAddr va = (p < kFilePages ? file_base + p * kPageSz
                                              : anon_base + (p - kFilePages) * kPageSz);
          external_unmaps[w] += group.process(w).process().evict(va, kPageSz);
          break;
        }
        case 4: {  // driven read fault on an evicted/fresh anon page
          const u64 p = rng() % kAnonPages;
          drive(w, anon_base + p * kPageSz, /*is_write=*/false);
          break;
        }
        default: {  // zero-fill territory
          const VirtAddr va = zero_base + (rng() % 2) * kPageSz;
          drive(w, va, /*is_write=*/false);
          break;
        }
      }
    }
    group.drain();
  }

  void check_invariants() {
    std::vector<LedgerExpect> expect;
    for (u64 w = 0; w < kProcs; ++w)
      expect.push_back({driver.read_faults(w), driver.cow_faults(w), external_unmaps[w]});
    EXPECT_EQ(MachineLedger::of(group.pagers()).check(expect), std::vector<std::string>{});

    // Content: divergence preserved, sharing coherent.
    for (u64 w = 0; w < kProcs; ++w)
      for (u64 p = 0; p < kAnonPages; ++p)
        EXPECT_EQ(as(w).read_u64(anon_base + p * kPageSz), anon_model[w][p])
            << "anon w" << w << " p" << p;
    for (u64 w = 0; w < kProcs; ++w)
      for (u64 p = 0; p < kFilePages; ++p)
        EXPECT_EQ(as(w).read_u64(file_base + p * kPageSz), file_model[p])
            << "file w" << w << " p" << p;
  }
};

StormResult run_storm(u64 seed) {
  Storm storm;
  storm.run_ops(seed);
  storm.check_invariants();
  StormResult r;
  r.cycles = storm.sim.now();
  r.events = storm.sim.events_executed();
  r.snapshot = storm.sim.stats().snapshot();
  return r;
}

TEST(CowStress, TwentySeedStormsKeepInvariantsAndDeterminism) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const StormResult a = run_storm(seed);
    const StormResult b = run_storm(seed);  // fresh simulator, same seed
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.snapshot, b.snapshot);
  }
}

}  // namespace
}  // namespace vmsls::paging
