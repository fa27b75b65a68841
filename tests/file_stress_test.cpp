// Seeded gauntlet for the file-backed memory tier: two processes chase the
// same pointer chain out of one shared file under frame pressure, across 20
// seeds and two buffer-cache geometries (huge = all hits after cold start,
// tiny = capacity evictions, device reads, and cross-process merges). Every
// seed must verify functionally, keep its lifecycle ledgers partitioned,
// drain its event queue, and — run twice on fresh simulators — reproduce
// bit-identically down to the full stats registry.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "mem/backing_file.hpp"
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/ledger.hpp"
#include "sls/process_group.hpp"
#include "sls/synthesis.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls {
namespace {

constexpr u64 kPage = 4 * KiB;
constexpr unsigned kProcs = 2;

struct RunOutcome {
  Cycles cycles = 0;
  u64 events = 0;
  std::map<std::string, double> snapshot;
};

RunOutcome run_seed(u64 seed, u64 bcache_capacity) {
  sim::Simulator sim;
  workloads::WorkloadParams params;
  params.n = 1024;  // 8-page working set per process
  params.seed = seed;

  sls::PlatformSpec plat = sls::zynq7045();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.policy_seed = seed;
  plat.pager.swap.shared = false;
  plat.pager.swap.readahead = 0;
  plat.pager.bcache.capacity_blocks = bcache_capacity;

  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  pool_cfg.policy = plat.pager.policy;
  pool_cfg.policy_seed = seed;

  sls::ProcessGroup group(sim, plat, pool_cfg);
  std::vector<workloads::Workload> wls;
  mem::BackingFile* file = nullptr;
  for (unsigned i = 0; i < kProcs; ++i) {
    wls.push_back(workloads::make_pointer_chase(params));
    const u64 ws = ceil_div(wls[i].footprint_hint_bytes, kPage);
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = std::max<u64>(2, ws / 2);  // 50% residency
    sls::SynthesisFlow flow(proc_plat);
    auto app = workloads::single_thread_app(wls[i], sls::ThreadKind::kHardware,
                                            sls::Addressing::kVirtual,
                                            /*pinned_buffers=*/false);
    auto& sys = group.add_process(flow.synthesize(app), "p" + std::to_string(i));
    const auto& buf = wls[i].buffers.at(0);
    if (file == nullptr) file = &group.files().create("chain.dat", buf.bytes);
    sys.address_space().bind_file(sys.buffer(buf.name), buf.bytes, *file, 0, /*shared=*/true);
    wls[i].setup(sys);
    sys.process().evict(sys.buffer(buf.name), buf.bytes);  // cold start
  }
  sim.drain();
  // The cold-start evicts above route through the lifecycle fork too (the
  // setup pages are dirty, so they write through the cache) — the ledger
  // below is therefore a run-phase delta.
  const paging::MachineLedger before = paging::MachineLedger::of(group.pagers());

  group.start_all();
  RunOutcome r;
  const u64 events_before = sim.events_executed();
  r.cycles = group.run_to_completion();
  group.drain();  // the machine ledger, pool refcounts included
  EXPECT_FALSE(group.buffer_cache().busy());
  r.events = sim.events_executed() - events_before;

  const paging::MachineLedger run = paging::MachineLedger::of(group.pagers()) - before;
  EXPECT_EQ(run.check(), std::vector<std::string>{}) << "seed " << seed;
  for (unsigned i = 0; i < kProcs; ++i) {
    EXPECT_TRUE(wls[i].verify(group.process(i))) << "seed " << seed << " p" << i;
    // File-backed working set: zero swap traffic.
    const paging::Ledger& l = run.pagers[i];
    EXPECT_EQ(l.swap_reads + l.swap_writes + l.swap_ins, 0u) << "seed " << seed << " p" << i;
  }

  r.snapshot = sim.stats().snapshot();
  return r;
}

TEST(FileBackedStress, TwentySeedsVerifyAndReproduceBitIdentically) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    // Odd seeds run with a tiny cache so capacity evictions, device reads,
    // and cross-process merges all exercise; even seeds keep the default
    // hit-dominated geometry.
    const u64 capacity = (seed % 2 == 1) ? 8 : 4096;
    const RunOutcome a = run_seed(seed, capacity);
    const RunOutcome b = run_seed(seed, capacity);
    EXPECT_EQ(a.cycles, b.cycles) << "seed " << seed;
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.snapshot, b.snapshot) << "seed " << seed;
    EXPECT_GT(a.cycles, 0u);
  }
}

}  // namespace
}  // namespace vmsls
