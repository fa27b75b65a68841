// Determinism backbone for the fast-path event engine.
//
// The engine overhaul (calendar-wheel scheduler, pooled nodes, inline
// completions, parallel DSE) is only admissible because simulated results
// are bit-identical to the straightforward priority-queue implementation.
// These tests pin that contract: repeated runs produce identical cycle
// counts, event counts, and stat snapshots; the parallel DSE sweep equals
// the serial one candidate for candidate; a standalone System and the same
// image as the only member of a ProcessGroup are one machine; and
// zero-latency translation paths complete without touching the scheduler
// at all.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mem/bus.hpp"
#include "mem/dram.hpp"
#include "mem/frames.hpp"
#include "mem/mmu.hpp"
#include "mem/pagetable.hpp"
#include "mem/physmem.hpp"
#include "sim/simulator.hpp"
#include "sls/dse.hpp"
#include "sls/process_group.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "workloads/workloads.hpp"

namespace vmsls {
namespace {

struct RunSnapshot {
  Cycles cycles = 0;
  u64 events = 0;
  std::map<std::string, double> stats;
};

/// fig4_tlb_sweep's smallest configuration: matmul n=32, a 1-entry TLB,
/// 4 KiB pages.
RunSnapshot run_fig4_smallest() {
  workloads::WorkloadParams p;
  p.n = 32;
  auto wl = workloads::make_workload("matmul", p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  mem::TlbConfig tlb;
  tlb.entries = 1;
  tlb.ways = 1;
  app.threads[0].tlb_override = tlb;

  sls::PlatformSpec plat = sls::zynq7020();
  plat.page_table.page_bits = 12;

  sls::SynthesisFlow flow(plat);
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);
  system->start_all();

  RunSnapshot s;
  s.cycles = system->run_to_completion();
  EXPECT_TRUE(wl.verify(*system));
  s.events = sim.events_executed();
  s.stats = sim.stats().snapshot();
  return s;
}

TEST(Determinism, Fig4SmallestConfigBitIdentical) {
  const RunSnapshot a = run_fig4_smallest();
  const RunSnapshot b = run_fig4_smallest();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.stats, b.stats);  // every counter and histogram moment
}

TEST(Determinism, SerialAndParallelDseIdentical) {
  workloads::WorkloadParams p;
  p.n = 16;
  auto wl = workloads::make_workload("matmul", p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  auto evaluate = [&wl](const sls::SystemImage& image) {
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    wl.setup(*system);
    system->start_all();
    return system->run_to_completion();
  };
  const std::vector<unsigned> candidates = {2, 4, 8, 16};

  sls::DesignSpaceExplorer serial(sls::zynq7020());
  serial.set_threads(1);
  const auto a = serial.explore_tlb(app, "worker", candidates, evaluate);

  sls::DesignSpaceExplorer parallel(sls::zynq7020());
  parallel.set_threads(4);
  const auto b = parallel.explore_tlb(app, "worker", candidates, evaluate);

  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].tlb_entries, b.candidates[i].tlb_entries);
    EXPECT_EQ(a.candidates[i].fits, b.candidates[i].fits);
    EXPECT_EQ(a.candidates[i].measured, b.candidates[i].measured);
    EXPECT_EQ(a.candidates[i].cycles, b.candidates[i].cycles);
  }
  EXPECT_EQ(a.best, b.best);
  ASSERT_GE(a.best, 0);
  EXPECT_TRUE(a.candidates[static_cast<std::size_t>(a.best)].measured);
}

struct MachineRun {
  Cycles cycles = 0;
  u64 events = 0;
  u64 faults = 0;
  u64 swap_ins = 0;
  u64 evictions = 0;
};

/// Cold-starts `system` (every buffer evicted), runs it through `run` and
/// drains the queue; counts cover the whole run.
template <typename RunFn>
MachineRun run_cold(sim::Simulator& sim, sls::System& system, const workloads::Workload& wl,
                    RunFn run) {
  wl.setup(system);
  for (const auto& buf : system.image().app().buffers)
    system.process().evict(system.buffer(buf.name), buf.bytes);
  system.start_all();
  MachineRun r;
  r.cycles = run();
  EXPECT_TRUE(wl.verify(system)) << wl.name;
  sim.drain();
  r.events = sim.events_executed();
  r.faults = sim.stats().counter_value(system.instance() + "faults.faults");
  r.swap_ins = system.pager()->swap_ins();
  r.evictions = system.pager()->evictions();
  return r;
}

TEST(Determinism, StandaloneSystemIsAOneMemberMachine) {
  // Both entry points elaborate onto an sls::Machine: the standalone one
  // owns a pool-less machine, the group's adds a per-process FramePool
  // mirroring the pager. Under pressure they must stay one machine.
  sls::PlatformSpec plat = sls::zynq7045();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.frame_budget = 12;
  plat.pager.policy_seed = 7;
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  pool_cfg.policy = plat.pager.policy;
  pool_cfg.policy_seed = plat.pager.policy_seed;

  u64 evictions = 0;
  for (const char* name : {"hash_join", "pointer_chase", "bfs", "saxpy"}) {
    workloads::WorkloadParams p;
    p.n = 1024;
    p.seed = 42;
    const auto wl = workloads::make_workload(name, p);
    const auto image = sls::SynthesisFlow(plat).synthesize(
        workloads::single_thread_app(wl, sls::ThreadKind::kHardware));

    sim::Simulator solo_sim;
    auto solo = image.elaborate(solo_sim);
    const MachineRun a =
        run_cold(solo_sim, *solo, wl, [&solo] { return solo->run_to_completion(); });

    sim::Simulator group_sim;
    sls::ProcessGroup group(group_sim, plat, pool_cfg);
    sls::System& member = group.add_process(image, "p0");
    const MachineRun b =
        run_cold(group_sim, member, wl, [&group] { return group.run_to_completion(); });

    EXPECT_EQ(a.cycles, b.cycles) << name;
    EXPECT_EQ(a.events, b.events) << name;
    EXPECT_EQ(a.faults, b.faults) << name;
    EXPECT_EQ(a.swap_ins, b.swap_ins) << name;
    EXPECT_EQ(a.evictions, b.evictions) << name;
    EXPECT_GT(a.faults, 0u) << name;  // the cold start faults every page in
    evictions += a.evictions;
  }
  EXPECT_GT(evictions, 0u);  // hash_join outgrows the budget
}

/// Fixture providing a minimal translation stack (no full System).
struct MmuFastPath {
  sim::Simulator sim;
  mem::PhysicalMemory pm{16 * MiB};
  mem::FrameAllocator frames{0, (16 * MiB) / (4 * KiB), 4 * KiB};
  mem::PageTable pt{pm, frames, mem::PageTableConfig{}};
  mem::DramModel dram{mem::DramConfig{}, sim.stats(), "dram"};
  mem::MemoryBus bus{sim, dram, mem::BusConfig{}, "bus"};
  mem::PageWalker walker{sim, bus, pm, pt, mem::WalkerConfig{}, "walker"};
};

TEST(Determinism, PassThroughTranslationBypassesScheduler) {
  MmuFastPath f;
  mem::MmuConfig cfg;
  cfg.translation_enabled = false;
  mem::Mmu mmu(f.sim, f.walker, cfg, "mmu", 0);

  const u64 scheduled_before = f.sim.events_scheduled();
  const u64 executed_before = f.sim.events_executed();
  u64 completions = 0;
  for (u64 i = 0; i < 1000; ++i) {
    PhysAddr got = ~0ull;
    mmu.translate(i * 64, /*is_write=*/false, [&got](PhysAddr pa) { got = pa; });
    EXPECT_EQ(got, i * 64);  // completed synchronously, pass-through identity
    ++completions;
  }
  // The satellite contract: zero scheduler traffic on the pass-through path.
  EXPECT_EQ(f.sim.events_scheduled(), scheduled_before);
  EXPECT_EQ(f.sim.events_executed(), executed_before);
  EXPECT_EQ(mmu.inline_completions(), completions);
  EXPECT_TRUE(f.sim.idle());
}

TEST(Determinism, ZeroLatencyTlbHitCompletesInline) {
  MmuFastPath f;
  mem::MmuConfig cfg;
  cfg.tlb.entries = 4;
  cfg.tlb.ways = 1;
  cfg.tlb.hit_latency = 0;
  mem::Mmu mmu(f.sim, f.walker, cfg, "mmu", 0);

  const VirtAddr va = 0x1000;
  f.pt.map(va, *f.frames.alloc(), /*writable=*/true);

  // First access misses and walks (scheduler involved, as it must be).
  bool walked = false;
  mmu.translate(va, false, [&walked](PhysAddr) { walked = true; });
  f.sim.run();
  ASSERT_TRUE(walked);

  // Hits on a zero-latency TLB complete inline: no new scheduler events.
  const u64 scheduled_before = f.sim.events_scheduled();
  const u64 inline_before = mmu.inline_completions();
  bool hit = false;
  mmu.translate(va, false, [&hit](PhysAddr) { hit = true; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(f.sim.events_scheduled(), scheduled_before);
  EXPECT_EQ(mmu.inline_completions(), inline_before + 1);
}

}  // namespace
}  // namespace vmsls
