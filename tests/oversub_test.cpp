// Multi-process over-subscription: the shared FramePool arbiter, global vs
// per-process budget modes, cross-process eviction invariants, working-set
// driven auto-budgets, the proactive pageout daemon, the ProcessGroup
// harness (fig10's substrate) with its pager-only members and fork, and the
// pager × TLB DSE grid.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/paging/frame_pool.hpp"
#include "mem/paging/pager.hpp"
#include "rt/process.hpp"
#include "sls/dse.hpp"
#include "sls/process_group.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::paging {
namespace {

// --- unit fixture: two processes over one frame allocator, no engines ---

struct PoolFixture : ::testing::Test {
  static constexpr u64 kMemBytes = 64 * MiB;
  static constexpr VirtAddr kBase = 0x10000;

  sim::Simulator sim;
  mem::PhysicalMemory pm{kMemBytes};
  mem::FrameAllocator frames{0, kMemBytes / 4096, 4096};
  mem::AddressSpace as0{pm, frames, mem::PageTableConfig{}};
  mem::AddressSpace as1{pm, frames, mem::PageTableConfig{}};
  rt::Process p0{sim, as0, "p0"};
  rt::Process p1{sim, as1, "p1"};
  std::unique_ptr<FramePool> pool;
  test::PagerPtr pg0, pg1;

  void make(const FramePoolConfig& pool_cfg, PagerConfig cfg0 = {}, PagerConfig cfg1 = {}) {
    pool = std::make_unique<FramePool>(sim, pool_cfg, "pool");
    pg0 = test::PagerPtr(sim, p0, cfg0, "p0.pager");
    pg1 = test::PagerPtr(sim, p1, cfg1, "p1.pager");
    pool->attach(*pg0);
    pool->attach(*pg1);
  }

  void run_all() { sim.drain(); }

  /// Maps `count` data pages into `as` by writing distinct words.
  static void map_pages(mem::AddressSpace& as, unsigned count) {
    for (unsigned i = 0; i < count; ++i) as.write_u64(kBase + i * 4096ull, 0x1000 + i);
  }
};

TEST_F(PoolFixture, GlobalSweepEvictsAnotherProcessesPage) {
  FramePoolConfig pc;
  pc.mode = BudgetMode::kGlobal;
  pc.total_frames = 2;
  PagerConfig global_pager;
  global_pager.budget_mode = BudgetMode::kGlobal;
  make(pc, global_pager, global_pager);

  map_pages(as0, 2);  // p0 fills the whole machine budget
  EXPECT_EQ(pool->resident_pages(), 2u);
  const u64 shootdowns_before = p0.shootdowns();

  // p1 faults: the global sweep must victimize one of p0's pages — through
  // p0's Process, so p0's TLB shootdown fires.
  bool ready = false;
  pg1->handle_fault(kBase, /*is_write=*/false, [&] { ready = true; });
  run_all();

  EXPECT_TRUE(ready);
  EXPECT_EQ(as0.resident_pages(), 1u);  // one p0 page gone
  EXPECT_GT(p0.shootdowns(), shootdowns_before);
  EXPECT_EQ(pg0->evictions(), 1u);          // owner performed the eviction
  EXPECT_EQ(pool->cross_evictions(), 1u);   // and it crossed processes
  EXPECT_EQ(pool->evictions(), 1u);
}

TEST_F(PoolFixture, GlobalBudgetNeverExceededAcrossProcesses) {
  FramePoolConfig pc;
  pc.mode = BudgetMode::kGlobal;
  pc.total_frames = 3;
  PagerConfig global_pager;
  global_pager.budget_mode = BudgetMode::kGlobal;
  make(pc, global_pager, global_pager);

  // Interleave faults from both processes over many more pages than fit.
  // (Direct address-space writes bypass budget enforcement, so drive the
  // fault path the way hardware threads do.)
  for (unsigned i = 0; i < 6; ++i) {
    pg0->handle_fault(kBase + i * 4096ull, true, [this, i] { as0.write_u64(kBase + i * 4096ull, i); });
    run_all();
    pg1->handle_fault(kBase + i * 4096ull, true, [this, i] { as1.write_u64(kBase + i * 4096ull, i); });
    run_all();
  }
  EXPECT_LE(pool->peak_resident_pages(), 3u);
  EXPECT_LE(as0.resident_pages() + as1.resident_pages(), 3u);
  EXPECT_GT(pool->evictions(), 0u);
}

TEST_F(PoolFixture, DirtyCrossProcessVictimPaysWritebackOnOwnersDevice) {
  FramePoolConfig pc;
  pc.mode = BudgetMode::kGlobal;
  pc.total_frames = 1;
  PagerConfig global_pager;
  global_pager.budget_mode = BudgetMode::kGlobal;
  make(pc, global_pager, global_pager);

  map_pages(as0, 1);  // dirty (written) and fills the budget
  bool ready = false;
  pg1->handle_fault(kBase, false, [&] { ready = true; });
  run_all();
  EXPECT_TRUE(ready);
  EXPECT_EQ(pg0->writebacks(), 1u);        // owner charged the writeback...
  EXPECT_EQ(pg0->swap().writes(), 1u);     // ...on its own swap device
  EXPECT_EQ(pg1->swap().writes(), 0u);
}

TEST_F(PoolFixture, GlobalPagerOnPerProcessPoolIsRejected) {
  // A kGlobal pager asks the pool for victims, but a kPerProcess pool keeps
  // no sweep ring: no victim would ever come back, and residency would grow
  // past the budget silently.
  FramePoolConfig pc;
  pc.mode = BudgetMode::kPerProcess;
  pc.total_frames = 2;
  PagerConfig global_pager;
  global_pager.budget_mode = BudgetMode::kGlobal;
  EXPECT_THROW(make(pc, global_pager, global_pager), std::invalid_argument);
}

TEST_F(PoolFixture, PerProcessPagerOnGlobalPoolIsRejected) {
  // The reverse pairing would enforce only the pager's own frame_budget and
  // ignore the machine-wide one.
  FramePoolConfig pc;
  pc.mode = BudgetMode::kGlobal;
  pc.total_frames = 2;
  try {
    make(pc);
    FAIL() << "a per-process pager must not attach to a global pool";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("p0.pager"), std::string::npos) << msg;
    EXPECT_NE(msg.find("per-process"), std::string::npos) << msg;
    EXPECT_NE(msg.find("global"), std::string::npos) << msg;
  }
}

// --- budget-mode equivalence --------------------------------------------

/// Drives one pager through a fixed revisit-heavy fault chain and returns
/// (final cycle count, pager stat snapshot). Faults are sequential, like a
/// single hardware thread's.
std::pair<Cycles, std::map<std::string, double>> run_budget_scenario(BudgetMode mode, u64 budget) {
  sim::Simulator sim;
  mem::PhysicalMemory pm{64 * MiB};
  mem::FrameAllocator frames{0, (64 * MiB) / 4096, 4096};
  mem::AddressSpace as{pm, frames, mem::PageTableConfig{}};
  rt::Process proc{sim, as, "p"};

  FramePoolConfig pool_cfg;
  pool_cfg.mode = mode;
  pool_cfg.total_frames = budget;
  FramePool pool(sim, pool_cfg, "pool");

  PagerConfig cfg;
  cfg.budget_mode = mode;
  cfg.frame_budget = (mode == BudgetMode::kPerProcess) ? budget : 0;
  const test::PagerPtr owned(sim, proc, cfg, "pager");
  Pager& pager = *owned;
  pool.attach(pager);

  const std::vector<unsigned> pattern = {0, 1, 2, 3, 0, 1, 4, 2, 5, 0, 3, 1};
  std::size_t next = 0;
  std::function<void()> step = [&] {
    if (next >= pattern.size()) return;
    const VirtAddr va = 0x10000 + pattern[next++] * 4096ull;
    pager.handle_fault(va, /*is_write=*/true, [&, va] {
      if (!as.is_mapped(va)) as.write_u64(va, va);  // map + dirty, like the OS tail
      sim.schedule_in(10, [&] { step(); });
    });
  };
  step();
  sim.drain();
  return {sim.now(), sim.stats().snapshot_prefix("pager.")};
}

TEST(BudgetEquivalence, SingleProcessGlobalEqualsPerProcessBitIdentical) {
  // A one-member global pool must be cycle- and stat-identical to the same
  // budget enforced per-process: the global CLOCK over packed keys is the
  // same ring as the per-process CLOCK over vpns.
  const auto per_process = run_budget_scenario(BudgetMode::kPerProcess, 3);
  const auto global = run_budget_scenario(BudgetMode::kGlobal, 3);
  EXPECT_EQ(per_process.first, global.first);
  EXPECT_EQ(per_process.second, global.second);  // every pager counter + histogram moment
}

// --- working-set estimation + auto budgets ------------------------------

TEST_F(PoolFixture, AutoBudgetRebalancesProportionalToWorkingSets) {
  FramePoolConfig pc;
  pc.mode = BudgetMode::kPerProcess;
  pc.total_frames = 12;
  pc.auto_budget = true;
  pc.min_budget = 2;
  PagerConfig cfg;
  cfg.frame_budget = 6;  // start even; WS sweeps should skew 8 / 4
  cfg.ws_interval = 1000;
  make(pc, cfg, cfg);

  map_pages(as0, 8);  // p0's working set: 8 pages
  map_pages(as1, 4);  // p1's: 4 pages
  run_all();          // both estimators sweep once, pool rebalances

  EXPECT_EQ(pg0->working_set_pages(), 8u);
  EXPECT_EQ(pg1->working_set_pages(), 4u);
  EXPECT_GE(pool->rebalances(), 1u);
  EXPECT_EQ(pg0->frame_budget(), 8u);
  EXPECT_EQ(pg1->frame_budget(), 4u);
}

TEST_F(PoolFixture, WorkingSetEstimatorAgesOutColdPages) {
  FramePoolConfig pc;  // pool inert; this exercises the per-pager estimator
  PagerConfig cfg;
  cfg.ws_interval = 1000;
  cfg.ws_window = 1000;
  make(pc, cfg, cfg);

  map_pages(as0, 4);
  run_all();  // sweep 1: all four referenced at map time
  EXPECT_EQ(pg0->working_set_pages(), 4u);

  // Two pages stay hot, the others go cold; new activity re-arms the sweep.
  sim.schedule_in(5000, [this] {
    as0.write_u64(kBase, 1);
    as0.write_u64(kBase + 4096, 2);
    as0.write_u64(kBase + 4 * 4096ull, 3);  // maps a 5th page -> activity
  });
  run_all();
  EXPECT_EQ(pg0->working_set_pages(), 3u);  // 2 hot + 1 fresh, 2 aged out
}

// --- pageout daemon ------------------------------------------------------

TEST_F(PoolFixture, PageoutDaemonCleansDirtyPagesAheadOfPressure) {
  FramePoolConfig pc;
  PagerConfig cfg;
  cfg.frame_budget = 4;
  cfg.pageout_interval = 500;
  cfg.pageout_batch = 8;
  cfg.pageout_watermark_pct = 50;
  make(pc, cfg, cfg);

  map_pages(as0, 4);  // resident == budget -> well above the watermark
  run_all();          // daemon tick at t=500 cleans the dirty pages

  EXPECT_EQ(pg0->pageouts(), 4u);
  EXPECT_EQ(pg0->swap().writes(), 4u);
  for (unsigned i = 0; i < 4; ++i) EXPECT_FALSE(pg0->page_dirty((kBase >> 12) + i));

  // The next fault's victim is now clean: eviction without writeback stall.
  bool ready = false;
  pg0->handle_fault(kBase + 8 * 4096ull, false, [&] { ready = true; });
  run_all();
  EXPECT_TRUE(ready);
  EXPECT_GE(pg0->evictions(), 1u);
  EXPECT_EQ(pg0->writebacks(), 0u);
}

TEST_F(PoolFixture, IdleDaemonsDisarmAndTheQueueDrains) {
  FramePoolConfig pc;
  PagerConfig cfg;
  cfg.frame_budget = 8;
  cfg.ws_interval = 1000;
  cfg.pageout_interval = 700;
  make(pc, cfg, cfg);

  map_pages(as0, 2);
  run_all();  // must terminate: daemons disarm once activity stops
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace vmsls::paging

// --- ProcessGroup: the fig10 substrate -----------------------------------

namespace vmsls {
namespace {

struct GroupSnapshot {
  Cycles cycles = 0;
  u64 events = 0;
  std::map<std::string, double> stats;
};

u64 ws_pages(const workloads::Workload& wl) {
  u64 bytes = 0;
  for (const auto& buf : wl.buffers) bytes += buf.bytes;
  return ceil_div(bytes, u64{4096});
}

/// Builds the fig10 smallest scenario: hash_join + pointer_chase sharing a
/// frame pool over-subscribed at `oversub_pct` percent (aggregate working
/// set = oversub_pct% of the frame budget), cold-started.
GroupSnapshot run_group_scenario(paging::BudgetMode mode, unsigned oversub_pct) {
  workloads::WorkloadParams p;
  p.n = 512;
  std::vector<workloads::Workload> wls = {workloads::make_hash_join(p),
                                          workloads::make_pointer_chase(p)};
  u64 total_ws = 0;
  for (const auto& wl : wls) total_ws += ws_pages(wl);
  const u64 total_budget = std::max<u64>(4, total_ws * 100 / oversub_pct);

  sls::PlatformSpec plat = sls::zynq7020();
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = mode;
  pool_cfg.total_frames = total_budget;

  sim::Simulator sim;
  sls::ProcessGroup group(sim, plat, pool_cfg);
  for (std::size_t i = 0; i < wls.size(); ++i) {
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.budget_mode = mode;
    proc_plat.pager.frame_budget =
        (mode == paging::BudgetMode::kPerProcess)
            ? std::max<u64>(2, ws_pages(wls[i]) * 100 / oversub_pct)
            : 0;
    sls::SynthesisFlow flow(proc_plat);
    auto app = workloads::single_thread_app(wls[i], sls::ThreadKind::kHardware);
    const auto image = flow.synthesize(app);
    auto& system = group.add_process(image, test::numbered("p", i));
    wls[i].setup(system);
    // Cold start: every buffer page must come back through the timed fault
    // path under the shared budget.
    for (const auto& buf : system.image().app().buffers)
      system.process().evict(system.buffer(buf.name), buf.bytes);
  }

  // Setup traffic eagerly mapped (and then evicted) whole buffers outside
  // the fault path; the budget invariant applies from here on.
  group.pool().reset_peak_residency();
  group.start_all();
  GroupSnapshot s;
  s.cycles = group.run_to_completion();
  // The machine-wide budget invariant — checked before verification, whose
  // functional reads re-map pages outside the budgeted fault path.
  if (mode == paging::BudgetMode::kGlobal) {
    EXPECT_LE(group.pool().peak_resident_pages(), total_budget);
  }
  for (std::size_t i = 0; i < wls.size(); ++i) EXPECT_TRUE(wls[i].verify(group.process(i)));
  s.events = sim.events_executed();
  s.stats = sim.stats().snapshot();
  return s;
}

TEST(ProcessGroup, GlobalModeContendsAndStaysUnderBudget) {
  const auto s = run_group_scenario(paging::BudgetMode::kGlobal, 200);
  EXPECT_GT(s.stats.at("pool.evictions"), 0.0);
  // Cross-process pressure is the whole point of the global sweep.
  EXPECT_GT(s.stats.at("pool.cross_evictions"), 0.0);
  // Both processes faulted under the shared budget.
  EXPECT_GT(s.stats.at("p0.faults.faults"), 0.0);
  EXPECT_GT(s.stats.at("p1.faults.faults"), 0.0);
}

TEST(ProcessGroup, PerProcessModeEnforcesEachBudget) {
  const auto s = run_group_scenario(paging::BudgetMode::kPerProcess, 200);
  EXPECT_GT(s.stats.at("p0.pager.evictions"), 0.0);
  EXPECT_GT(s.stats.at("p1.pager.evictions"), 0.0);
  EXPECT_EQ(s.stats.at("pool.cross_evictions"), 0.0);  // never crosses
}

TEST(ProcessGroup, Fig10ScenarioIsRunToRunDeterministic) {
  const auto a = run_group_scenario(paging::BudgetMode::kGlobal, 200);
  const auto b = run_group_scenario(paging::BudgetMode::kGlobal, 200);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.stats, b.stats);  // every counter and histogram moment
}

TEST(ProcessGroup, DrainChecksTheMachineLedger) {
  workloads::WorkloadParams p;
  p.n = 64;
  const auto wl = workloads::make_workload("vecadd", p);
  sim::Simulator sim;
  sls::ProcessGroup group(sim, sls::zynq7020(), paging::FramePoolConfig{});
  sls::SynthesisFlow flow(sls::zynq7020());
  auto& system = group.add_process(
      flow.synthesize(workloads::single_thread_app(wl, sls::ThreadKind::kHardware)), "p0");
  wl.setup(system);
  group.drain();  // balanced after setup

  std::optional<u64> frame;
  system.address_space().for_each_resident([&](u64 vpn) {
    if (!frame) frame = system.address_space().frame_of(vpn);
  });
  ASSERT_TRUE(frame.has_value());
  group.frames().ref(*frame);  // a reference no page table accounts for
  try {
    group.drain();
    FAIL() << "drain must check frame refcounts";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    std::string want = "frame ";
    want += std::to_string(*frame);
    want += ": refcount 2 != page-table mappings 1";
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  }
  group.frames().free(*frame);
  group.drain();
}

TEST(ProcessGroup, ForkSharesFramesAndTheCowCopyPaysTheBus) {
  sim::Simulator sim;
  sls::ProcessGroup group(sim, sls::zynq7020(), paging::FramePoolConfig{});
  sls::System& parent = group.add_process("p0");
  mem::AddressSpace& as0 = parent.address_space();
  const VirtAddr va = as0.alloc(2 * 4096, 4096);
  as0.write_u64(va, 0xAAAA);  // two dirty anonymous pages
  as0.write_u64(va + 4096, 0xBBBB);

  sls::System& child = group.fork(parent, "p1");
  mem::AddressSpace& as1 = child.address_space();
  for (u64 p = 0; p < 2; ++p) {
    const auto pte0 = as0.page_table().lookup(va + p * 4096);
    const auto pte1 = as1.page_table().lookup(va + p * 4096);
    ASSERT_TRUE(pte0.has_value() && pte1.has_value());
    EXPECT_EQ(pte1->frame, pte0->frame);  // shared by reference
    EXPECT_EQ(group.frames().refcount(pte0->frame), 2u);
  }
  group.drain();

  // The child's first write copies the frame: one page-sized bus write.
  const Counter& requests = sim.stats().counter("bus.requests");
  const Counter& bytes = sim.stats().counter("bus.bytes");
  const u64 requests0 = requests.value(), bytes0 = bytes.value();
  paging::Pager& pg1 = *child.pager();
  bool done = false;
  pg1.handle_fault(va, /*is_write=*/true, [&] { done = true; });
  group.drain();
  ASSERT_TRUE(done);
  as1.write_u64(va, 0xC1C1);
  EXPECT_EQ(pg1.cow_copies(), 1u);
  EXPECT_EQ(requests.value() - requests0, 1u);
  EXPECT_EQ(bytes.value() - bytes0, 4096u);
  EXPECT_EQ(as0.read_u64(va), 0xAAAAu);
  EXPECT_EQ(as1.read_u64(va), 0xC1C1u);
  group.drain();
}

TEST(ProcessGroup, MixedGroupRunsToCompletionAndListsEveryPager) {
  workloads::WorkloadParams p;
  p.n = 64;
  const auto wl = workloads::make_workload("vecadd", p);
  sim::Simulator sim;
  sls::ProcessGroup group(sim, sls::zynq7020(), paging::FramePoolConfig{});
  sls::SynthesisFlow flow(sls::zynq7020());
  auto& threaded = group.add_process(
      flow.synthesize(workloads::single_thread_app(wl, sls::ThreadKind::kHardware)), "p0");
  auto& pager_only = group.add_process("p1");
  EXPECT_TRUE(pager_only.all_halted());  // no threads: halted from the start
  wl.setup(threaded);

  group.start_all();
  EXPECT_GT(group.run_to_completion(), 0u);  // returns once p0's thread halts
  EXPECT_TRUE(wl.verify(threaded));
  EXPECT_EQ(group.pagers(),
            (std::vector<const paging::Pager*>{threaded.pager(), pager_only.pager()}));
  group.drain();
}

TEST(ProcessGroup, RefusesAMemberThatDisagreesOnAMachineSetting) {
  workloads::WorkloadParams p;
  p.n = 64;
  const auto app =
      workloads::single_thread_app(workloads::make_vecadd(p), sls::ThreadKind::kHardware);
  const auto expect_refused = [&](sls::PlatformSpec member, const std::string& field) {
    sim::Simulator sim;
    sls::ProcessGroup group(sim, sls::zynq7020(), paging::FramePoolConfig{});
    group.add_process(sls::SynthesisFlow(sls::zynq7020()).synthesize(app), "p0");
    try {
      group.add_process(sls::SynthesisFlow(member).synthesize(app), "p1");
      FAIL() << "a member with a different " << field << " must be refused";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("p1.vecadd: " + field), std::string::npos)
          << e.what();
    }
  };
  sls::PlatformSpec bcache = sls::zynq7020();
  bcache.pager.bcache.capacity_blocks /= 2;
  expect_refused(bcache, "pager.bcache.capacity_blocks");
  sls::PlatformSpec shared = sls::zynq7020();
  shared.pager.swap.shared = true;
  expect_refused(shared, "pager.swap.shared");
  sls::PlatformSpec page = sls::zynq7020();
  page.page_table.page_bits = 16;
  expect_refused(page, "page_table.page_bits");

  // Matching members build, and per-process pager settings may differ.
  sim::Simulator sim;
  sls::PlatformSpec machine = sls::zynq7020();
  machine.pager.swap.shared = true;
  sls::ProcessGroup group(sim, machine, paging::FramePoolConfig{});
  sls::PlatformSpec member = machine;
  member.pager.frame_budget = 8;
  member.pager.swap.readahead = 2;
  group.add_process(sls::SynthesisFlow(machine).synthesize(app), "p0");
  group.add_process(sls::SynthesisFlow(member).synthesize(app), "p1");
  EXPECT_EQ(group.size(), 2u);
  member.pager.swap.write_latency += 1;  // one device, one timing
  try {
    group.add_process(sls::SynthesisFlow(member).synthesize(app), "p2");
    FAIL() << "a member with different shared swap timing must be refused";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("p2.vecadd: pager.swap.write_latency"),
              std::string::npos)
        << e.what();
  }
}

// --- DSE: pager × TLB grid ------------------------------------------------

TEST(DsePagerGrid, SerialAndParallelGridIdentical) {
  workloads::WorkloadParams p;
  p.n = 16;
  auto wl = workloads::make_workload("matmul", p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  auto evaluate = [&wl](const sls::SystemImage& image) {
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    wl.setup(*system);
    // Cold-start under pressure so the pager point actually matters.
    for (const auto& buf : system->image().app().buffers)
      system->process().evict(system->buffer(buf.name), buf.bytes);
    system->start_all();
    return system->run_to_completion();
  };
  const std::vector<unsigned> tlbs = {2, 8};
  const std::vector<sls::PagerCandidate> pagers = {
      {0, paging::PolicyKind::kClock},        // pressure-free baseline
      {8, paging::PolicyKind::kClock},
      {8, paging::PolicyKind::kRandom},
  };

  sls::DesignSpaceExplorer serial(sls::zynq7020());
  serial.set_threads(1);
  const std::vector<sls::DseAxis> grid = {sls::pager_axis(pagers), sls::tlb_axis(tlbs)};
  const auto a = serial.explore(app, "worker", grid, evaluate);

  sls::DesignSpaceExplorer parallel(sls::zynq7020());
  parallel.set_threads(4);
  const auto b = parallel.explore(app, "worker", grid, evaluate);

  ASSERT_EQ(a.candidates.size(), tlbs.size() * pagers.size());
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].tlb_entries, b.candidates[i].tlb_entries);
    const paging::PagerConfig& pa = a.candidates[i].image.platform().pager;
    const paging::PagerConfig& pb = b.candidates[i].image.platform().pager;
    EXPECT_EQ(pa.frame_budget, pb.frame_budget);
    EXPECT_EQ(pa.policy, pb.policy);
    EXPECT_EQ(a.candidates[i].measured, b.candidates[i].measured);
    EXPECT_EQ(a.candidates[i].cycles, b.candidates[i].cycles);
  }
  EXPECT_EQ(a.best, b.best);
  ASSERT_GE(a.best, 0);
  // Pressure-free candidates must beat the budget-constrained ones.
  EXPECT_EQ(a.candidates[static_cast<std::size_t>(a.best)].image.platform().pager.frame_budget,
            0u);
}

TEST(DsePagerGrid, ExploreTlbStillSweepsAtThePlatformOperatingPoint) {
  workloads::WorkloadParams p;
  p.n = 16;
  auto wl = workloads::make_workload("matmul", p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  sls::DesignSpaceExplorer dse(sls::zynq7020());
  const auto r = dse.explore_tlb(app, "worker", {2, 4, 8});
  ASSERT_EQ(r.candidates.size(), 3u);
  for (const auto& c : r.candidates) EXPECT_EQ(c.image.platform().pager.frame_budget, 0u);
  EXPECT_GE(r.best, 0);
}

}  // namespace
}  // namespace vmsls
