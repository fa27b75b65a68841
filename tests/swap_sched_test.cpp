// SwapScheduler unit/integration tests (the device's transfer timing and slot
// bookkeeping are in swap_device_test): the request queue's dispatch
// policies (priority with the writeback starvation guard, demand-over-
// prefetch ordering, FIFO arrival order), the clustering slot allocator's
// neighbor geometry and owner isolation, the slot-limit diagnostics, the
// speculative (wrong-path prefetch) reclaim-first probe, readahead landing
// resident-clean with balanced ledgers, and the determinism contract that
// admits the whole subsystem: a single-member shared device is
// bit-identical to a private one.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include "mem/paging/ledger.hpp"
#include "mem/paging/pager.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "sls/dse.hpp"
#include "sls/process_group.hpp"
#include "sls/report_writer.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::paging {
namespace {

SwapConfig fast_cfg() {
  SwapConfig cfg;
  cfg.read_latency = 50;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 64;  // 4096-byte page -> 64-cycle transfer tail
  return cfg;
}

/// The readahead candidates as a fresh vector.
std::vector<u64> neighbors(const SwapScheduler& sched, unsigned owner, u64 vpn, unsigned k) {
  std::vector<u64> out{~0ull};  // stale contents are replaced, not appended to
  sched.neighbors(owner, vpn, k, out);
  return out;
}

TEST(SwapScheduler, PrioritySchedulerNeverStarvesWritebacks) {
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();
  cfg.sched = SwapSchedPolicy::kPriority;
  cfg.writeback_starvation_limit = 4;
  cfg.cluster_pages = 1;  // no slot adjacency: pure scheduling, no batching
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");

  // 16 demand-read candidates and one writeback, all queued while the port
  // is busy with the first read: priority alone would drain every read
  // first, so the guard must force the writeback after at most 4 bypasses.
  for (u64 vpn = 0; vpn < 16; ++vpn) sched.note_swapped(owner, 100 + vpn);
  std::vector<std::string> order;
  sched.read(owner, 100, SwapReqClass::kDemandRead, [&] { order.push_back("read"); });
  sched.write(owner, 7, SwapReqClass::kWriteback, [&] { order.push_back("writeback"); });
  for (u64 vpn = 1; vpn < 16; ++vpn)
    sched.read(owner, 100 + vpn, SwapReqClass::kDemandRead, [&] { order.push_back("read"); });
  sim.drain();

  ASSERT_EQ(order.size(), 17u);
  const auto wb_pos = static_cast<std::size_t>(
      std::find(order.begin(), order.end(), "writeback") - order.begin());
  // Bounded wait: the in-flight read plus at most `limit` bypassing reads
  // complete before the writeback does.
  EXPECT_LE(wb_pos, 1u + cfg.writeback_starvation_limit);
  EXPECT_GE(sched.wb_promotions(), 1u);
}

TEST(SwapScheduler, WritebacksBoundedUnderSustainedPrefetchTraffic) {
  // The guard ages the OLDEST queued request whatever its class: a
  // writeback must not starve behind a stream of prefetch reads either
  // (prefetch ranks above writeback, so pure priority would bypass it
  // forever).
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();
  cfg.sched = SwapSchedPolicy::kPriority;
  cfg.writeback_starvation_limit = 3;
  cfg.cluster_pages = 1;  // no slot adjacency: pure scheduling, no batching
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  for (u64 vpn = 0; vpn < 10; ++vpn) sched.note_swapped(owner, 100 + vpn);

  std::vector<std::string> order;
  sched.read(owner, 100, SwapReqClass::kPrefetchRead, [&] { order.push_back("prefetch"); });
  sched.write(owner, 7, SwapReqClass::kWriteback, [&] { order.push_back("writeback"); });
  for (u64 vpn = 1; vpn < 10; ++vpn)
    sched.read(owner, 100 + vpn, SwapReqClass::kPrefetchRead,
               [&] { order.push_back("prefetch"); });
  sim.drain();

  ASSERT_EQ(order.size(), 11u);
  const auto wb_pos = static_cast<std::size_t>(
      std::find(order.begin(), order.end(), "writeback") - order.begin());
  EXPECT_LE(wb_pos, 1u + cfg.writeback_starvation_limit);
}

TEST(SwapScheduler, DemandReadsOvertakeQueuedPrefetches) {
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();
  cfg.sched = SwapSchedPolicy::kPriority;
  cfg.cluster_pages = 1;  // no slot adjacency: pure scheduling, no batching
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  for (u64 vpn = 0; vpn < 8; ++vpn) sched.note_swapped(owner, vpn);

  std::vector<std::string> order;
  // Port occupied by the first prefetch; three more prefetches queue, then
  // a demand read arrives late and must still be serviced next.
  for (u64 vpn = 0; vpn < 4; ++vpn)
    sched.read(owner, vpn, SwapReqClass::kPrefetchRead, [&] { order.push_back("prefetch"); });
  sched.read(owner, 7, SwapReqClass::kDemandRead, [&] { order.push_back("demand"); });
  sim.drain();

  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[1], "demand");  // right behind the in-flight prefetch
}

TEST(SwapScheduler, SameClusterReadsMergeIntoOneDeviceOperation) {
  // Clustered swap-in: queued reads on adjacent slots dispatch as ONE
  // device operation — one access latency, streamed bytes — so a
  // readahead batch costs little more than its demand page alone.
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();  // read: 50 + 4096/64 = 114 cycles per page op
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  for (u64 vpn = 10; vpn < 14; ++vpn) sched.note_swapped(owner, vpn);

  Cycles done_at[4] = {0, 0, 0, 0};
  sched.batched([&] {
    sched.read(owner, 10, SwapReqClass::kDemandRead, [&] { done_at[0] = sim.now(); });
    for (u64 i = 1; i < 4; ++i)
      sched.read(owner, 10 + i, SwapReqClass::kPrefetchRead,
                 [&, i] { done_at[i] = sim.now(); });
  });
  sim.drain();
  // One clustered op: latency once, bandwidth for all four pages — not
  // four serialized full ops.
  const Cycles expect = 50 + 4 * (4096 / 64);
  for (const Cycles t : done_at) EXPECT_EQ(t, expect);
  EXPECT_EQ(sched.reads(), 4u);
}

TEST(SwapScheduler, FifoServicesArrivalOrderAcrossClasses) {
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();
  cfg.sched = SwapSchedPolicy::kFifo;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  for (u64 vpn = 0; vpn < 4; ++vpn) sched.note_swapped(owner, vpn);

  std::vector<std::string> order;
  sched.read(owner, 0, SwapReqClass::kPrefetchRead, [&] { order.push_back("p0"); });
  sched.read(owner, 1, SwapReqClass::kPrefetchRead, [&] { order.push_back("p1"); });
  sched.read(owner, 3, SwapReqClass::kDemandRead, [&] { order.push_back("d"); });
  sim.drain();
  EXPECT_EQ(order, (std::vector<std::string>{"p0", "p1", "d"}));
}

TEST(SwapScheduler, ClusteringKeepsAnOwnersNeighborsAdjacent) {
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();
  cfg.cluster_pages = 16;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned a = sched.register_owner("a.pager");
  const unsigned b = sched.register_owner("b.pager");

  // Owner A evicts a contiguous run (out of order) plus a page in another
  // cluster; owner B evicts the same vpns. Neighbor queries must see only
  // the owner's pages, in vpn order, within the cluster.
  sched.note_swapped(a, 12);
  sched.note_swapped(a, 10);
  sched.note_swapped(a, 11);
  sched.note_swapped(a, 10 + cfg.cluster_pages);  // different cluster
  sched.note_swapped(b, 11);
  sched.note_swapped(b, 13);

  EXPECT_EQ(neighbors(sched, a, 10, 4), (std::vector<u64>{11, 12}));
  EXPECT_EQ(neighbors(sched, a, 10, 1), (std::vector<u64>{11}));
  EXPECT_EQ(neighbors(sched, b, 11, 4), (std::vector<u64>{13}));
  // The cross-cluster page is never a neighbor, however deep the window.
  const auto deep = neighbors(sched, a, 12, 64);
  EXPECT_TRUE(deep.empty());
  EXPECT_TRUE(sched.holds(a, 10) && sched.holds(b, 11));
  EXPECT_FALSE(sched.holds(b, 10));
}

TEST(SwapScheduler, SlotLimitErrorNamesDeviceOwnerAndUsage) {
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();
  cfg.slot_limit = 2;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned owner = sched.register_owner("p7.pager");
  sched.note_swapped(owner, 1);
  sched.note_swapped(owner, 2);
  EXPECT_NO_THROW(sched.note_swapped(owner, 2));  // re-note of a held page takes no slot
  try {
    sched.note_swapped(owner, 3);
    FAIL() << "slot limit should be a hard error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("swap"), std::string::npos) << msg;
    EXPECT_NE(msg.find("p7.pager"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2/2"), std::string::npos) << msg;
  }
  // A write allocates through the same bookkeeping, so a new page hits the
  // same wall; a held page can still be re-written (no new slot).
  EXPECT_THROW(sched.write(owner, 4, SwapReqClass::kDemandWrite, [] {}), std::runtime_error);
  EXPECT_NO_THROW(sched.write(owner, 1, SwapReqClass::kDemandWrite, [] {}));
  sim.drain();
  EXPECT_EQ(sched.slots_in_use(), 2u);
  // A write queued behind a swap-in of the same page re-holds the slot the
  // read freed when it dispatches: still within the limit.
  sched.read(owner, 2, SwapReqClass::kDemandRead, [] {});
  EXPECT_NO_THROW(sched.write(owner, 2, SwapReqClass::kDemandWrite, [] {}));
  sim.drain();
  EXPECT_TRUE(sched.holds(owner, 2));
  EXPECT_EQ(sched.slots_in_use(), 2u);
}

TEST(SwapScheduler, LookupsOutsideTheSlotTableAreAbsent) {
  sim::Simulator sim;
  SwapScheduler sched(sim, fast_cfg(), 4096, "swap");
  const unsigned owner = sched.register_owner("pager");
  sched.note_swapped(owner, 5);
  EXPECT_TRUE(sched.holds(owner, 5));
  EXPECT_FALSE(sched.holds(owner, 6));          // inside the table, not held
  EXPECT_FALSE(sched.holds(owner, 1ull << 40));  // far past the table's end
  EXPECT_FALSE(sched.holds(owner + 1, 5));       // unregistered owner
  EXPECT_EQ(sched.slot_of(owner + 1, 5), SwapScheduler::kNone);
  EXPECT_TRUE(neighbors(sched, owner, 1ull << 40, 4).empty());
  EXPECT_TRUE(neighbors(sched, owner + 1, 5, 4).empty());
  EXPECT_TRUE(neighbors(sched, owner, 4, 4).empty());
}

TEST(SwapScheduler, FreedRegionsAreReusedLowestFirst) {
  // Two owners' clusters drain in the order regions 1, 3, 0: lowest-first
  // reuse hands them out as 0, 1, 3 (a FIFO free list would give 1, 3, 0
  // and a LIFO one 0, 3, 1), then the allocator grows past the top.
  sim::Simulator sim;
  SwapConfig cfg = fast_cfg();
  cfg.cluster_pages = 4;
  SwapScheduler sched(sim, cfg, 4096, "swap");
  const unsigned a = sched.register_owner("a");
  const unsigned b = sched.register_owner("b");
  auto region = [&](unsigned owner, u64 vpn) {
    return sched.slot_of(owner, vpn) / cfg.cluster_pages;
  };
  for (const auto& [owner, vpn] : std::vector<std::pair<unsigned, u64>>{
           {a, 0}, {a, 1}, {b, 100}, {a, 8}, {b, 104}, {b, 105}})
    sched.note_swapped(owner, vpn);
  EXPECT_EQ(region(a, 0), 0u);
  EXPECT_EQ(region(b, 100), 1u);
  EXPECT_EQ(region(a, 8), 2u);
  EXPECT_EQ(region(b, 104), 3u);
  for (const auto& [owner, vpn] : std::vector<std::pair<unsigned, u64>>{
           {b, 100}, {b, 104}, {b, 105}, {a, 0}, {a, 1}})
    sched.read(owner, vpn, SwapReqClass::kDemandRead, [] {});
  sim.drain();
  EXPECT_EQ(sched.slots_in_use(), 1u);  // a's vpn 8, region 2

  sched.note_swapped(b, 200);
  sched.note_swapped(a, 41);
  sched.note_swapped(a, 40);  // same cluster as 41
  sched.note_swapped(b, 300);
  sched.note_swapped(b, 400);
  EXPECT_EQ(region(b, 200), 0u);
  EXPECT_EQ(region(a, 40), 1u);
  EXPECT_EQ(region(a, 41), 1u);
  EXPECT_EQ(region(b, 300), 3u);
  EXPECT_EQ(region(b, 400), 4u);
  EXPECT_EQ(region(a, 8), 2u);

  // The slot table and the neighbor view agree: every held page is counted
  // once, and no freed slot still names its old page.
  EXPECT_EQ(sched.slots_in_use(), 6u);
  EXPECT_EQ(neighbors(sched, a, 40, 3), std::vector<u64>{41});
  EXPECT_TRUE(neighbors(sched, b, 200, 3).empty());  // a's old vpn 1 slot is free
  EXPECT_TRUE(neighbors(sched, b, 300, 3).empty());  // b's old vpn 105 slot is free
  for (const u64 vpn : {0, 1, 104, 105}) {
    EXPECT_FALSE(sched.holds(a, vpn));
    EXPECT_FALSE(sched.holds(b, vpn));
  }
}

TEST(ReplacementSpeculative, WrongPathPrefetchesAreReclaimedFirst) {
  for (const auto kind :
       {PolicyKind::kClock, PolicyKind::kLruApprox, PolicyKind::kFifo, PolicyKind::kRandom}) {
    test::MemorySystem ms;
    test::KeyOwner owner(ms.as.page_table());  // nothing mapped: nothing referenced
    owner.landings = {2};
    auto policy = make_policy(kind, owner, /*seed=*/3);
    policy->on_insert(1);
    policy->on_insert(2);
    policy->on_insert(3);
    const auto victim = policy->pick_victim();
    ASSERT_TRUE(victim.has_value()) << policy->name();
    EXPECT_EQ(*victim, 2u) << policy->name();
    // Pinned speculative pages stay untouchable even as preferred victims.
    owner.pins = {2};
    const auto second = policy->pick_victim();
    ASSERT_TRUE(second.has_value()) << policy->name();
    EXPECT_NE(*second, 2u) << policy->name();
  }
}

/// Minimal pager harness over the shared test substrate.
struct PagerHarness {
  test::MemorySystem ms;
  rt::OsModel os{ms.sim, rt::OsConfig{}, "os"};
  rt::Process process{ms.sim, ms.as, "p"};
  test::PagerPtr owned;
  Pager& pager;

  explicit PagerHarness(const PagerConfig& cfg)
      : owned(ms.sim, process, cfg, "pager"), pager(*owned) {}
};

TEST(SwapReadahead, PrefetchesNeighborsLandsCleanAndBalancesLedger) {
  PagerConfig pc;
  pc.frame_budget = 16;  // generous: prefetch headroom always available
  pc.swap = fast_cfg();
  pc.swap.readahead = 2;
  PagerHarness h(pc);

  // Six pages with contents, evicted in vpn order so the clustering
  // allocator packs them into adjacent slots.
  const VirtAddr base = h.ms.as.alloc(6 * 4096, 4096);
  for (u64 p = 0; p < 6; ++p) h.ms.as.write_u64(base + p * 4096, 0xAB00 + p);
  LedgerExpect expect;
  expect.external_unmaps = h.process.evict(base, 6 * 4096);
  const u64 vpn0 = base >> 12;

  // One demand fault on page 2 must swap in page 2 and prefetch pages 3, 4.
  bool ready = false;
  h.pager.handle_fault(base + 2 * 4096, /*is_write=*/false, [&] {
    if (!h.ms.as.is_mapped(base + 2 * 4096)) h.ms.as.map_page(base + 2 * 4096);
    ready = true;
  });
  h.ms.sim.drain();

  EXPECT_TRUE(ready);
  EXPECT_EQ(h.pager.swap_ins(), 1u);
  EXPECT_EQ(h.pager.prefetches(), 2u);
  EXPECT_TRUE(h.ms.as.is_mapped(base + 3 * 4096));
  EXPECT_TRUE(h.ms.as.is_mapped(base + 4 * 4096));
  // Prefetched pages land resident-clean and speculative.
  const auto pte3 = h.ms.as.page_table().lookup(base + 3 * 4096);
  ASSERT_TRUE(pte3.has_value());
  EXPECT_FALSE(pte3->dirty);
  EXPECT_FALSE(pte3->accessed);
  EXPECT_TRUE(h.pager.is_speculative(vpn0 + 3));
  EXPECT_TRUE(h.pager.is_speculative(vpn0 + 4));
  EXPECT_FALSE(h.pager.is_speculative(vpn0 + 2));  // demanded, not speculative
  // Contents really came from the backing store.
  EXPECT_EQ(h.ms.as.read_u64(base + 3 * 4096), 0xAB03u);
  EXPECT_EQ(Ledger::of(h.pager).check(expect), std::vector<std::string>{});

  // A reference observed through the accessed-bit funnel graduates the
  // page: accuracy counters move, the speculative flag clears.
  h.ms.as.page_table().set_accessed_dirty(base + 4 * 4096, /*dirty=*/false);
  EXPECT_TRUE(h.pager.probe_accessed(vpn0 + 4));
  EXPECT_FALSE(h.pager.is_speculative(vpn0 + 4));
  EXPECT_EQ(h.pager.prefetch_useful(), 1u);
}

TEST(SwapReadahead, PrefetchStopsAtBudgetAndWrongPathIsReclaimedFirst) {
  PagerConfig pc;
  pc.frame_budget = 3;
  pc.swap = fast_cfg();
  pc.swap.readahead = 4;  // deeper than the budget allows: must be clipped
  PagerHarness h(pc);

  const VirtAddr base = h.ms.as.alloc(8 * 4096, 4096);
  for (u64 p = 0; p < 8; ++p) h.ms.as.write_u64(base + p * 4096, p);
  h.process.evict(base, 8 * 4096);
  const u64 vpn0 = base >> 12;
  auto fault = [&](u64 page) {
    const VirtAddr va = base + page * 4096;
    h.pager.handle_fault(va, false, [&h, va] {
      if (!h.ms.as.is_mapped(va)) h.ms.as.map_page(va);
    });
    h.ms.sim.drain();
  };

  // One demand fault pulls its whole neighborhood: readahead may overshoot
  // the budget by at most its own depth (the swap-cache model), never
  // evicting synchronously to make room for speculation.
  fault(0);
  EXPECT_EQ(h.pager.prefetches(), 4u);
  EXPECT_EQ(h.ms.as.resident_pages(), 5u);  // budget 3 + bounded overshoot
  EXPECT_EQ(h.pager.evictions(), 0u);
  for (u64 p = 1; p <= 4; ++p) EXPECT_TRUE(h.pager.is_speculative(vpn0 + p)) << p;
  EXPECT_FALSE(h.pager.is_speculative(vpn0));  // demanded, not speculative

  // The next demand fault trims the overshoot back under the budget — and
  // every victim must be a speculative landing, never the page the process
  // demonstrably demanded.
  fault(5);
  EXPECT_EQ(h.pager.evictions(), 3u);
  EXPECT_TRUE(h.ms.as.is_mapped(base));  // the demanded page survives
  EXPECT_TRUE(h.ms.as.is_mapped(base + 5 * 4096));
  EXPECT_EQ(h.pager.prefetch_wasted(), 3u);  // the evicted landings were never used
  // The second swap-in prefetches its own two remaining neighbors (6, 7).
  EXPECT_EQ(h.pager.prefetches(), 6u);
  EXPECT_EQ(h.ms.as.resident_pages(), 5u);
}

/// One single-process run through the ProcessGroup harness; `shared`
/// selects the group-wide swap scheduler vs a private per-pager device.
struct GroupRun {
  Cycles cycles = 0;
  u64 events = 0;
  u64 swap_ins = 0;
  u64 evictions = 0;
  u64 writebacks = 0;
  u64 reads = 0;
  u64 writes = 0;
};

GroupRun run_single_member(bool shared) {
  workloads::WorkloadParams p;
  p.n = 256;
  auto wl = workloads::make_workload("hash_join", p);

  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.budget_mode = BudgetMode::kPerProcess;
  plat.pager.frame_budget = 12;
  plat.pager.swap.shared = shared;
  plat.pager.swap.readahead = 2;
  plat.pager.swap.sched = SwapSchedPolicy::kPriority;

  FramePoolConfig pool_cfg;
  pool_cfg.mode = BudgetMode::kPerProcess;

  sim::Simulator sim;
  sls::ProcessGroup group(sim, plat, pool_cfg);
  EXPECT_EQ(group.shared_swap() != nullptr, shared);
  sls::SynthesisFlow flow(plat);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  auto& system = group.add_process(flow.synthesize(app), "p0");
  wl.setup(system);
  for (const auto& buf : system.image().app().buffers)
    system.process().evict(system.buffer(buf.name), buf.bytes);

  group.start_all();
  GroupRun r;
  const u64 before = sim.events_executed();
  r.cycles = group.run_to_completion();
  if (!wl.verify(group.process(0))) throw std::runtime_error("verification failed");
  sim.drain();  // queued writebacks/prefetches finish
  r.events = sim.events_executed() - before;
  auto* pager = system.pager();
  r.swap_ins = pager->swap_ins();
  r.evictions = pager->evictions();
  r.writebacks = pager->writebacks();
  r.reads = pager->swap().reads();
  r.writes = pager->swap().writes();
  return r;
}

TEST(SwapScheduler, SharedSingleMemberBitIdenticalToPrivateDevice) {
  // The determinism contract that admits the shared path at all: with one
  // member, the group-wide scheduler must be cycle- and event-identical to
  // the private per-pager device — same code, same arbitration, different
  // ownership.
  const GroupRun priv = run_single_member(/*shared=*/false);
  const GroupRun shared = run_single_member(/*shared=*/true);
  EXPECT_EQ(priv.cycles, shared.cycles);
  EXPECT_EQ(priv.events, shared.events);
  EXPECT_EQ(priv.swap_ins, shared.swap_ins);
  EXPECT_EQ(priv.evictions, shared.evictions);
  EXPECT_EQ(priv.writebacks, shared.writebacks);
  EXPECT_EQ(priv.reads, shared.reads);
  EXPECT_EQ(priv.writes, shared.writes);
  EXPECT_GT(priv.swap_ins, 0u);  // the contract is vacuous without pressure
}

TEST(SwapDse, ExploreSwapGridSerialEqualsParallel) {
  workloads::WorkloadParams p;
  p.n = 128;
  auto wl = workloads::make_workload("hash_join", p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  auto evaluate = [&wl](const sls::SystemImage& image) {
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    wl.setup(*system);
    for (const auto& buf : system->image().app().buffers)
      system->process().evict(system->buffer(buf.name), buf.bytes);
    system->start_all();
    return system->run_to_completion();
  };
  const std::vector<sls::SwapCandidate> swaps = {
      {SwapSchedPolicy::kFifo, 0}, {SwapSchedPolicy::kFifo, 4}, {SwapSchedPolicy::kPriority, 4}};
  const std::vector<sls::PagerCandidate> budgets = {{6, PolicyKind::kClock},
                                                    {12, PolicyKind::kClock}};

  sls::DesignSpaceExplorer serial(sls::zynq7020());
  serial.set_threads(1);
  const std::vector<sls::DseAxis> grid = {sls::swap_axis(swaps), sls::pager_axis(budgets)};
  const auto a = serial.explore(app, "worker", grid, evaluate);

  sls::DesignSpaceExplorer parallel(sls::zynq7020());
  parallel.set_threads(4);
  const auto b = parallel.explore(app, "worker", grid, evaluate);

  ASSERT_EQ(a.candidates.size(), swaps.size() * budgets.size());
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const PagerConfig& pa = a.candidates[i].image.platform().pager;
    const PagerConfig& pb = b.candidates[i].image.platform().pager;
    EXPECT_EQ(pa.swap.sched, pb.swap.sched);
    EXPECT_EQ(pa.swap.readahead, pb.swap.readahead);
    EXPECT_EQ(pa.frame_budget, pb.frame_budget);
    EXPECT_EQ(a.candidates[i].measured, b.candidates[i].measured);
    EXPECT_EQ(a.candidates[i].cycles, b.candidates[i].cycles);
  }
  EXPECT_EQ(a.best, b.best);
  ASSERT_GE(a.best, 0);
  // The grid is swap-major: candidate order pins the documented layout.
  EXPECT_EQ(a.candidates[0].image.platform().pager.swap.readahead, 0u);
  EXPECT_EQ(a.candidates[2].image.platform().pager.swap.readahead, 4u);
  EXPECT_EQ(a.candidates[1].image.platform().pager.frame_budget, 12u);
}

TEST(SwapSummary, PagerSummarySurfacesQueueWaitAndPrefetchCounters) {
  PagerConfig pc;
  pc.frame_budget = 4;
  pc.swap = fast_cfg();
  pc.swap.readahead = 2;
  PagerHarness h(pc);

  const VirtAddr base = h.ms.as.alloc(8 * 4096, 4096);
  for (u64 p = 0; p < 8; ++p) h.ms.as.write_u64(base + p * 4096, p);
  h.process.evict(base, 8 * 4096);
  for (u64 p = 0; p < 8; ++p) {
    const VirtAddr va = base + p * 4096;
    h.pager.handle_fault(va, false, [&h, va] {
      if (!h.ms.as.is_mapped(va)) h.ms.as.map_page(va);
    });
    h.ms.sim.drain();
  }

  std::ostringstream pager_out;
  sls::write_pager_summary(pager_out, h.ms.sim.stats());
  EXPECT_NE(pager_out.str().find("swap_queue_wait="), std::string::npos) << pager_out.str();
  EXPECT_NE(pager_out.str().find("prefetches="), std::string::npos) << pager_out.str();

  std::ostringstream swap_out;
  sls::write_swap_summary(swap_out, h.ms.sim.stats(), "pager.swap");
  EXPECT_NE(swap_out.str().find("demand_reads="), std::string::npos) << swap_out.str();
  EXPECT_NE(swap_out.str().find("prefetch_reads="), std::string::npos) << swap_out.str();

  std::ostringstream quiet;
  sls::write_swap_summary(quiet, h.ms.sim.stats(), "nonexistent");
  EXPECT_NE(quiet.str().find("inactive"), std::string::npos);
}

}  // namespace
}  // namespace vmsls::paging
