#include <gtest/gtest.h>

#include "hwt/builder.hpp"
#include "sls/dse.hpp"
#include "sls/netlist.hpp"
#include "sls/resources.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::sls {
namespace {

hwt::Kernel trivial_kernel(const std::string& name = "k") {
  hwt::KernelBuilder kb(name);
  kb.mbox_get(1, 0).mbox_put(1, 1).halt();
  return kb.build();
}

// --- resources ---

TEST(Resources, AdditionAndScaling) {
  Resources a{10, 20, 1.5, 2};
  Resources b{1, 2, 0.5, 1};
  const Resources c = a + b;
  EXPECT_EQ(c.luts, 11u);
  EXPECT_EQ(c.ffs, 22u);
  EXPECT_DOUBLE_EQ(c.bram_kb, 2.0);
  EXPECT_EQ(c.dsps, 3u);
  const Resources d = b.scaled(3);
  EXPECT_EQ(d.luts, 3u);
  EXPECT_DOUBLE_EQ(d.bram_kb, 1.5);
}

TEST(Resources, FitsAndUtilization) {
  ResourceBudget budget{100, 100, 10.0, 10};
  EXPECT_TRUE(fits(Resources{100, 50, 5.0, 0}, budget));
  EXPECT_FALSE(fits(Resources{101, 0, 0, 0}, budget));
  EXPECT_DOUBLE_EQ(utilization(Resources{50, 20, 1.0, 0}, budget), 0.5);
}

TEST(Resources, MulKernelUsesDsps) {
  hwt::KernelBuilder kb("mulk");
  kb.li(1, 2).li(2, 3).mul(3, 1, 2).mul(4, 3, 3).halt();
  const Resources r = estimate_kernel(kb.build());
  EXPECT_EQ(r.dsps, 2u);
}

TEST(Resources, ScratchpadCostsBram) {
  hwt::KernelBuilder kb("spadk", 8192);
  kb.li(1, 0).spad_store(1, 1).halt();
  const Resources r = estimate_kernel(kb.build());
  EXPECT_DOUBLE_EQ(r.bram_kb, 8.0);
}

TEST(Resources, TlbScalesWithEntries) {
  mem::TlbConfig small;
  small.entries = 8;
  mem::TlbConfig big;
  big.entries = 64;
  EXPECT_LT(estimate_tlb(small).ffs, estimate_tlb(big).ffs);
}

TEST(Resources, WalkCacheCostsExtra) {
  mem::WalkerConfig with;
  mem::WalkerConfig without;
  without.walk_cache_entries = 0;
  EXPECT_GT(estimate_walker(with).luts, estimate_walker(without).luts);
}

// --- app spec ---

TEST(AppSpec, BuildersAndLookups) {
  AppSpec app;
  app.name = "a";
  app.add_mailbox("m0", 4);
  app.add_mailbox("m1", 8);
  app.add_semaphore("s0", 1);
  app.add_buffer("buf", 4096);
  app.add_hw_thread("t0", trivial_kernel(), {"m0"});
  app.add_sw_thread("t1", trivial_kernel(), {"m1"});
  EXPECT_EQ(app.mailbox_index("m1"), 1u);
  EXPECT_THROW(app.mailbox_index("nope"), std::out_of_range);
  EXPECT_EQ(app.semaphore_index("s0"), 0u);
  EXPECT_EQ(app.thread("t0").kind, ThreadKind::kHardware);
  EXPECT_EQ(app.hw_thread_count(), 1u);
  EXPECT_EQ(app.sw_thread_count(), 1u);
}

// --- netlist ---

TEST(Netlist, InstancesAndLookup) {
  Netlist nl("top");
  auto& inst = nl.add_instance("u0", "widget");
  inst.connections.push_back({"a", "net_a"});
  nl.add_net("net_a");
  EXPECT_EQ(nl.instance_count(), 1u);
  EXPECT_NE(nl.find("u0"), nullptr);
  EXPECT_EQ(nl.find("missing"), nullptr);
}

TEST(Netlist, TextAndVerilogRenderings) {
  Netlist nl("top");
  auto& inst = nl.add_instance("u0", "widget");
  inst.parameters.emplace_back("W", "8");
  inst.connections.push_back({"a", "net_a"});
  nl.add_net("net_a");
  EXPECT_NE(nl.to_text().find("widget u0"), std::string::npos);
  const std::string v = nl.to_verilog();
  EXPECT_NE(v.find("module top"), std::string::npos);
  EXPECT_NE(v.find("wire net_a"), std::string::npos);
  EXPECT_NE(v.find(".W(8)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

// --- synthesis flow ---

AppSpec small_app() {
  AppSpec app;
  app.name = "small";
  app.add_mailbox("args", 8);
  app.add_mailbox("done", 4);
  app.add_buffer("buf", 8 * KiB);
  auto& t = app.add_hw_thread("worker", trivial_kernel(), {"args", "done"});
  t.footprint_hint_bytes = 8 * KiB;
  return app;
}

TEST(Synthesis, ProducesPlansReportNetlist) {
  SynthesisFlow flow(zynq7020());
  const SystemImage image = flow.synthesize(small_app());
  EXPECT_EQ(image.hw_plans().size(), 1u);
  EXPECT_EQ(image.report().hw_threads, 1u);
  EXPECT_TRUE(image.report().fits_budget);
  EXPECT_GT(image.report().total.luts, 0u);
  EXPECT_GT(image.netlist().instance_count(), 2u);
  EXPECT_EQ(image.report().pass_timings.size(), 6u);
  EXPECT_NE(image.netlist().find("hwt_worker"), nullptr);
  EXPECT_NE(image.netlist().find("hwt_worker_mmu"), nullptr);
  EXPECT_NE(image.netlist().find("ptw0"), nullptr);
}

TEST(Synthesis, AutoTlbCoversFootprint) {
  SynthesisFlow flow(zynq7020());
  AppSpec app = small_app();
  app.threads[0].footprint_hint_bytes = 40 * KiB;  // 10 pages -> 16 entries
  const SystemImage image = flow.synthesize(app);
  EXPECT_EQ(image.hw_plan("worker").tlb.entries, 16u);
}

TEST(Synthesis, TlbOverrideWins) {
  SynthesisFlow flow(zynq7020());
  AppSpec app = small_app();
  mem::TlbConfig tlb;
  tlb.entries = 4;
  tlb.ways = 2;
  app.threads[0].tlb_override = tlb;
  const SystemImage image = flow.synthesize(app);
  EXPECT_EQ(image.hw_plan("worker").tlb.entries, 4u);
}

TEST(Synthesis, PhysicalThreadsSkipMmu) {
  SynthesisFlow flow(zynq7020());
  AppSpec app = small_app();
  app.threads[0].addressing = Addressing::kPhysical;
  const SystemImage image = flow.synthesize(app);
  EXPECT_EQ(image.netlist().find("hwt_worker_mmu"), nullptr);
  EXPECT_NE(image.netlist().find("hwt_worker_physport"), nullptr);
  EXPECT_EQ(image.netlist().find("ptw0"), nullptr);  // no virtual thread, no walker
}

TEST(Synthesis, DuplicateThreadNameRejected) {
  AppSpec app = small_app();
  app.add_hw_thread("worker", trivial_kernel(), {"args", "done"});
  SynthesisFlow flow(zynq7020());
  EXPECT_THROW(flow.synthesize(app), std::invalid_argument);
}

TEST(Synthesis, UnboundMailboxRejected) {
  AppSpec app = small_app();
  app.threads[0].mailbox_bindings = {"args"};  // kernel uses 2 mailboxes
  SynthesisFlow flow(zynq7020());
  EXPECT_THROW(flow.synthesize(app), std::invalid_argument);
}

TEST(Synthesis, UnknownBindingRejected) {
  AppSpec app = small_app();
  app.threads[0].mailbox_bindings = {"args", "ghost"};
  SynthesisFlow flow(zynq7020());
  EXPECT_THROW(flow.synthesize(app), std::out_of_range);
}

TEST(Synthesis, SlotBudgetEnforced) {
  AppSpec app;
  app.name = "big";
  app.add_mailbox("args", 8);
  app.add_mailbox("done", 4);
  PlatformSpec plat = zynq7020();
  plat.max_hw_threads = 2;
  for (int i = 0; i < 3; ++i)
    app.add_hw_thread(test::numbered("t", i), trivial_kernel(), {"args", "done"});
  SynthesisFlow flow(plat);
  EXPECT_THROW(flow.synthesize(app), std::invalid_argument);
}

TEST(Synthesis, BudgetOverflowThrowsInStrictMode) {
  PlatformSpec tiny = zynq7020();
  tiny.budget = ResourceBudget{100, 100, 1.0, 1};  // absurdly small part
  SynthesisFlow strict(tiny);
  EXPECT_THROW(strict.synthesize(small_app()), std::runtime_error);

  SynthesisOptions lenient;
  lenient.strict_budget = false;
  SynthesisFlow loose(tiny, lenient);
  const SystemImage image = loose.synthesize(small_app());
  EXPECT_FALSE(image.report().fits_budget);
}

TEST(Synthesis, AddressMapAssignsDistinctWindows) {
  AppSpec app = small_app();
  app.add_hw_thread("worker2", trivial_kernel(), {"args", "done"});
  SynthesisFlow flow(zynq7020());
  const SystemImage image = flow.synthesize(app);
  const auto& map = image.report().address_map;
  ASSERT_GE(map.size(), 2u);
  EXPECT_NE(map[0].base, map[1].base);
  EXPECT_EQ(image.hw_plan("worker").ctrl_base + zynq7020().ctrl_stride,
            image.hw_plan("worker2").ctrl_base);
}

TEST(Synthesis, SoftwareThreadPhysicalAddressingRejected) {
  AppSpec app = small_app();
  auto& t = app.add_sw_thread("sw", trivial_kernel(), {"args", "done"});
  t.addressing = Addressing::kPhysical;
  SynthesisFlow flow(zynq7020());
  EXPECT_THROW(flow.synthesize(app), std::invalid_argument);
}

// --- elaborated system ---

TEST(System, ElaborateAndRunTrivialThread) {
  SynthesisFlow flow(zynq7020());
  const SystemImage image = flow.synthesize(small_app());
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  system->process().mailbox(0).put(99, [] {});
  system->start_all();
  const Cycles c = system->run_to_completion();
  EXPECT_GT(c, 0u);
  i64 v = 0;
  EXPECT_TRUE(system->process().mailbox(1).try_get(v));
  EXPECT_EQ(v, 99);
}

TEST(System, BuffersAllocatedAndPinned) {
  SynthesisFlow flow(zynq7020());
  const SystemImage image = flow.synthesize(small_app());
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  const VirtAddr va = system->buffer("buf");
  EXPECT_TRUE(system->address_space().is_mapped(va));
  EXPECT_THROW(system->buffer("ghost"), std::out_of_range);
}

TEST(System, DeadlockDetected) {
  AppSpec app;
  app.name = "dead";
  app.add_mailbox("never", 4);
  hwt::KernelBuilder kb("waiter");
  kb.mbox_get(1, 0).halt();
  app.add_hw_thread("t", kb.build(), {"never"});
  SynthesisFlow flow(zynq7020());
  const SystemImage image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  system->start_all();
  EXPECT_THROW(system->run_to_completion(), std::runtime_error);
}

TEST(System, UnknownThreadLookupsThrow) {
  SynthesisFlow flow(zynq7020());
  const SystemImage image = flow.synthesize(small_app());
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  EXPECT_THROW(system->engine("ghost"), std::out_of_range);
  EXPECT_THROW(system->mmu("ghost"), std::out_of_range);
  EXPECT_THROW(system->dma_engine(), std::logic_error);  // not synthesized with DMA
}

TEST(System, ElaborateTwiceGivesIndependentSystems) {
  SynthesisFlow flow(zynq7020());
  const SystemImage image = flow.synthesize(small_app());
  sim::Simulator s1, s2;
  auto a = image.elaborate(s1);
  auto b = image.elaborate(s2);
  a->process().mailbox(0).put(1, [] {});
  i64 v = 0;
  EXPECT_FALSE(b->process().mailbox(0).try_get(v));
}

// --- DSE ---

TEST(Dse, SweepsAndPicksFittingPoint) {
  DesignSpaceExplorer dse(zynq7020());
  const auto result = dse.explore_tlb(small_app(), "worker", {4, 16, 64});
  ASSERT_EQ(result.candidates.size(), 3u);
  EXPECT_LT(result.candidates[0].image.report().total.luts,
            result.candidates[2].image.report().total.luts);
  ASSERT_GE(result.best, 0);
  // Unmeasured: picks the largest fitting TLB.
  EXPECT_EQ(result.candidates[static_cast<std::size_t>(result.best)].tlb_entries, 64u);
}

TEST(Dse, MeasuredSweepPicksFastest) {
  workloads::WorkloadParams params;
  params.n = 512;
  const auto wl = workloads::make_vecadd(params);
  auto app = workloads::single_thread_app(wl, ThreadKind::kHardware);
  app.threads[0].footprint_hint_bytes = 0;

  DesignSpaceExplorer dse(zynq7020());
  const auto result = dse.explore_tlb(app, "worker", {2, 16}, [&](const SystemImage& image) {
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    wl.setup(*system);
    system->start_all();
    return system->run_to_completion();
  });
  ASSERT_EQ(result.candidates.size(), 2u);
  EXPECT_TRUE(result.candidates[0].measured);
  ASSERT_GE(result.best, 0);
  EXPECT_LE(result.candidates[static_cast<std::size_t>(result.best)].cycles,
            result.candidates[0].cycles);
}

TEST(Dse, UnknownThreadRejected) {
  DesignSpaceExplorer dse(zynq7020());
  EXPECT_THROW(dse.explore_tlb(small_app(), "ghost", {4}), std::out_of_range);
  EXPECT_THROW(dse.explore(small_app(), "ghost", {tlb_axis({4})}), std::out_of_range);
}

TEST(Dse, EmptyAxisRejected) {
  DesignSpaceExplorer dse(zynq7020());
  EXPECT_THROW(dse.explore(small_app(), "worker", {tlb_axis({4}), pager_axis({})}),
               std::invalid_argument);
  EXPECT_THROW(dse.explore(small_app(), "worker", {DseAxis{}}), std::invalid_argument);
  EXPECT_THROW(dse.explore_tlb(small_app(), "worker", {}), std::invalid_argument);
}

TEST(Dse, ZeroEntryTlbRejected) {
  // A 0-entry candidate must be refused, not reach the ways-legalisation
  // loop, where 0 % 0 would kill the process.
  DesignSpaceExplorer dse(zynq7020());
  EXPECT_THROW(dse.explore_tlb(small_app(), "worker", {0}), std::invalid_argument);
  EXPECT_THROW(
      dse.explore(small_app(), "worker", {pager_axis({PagerCandidate{}}), tlb_axis({8, 0})}),
      std::invalid_argument);
}

TEST(Dse, PagerTlbGridIsPagerMajor) {
  // Candidate i is pager point i / 3 × TLB size i % 3, and the image scored
  // for it was synthesized with exactly that point.
  const std::vector<unsigned> tlbs{4, 16, 64};
  const std::vector<PagerCandidate> pagers{{64, paging::PolicyKind::kFifo},
                                           {128, paging::PolicyKind::kLruApprox}};
  DesignSpaceExplorer dse(zynq7020());
  const auto result = dse.explore(small_app(), "worker", {pager_axis(pagers), tlb_axis(tlbs)},
                                  [](const SystemImage& image) {
                                    return image.platform().pager.frame_budget * 1000 +
                                           image.hw_plans()[0].tlb.entries;
                                  });
  ASSERT_EQ(result.candidates.size(), 6u);
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const DseCandidate& c = result.candidates[i];
    const PagerCandidate& pc = pagers[i / tlbs.size()];
    EXPECT_EQ(c.image.platform().pager.frame_budget, pc.frame_budget) << i;
    EXPECT_EQ(c.image.platform().pager.policy, pc.policy) << i;
    EXPECT_EQ(c.tlb_entries, tlbs[i % tlbs.size()]) << i;
    EXPECT_EQ(c.image.hw_plan("worker").tlb.entries, c.tlb_entries) << i;
    ASSERT_TRUE(c.measured) << i;
    EXPECT_EQ(c.cycles, pc.frame_budget * 1000 + c.tlb_entries) << i;
  }
}

}  // namespace
}  // namespace vmsls::sls
