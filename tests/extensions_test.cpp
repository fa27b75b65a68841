// Tests for the flow/MMU extensions: automatic partitioning, the next-page
// TLB prefetcher, and multi-port walker concurrency.
#include <gtest/gtest.h>

#include "hwt/builder.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls {
namespace {

using test::MemorySystem;

// --- automatic partitioning ---

hwt::Kernel compute_heavy_kernel(const std::string& name) {
  hwt::KernelBuilder kb(name, 256);
  using hwt::Reg;
  kb.mbox_get(1, 0);
  for (int i = 0; i < 40; ++i) kb.mul(2, 1, 1).add(3, 2, 2).spad_store(4, 3).spad_load(5, 4);
  kb.mbox_put(1, 3).halt();
  return kb.build();
}

hwt::Kernel mem_bound_kernel(const std::string& name) {
  hwt::KernelBuilder kb(name);
  using hwt::Reg;
  kb.mbox_get(1, 0);
  for (int i = 0; i < 40; ++i) kb.load(2, 1).store(1, 2, 8);
  kb.mbox_put(1, 2).halt();
  return kb.build();
}

sls::AppSpec candidates_app(unsigned compute, unsigned membound) {
  sls::AppSpec app;
  app.name = "auto";
  app.add_mailbox("args", 16);
  app.add_mailbox("done", 16);
  for (unsigned i = 0; i < compute; ++i)
    app.add_hw_thread("comp" + std::to_string(i), compute_heavy_kernel("ck" + std::to_string(i)),
                      {"args", "done"});
  for (unsigned i = 0; i < membound; ++i)
    app.add_hw_thread("mem" + std::to_string(i), mem_bound_kernel("mk" + std::to_string(i)),
                      {"args", "done"});
  return app;
}

TEST(AutoPartition, GainFavorsComputeOverMemBound) {
  const sls::PlatformSpec plat = sls::zynq7020();
  const double compute_gain = sls::estimate_partition_gain(compute_heavy_kernel("c"), plat);
  const double mem_gain = sls::estimate_partition_gain(mem_bound_kernel("m"), plat);
  EXPECT_GT(compute_gain, 1.0);
  EXPECT_GT(compute_gain, mem_gain);
}

TEST(AutoPartition, KeepsEverythingWhenItFits) {
  sls::SynthesisOptions opts;
  opts.partition = sls::PartitionMode::kAuto;
  sls::SynthesisFlow flow(sls::zynq7045(), opts);
  const auto image = flow.synthesize(candidates_app(2, 0));
  EXPECT_EQ(image.report().hw_threads, 2u);
  EXPECT_TRUE(image.report().demoted_threads.empty());
}

TEST(AutoPartition, DemotesWhenSlotsExhausted) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.max_hw_threads = 2;
  sls::SynthesisOptions opts;
  opts.partition = sls::PartitionMode::kAuto;
  sls::SynthesisFlow flow(plat, opts);
  const auto image = flow.synthesize(candidates_app(3, 0));
  EXPECT_EQ(image.report().hw_threads, 2u);
  EXPECT_EQ(image.report().sw_threads, 1u);
  EXPECT_EQ(image.report().demoted_threads.size(), 1u);
}

TEST(AutoPartition, PrefersComputeBoundUnderPressure) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.max_hw_threads = 1;
  sls::SynthesisOptions opts;
  opts.partition = sls::PartitionMode::kAuto;
  sls::SynthesisFlow flow(plat, opts);
  const auto image = flow.synthesize(candidates_app(1, 1));
  ASSERT_EQ(image.hw_plans().size(), 1u);
  EXPECT_EQ(image.hw_plans()[0].thread, "comp0");
  ASSERT_EQ(image.report().demoted_threads.size(), 1u);
  EXPECT_EQ(image.report().demoted_threads[0], "mem0");
}

TEST(AutoPartition, DemotedThreadStillRunsCorrectly) {
  // End-to-end: a demoted candidate executes in software and produces the
  // right answer through the same mailboxes.
  sls::PlatformSpec plat = sls::zynq7020();
  plat.max_hw_threads = 1;
  sls::SynthesisOptions opts;
  opts.partition = sls::PartitionMode::kAuto;
  sls::SynthesisFlow flow(plat, opts);
  const auto app = candidates_app(1, 1);
  const auto image = flow.synthesize(app);

  sim::Simulator sim;
  auto system = image.elaborate(sim);
  for (int i = 0; i < 2; ++i) system->process().mailbox(0).put(3, [] {});
  system->start_all();
  system->run_to_completion();
  i64 a = 0, b = 0;
  EXPECT_TRUE(system->process().mailbox(1).try_get(a));
  EXPECT_TRUE(system->process().mailbox(1).try_get(b));
}

TEST(AutoPartition, UserModeNeverDemotes) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.max_hw_threads = 2;
  sls::SynthesisFlow flow(plat);  // kUser
  EXPECT_THROW(flow.synthesize(candidates_app(3, 0)), std::invalid_argument);
}

// --- TLB prefetch ---

struct PrefetchFixture : ::testing::Test, mem::FaultSink {
  MemorySystem ms;
  std::unique_ptr<mem::PageWalker> walker;
  std::unique_ptr<mem::Mmu> mmu;

  void raise(mem::FaultRequest req) override {
    ms.as.map_page(req.va);
    ms.sim.schedule_in(100, [retry = std::move(req.retry)]() mutable { retry(); });
  }

  void make(bool prefetch) {
    walker = std::make_unique<mem::PageWalker>(ms.sim, ms.bus, ms.pm, ms.as.page_table(),
                                               mem::WalkerConfig{}, "w");
    mem::MmuConfig cfg;
    cfg.prefetch_next_page = prefetch;
    mmu = std::make_unique<mem::Mmu>(ms.sim, *walker, cfg, "mmu", 0);
    mmu->set_fault_sink(this);
  }

  void translate_sync(VirtAddr va) {
    bool done = false;
    mmu->translate(va, false, [&](PhysAddr) { done = true; });
    ms.run_all();
    ASSERT_TRUE(done);
  }
};

TEST_F(PrefetchFixture, SequentialMissesPrefetched) {
  make(true);
  ms.as.populate(0x10000, 8 * 4096);
  translate_sync(0x10000);  // miss; prefetches page 0x11000
  ms.run_all();
  EXPECT_TRUE(mmu->tlb().peek(0x11).has_value());  // vpn 0x11 = 0x11000 >> 12
  translate_sync(0x11000);  // hit thanks to the prefetch
  EXPECT_EQ(mmu->tlb().misses(), 1u);
  EXPECT_EQ(ms.sim.stats().counter_value("mmu.prefetch_fills"), 1u);
}

TEST_F(PrefetchFixture, PrefetchFaultsAreDropped) {
  make(true);
  ms.as.populate(0x10000, 4096);  // next page NOT mapped
  translate_sync(0x10000);
  ms.run_all();
  // The prefetch walk faulted but must not reach the fault sink or fill.
  EXPECT_EQ(ms.sim.stats().counter_value("mmu.prefetch_fills"), 0u);
  EXPECT_EQ(ms.sim.stats().counter_value("mmu.faults"), 0u);
  EXPECT_FALSE(mmu->tlb().peek(0x11).has_value());
}

TEST_F(PrefetchFixture, DisabledByDefault) {
  make(false);
  ms.as.populate(0x10000, 2 * 4096);
  translate_sync(0x10000);
  ms.run_all();
  EXPECT_EQ(ms.sim.stats().counter_value("mmu.prefetches"), 0u);
  EXPECT_FALSE(mmu->tlb().peek(0x11).has_value());
}

// --- walker concurrency ---

Cycles run_concurrent_walks(unsigned ports, unsigned walks) {
  MemorySystem ms;  // fresh system per measurement
  mem::WalkerConfig cfg;
  cfg.ports = ports;
  cfg.walk_cache_entries = 0;
  mem::PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), cfg,
                         "w" + std::to_string(ports));
  ms.as.populate(0x100000, walks * 4096);
  unsigned done = 0;
  const Cycles t0 = ms.sim.now();
  for (unsigned i = 0; i < walks; ++i)
    walker.walk(0x100000 + static_cast<u64>(i) * 4096, [&](const mem::WalkResult& r) {
      EXPECT_FALSE(r.fault);
      ++done;
    });
  ms.run_all();
  EXPECT_EQ(done, walks);
  return ms.sim.now() - t0;
}

TEST(WalkerPorts, MorePortsFinishConcurrentWalksFaster) {
  const Cycles one = run_concurrent_walks(1, 8);
  const Cycles two = run_concurrent_walks(2, 8);
  EXPECT_LT(two, one);
}

TEST(WalkerPorts, ActiveWalksBoundedByPorts) {
  MemorySystem ms;
  mem::WalkerConfig cfg;
  cfg.ports = 2;
  mem::PageWalker walker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), cfg, "w");
  ms.as.populate(0x100000, 6 * 4096);
  for (unsigned i = 0; i < 6; ++i)
    walker.walk(0x100000 + static_cast<u64>(i) * 4096, [](const mem::WalkResult&) {});
  EXPECT_LE(walker.active_walks(), 2u);
  ms.run_all();
  EXPECT_EQ(walker.active_walks(), 0u);
}

TEST(WalkerPorts, ZeroPortsRejected) {
  MemorySystem ms;
  mem::WalkerConfig cfg;
  cfg.ports = 0;
  EXPECT_THROW(mem::PageWalker(ms.sim, ms.bus, ms.pm, ms.as.page_table(), cfg, "w"),
               std::invalid_argument);
}

}  // namespace
}  // namespace vmsls
