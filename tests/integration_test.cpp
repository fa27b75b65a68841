// Cross-module integration tests: demand paging end-to-end, TLB shootdown
// correctness under eviction, multi-thread contention, and mixed HW/SW
// pipelines — the system-level behaviors the paper's runtime must get right.
#include <gtest/gtest.h>

#include "hwt/builder.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "workloads/workloads.hpp"

namespace vmsls {
namespace {

using workloads::Workload;
using workloads::WorkloadParams;

TEST(Integration, DemandPagingFaultsThenCompletes) {
  WorkloadParams p;
  p.n = 2048;
  const Workload wl = workloads::make_vecadd(p);
  // Buffers NOT pinned: first hardware touch of each page faults.
  const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware,
                                                sls::Addressing::kVirtual,
                                                /*pinned_buffers=*/false);
  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);

  // Setup wrote the inputs (software touch maps a+b); evict everything so
  // the hardware thread demand-faults the whole working set.
  u64 evicted = 0;
  for (const auto& buf : app.buffers)
    evicted += system->process().evict(system->buffer(buf.name), buf.bytes);
  ASSERT_GT(evicted, 0u);

  system->start_all();
  system->run_to_completion();
  EXPECT_TRUE(wl.verify(*system));
  // 3 buffers x 2048 x 8 B = 12 pages minimum.
  EXPECT_GE(sim.stats().counter_value("faults.faults"), 12u);
}

TEST(Integration, PinnedRunFaultsZero) {
  WorkloadParams p;
  p.n = 2048;
  const Workload wl = workloads::make_vecadd(p);
  const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);
  system->start_all();
  system->run_to_completion();
  EXPECT_TRUE(wl.verify(*system));
  EXPECT_EQ(sim.stats().counter_value("faults.faults"), 0u);
}

TEST(Integration, DemandPagingCostsMoreThanPinned) {
  // Histogram touches one buffer strictly in address order, so eviction and
  // refault reuse frames in the same order and the physical layout is
  // identical in both runs — the cycle difference is purely fault cost.
  WorkloadParams p;
  p.n = 64 * KiB;
  auto run = [&](bool pinned) {
    const Workload wl = workloads::make_histogram(p);
    const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware,
                                                  sls::Addressing::kVirtual, pinned);
    sls::SynthesisFlow flow(sls::zynq7020());
    const auto image = flow.synthesize(app);
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    wl.setup(*system);
    for (const auto& buf : app.buffers)
      if (!pinned) system->process().evict(system->buffer(buf.name), buf.bytes);
    system->start_all();
    const Cycles c = system->run_to_completion();
    EXPECT_TRUE(wl.verify(*system));
    return c;
  };
  EXPECT_GT(run(false), run(true));
}

TEST(Integration, EvictionMidRunStaysCoherent) {
  // A kernel that reads the same page twice with an eviction in between:
  // the second read must re-fault and still see the right data.
  hwt::KernelBuilder kb("reread");
  using hwt::Reg;
  constexpr Reg ADDR = 1, V1 = 2, V2 = 3, SUM = 4;
  kb.mbox_get(ADDR, 0)
      .load(V1, ADDR)
      .mbox_put(1, V1)   // rendezvous: host evicts while we wait
      .mbox_get(ADDR, 0) // host sends the address again
      .load(V2, ADDR)
      .add(SUM, V1, V2)
      .mbox_put(1, SUM)
      .halt();

  sls::AppSpec app;
  app.name = "coherence";
  app.add_mailbox("args", 4);
  app.add_mailbox("done", 4);
  app.add_buffer("data", 4096, /*pinned=*/true);
  app.add_hw_thread("t", kb.build(), {"args", "done"});

  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);

  const VirtAddr va = system->buffer("data");
  system->address_space().write_u64(va, 111);
  system->process().mailbox(0).put(static_cast<i64>(va), [] {});
  system->start_all();

  // Wait for the first token, then evict the page, change the backing
  // value via a software write (which re-maps), and hand the address back.
  bool finished = false;
  i64 first = 0, second = 0;
  auto& done_mbox = system->process().mailbox(1);
  done_mbox.get([&](i64 v) {
    first = v;
    system->process().evict(va, 4096);
    system->address_space().write_u64(va, 222);
    done_mbox.get([&](i64 v2) {
      second = v2;
      finished = true;
    });
    system->process().mailbox(0).put(static_cast<i64>(va), [] {});
  });
  system->run_to_completion();
  ASSERT_TRUE(finished);
  EXPECT_EQ(first, 111);
  EXPECT_EQ(second, 111 + 222);  // stale TLB would have returned 111 twice
}

TEST(Integration, TwoHwThreadsShareWalkerAndFinish) {
  WorkloadParams p;
  p.n = 1024;
  const Workload a = workloads::make_vecadd(p);
  const Workload b = workloads::make_saxpy(p);

  sls::AppSpec app;
  app.name = "pair";
  app.add_mailbox("args_a", 8);
  app.add_mailbox("args_b", 8);
  app.add_mailbox("done", 8);
  for (const auto& buf : a.buffers) app.add_buffer("a_" + buf.name, buf.bytes);
  for (const auto& buf : b.buffers) app.add_buffer("b_" + buf.name, buf.bytes);
  app.add_hw_thread("ta", a.kernel, {"args_a", "done"});
  app.add_hw_thread("tb", b.kernel, {"args_b", "done"});

  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);

  auto& as = system->address_space();
  auto push = [&](const std::string& mbox, std::vector<i64> vals) {
    auto& m = system->process().mailbox(app.mailbox_index(mbox));
    for (i64 v : vals) m.put(v, [] {});
  };
  // vecadd args: a, b, c, n.
  push("args_a", {static_cast<i64>(system->buffer("a_a")), static_cast<i64>(system->buffer("a_b")),
                  static_cast<i64>(system->buffer("a_c")), static_cast<i64>(p.n)});
  // saxpy args: x, y, alpha, n.
  push("args_b", {static_cast<i64>(system->buffer("b_x")), static_cast<i64>(system->buffer("b_y")),
                  7, static_cast<i64>(p.n)});
  for (u64 i = 0; i < p.n; ++i) {
    as.write_scalar<i64>(system->buffer("a_a") + i * 8, static_cast<i64>(i));
    as.write_scalar<i64>(system->buffer("a_b") + i * 8, static_cast<i64>(2 * i));
    as.write_scalar<i64>(system->buffer("b_x") + i * 8, 1);
    as.write_scalar<i64>(system->buffer("b_y") + i * 8, static_cast<i64>(i));
  }

  system->start_all();
  system->run_to_completion();

  for (u64 i = 0; i < p.n; ++i) {
    EXPECT_EQ(as.read_scalar<i64>(system->buffer("a_c") + i * 8), static_cast<i64>(3 * i));
    EXPECT_EQ(as.read_scalar<i64>(system->buffer("b_y") + i * 8), static_cast<i64>(7 + i));
  }
  // Both MMUs funneled through the one shared walker.
  EXPECT_GT(sim.stats().counter_value("walker.walks"), 0u);
}

TEST(Integration, ContentionSlowsSharedBus) {
  WorkloadParams p;
  p.n = 2048;
  auto run_pair = [&](bool second_thread) {
    const Workload a = workloads::make_saxpy(p);
    sls::AppSpec app;
    app.name = "contend";
    app.add_mailbox("args_a", 8);
    app.add_mailbox("args_b", 8);
    app.add_mailbox("done", 8);
    for (const auto& buf : a.buffers) app.add_buffer("a_" + buf.name, buf.bytes);
    app.add_hw_thread("ta", a.kernel, {"args_a", "done"});
    if (second_thread) {
      for (const auto& buf : a.buffers) app.add_buffer("b_" + buf.name, buf.bytes);
      app.add_hw_thread("tb", a.kernel, {"args_b", "done"});
    }
    sls::SynthesisFlow flow(sls::zynq7020());
    const auto image = flow.synthesize(app);
    sim::Simulator sim;
    auto system = image.elaborate(sim);
    auto push = [&](const std::string& mbox, char prefix) {
      auto& m = system->process().mailbox(app.mailbox_index(mbox));
      m.put(static_cast<i64>(system->buffer(std::string(1, prefix) + "_x")), [] {});
      m.put(static_cast<i64>(system->buffer(std::string(1, prefix) + "_y")), [] {});
      m.put(3, [] {});
      m.put(static_cast<i64>(p.n), [] {});
    };
    push("args_a", 'a');
    if (second_thread) push("args_b", 'b');
    system->start_thread("ta");
    if (second_thread) system->start_thread("tb");
    // Measure thread ta's completion time.
    auto& eng = system->engine("ta");
    if (!sim.run_until([&eng] { return eng.halted(); })) throw std::runtime_error("stall");
    return eng.halt_time() - eng.start_time();
  };
  const Cycles alone = run_pair(false);
  const Cycles contended = run_pair(true);
  EXPECT_GT(contended, alone);
}

TEST(Integration, MixedPipelineHwBetweenSwStages) {
  using hwt::Reg;
  auto stage = [](const std::string& name, i64 mulby) {
    hwt::KernelBuilder kb(name);
    constexpr Reg N = 1, I = 2, V = 3, T = 4;
    kb.mbox_get(N, 0)
        .li(I, 0)
        .label("loop")
        .seq(T, I, N)
        .bnez(T, "out")
        .mbox_get(V, 1)
        .muli(V, V, mulby)
        .mbox_put(2, V)
        .addi(I, I, 1)
        .jmp("loop")
        .label("out")
        .halt();
    return kb.build();
  };
  hwt::KernelBuilder src("src");
  {
    constexpr Reg N = 1, I = 2, T = 3;
    src.mbox_get(N, 0)
        .li(I, 0)
        .label("loop")
        .seq(T, I, N)
        .bnez(T, "out")
        .mbox_put(1, I)
        .addi(I, I, 1)
        .jmp("loop")
        .label("out")
        .halt();
  }

  sls::AppSpec app;
  app.name = "mixed";
  app.add_mailbox("args", 8);
  app.add_mailbox("q1", 4);
  app.add_mailbox("q2", 4);
  app.add_mailbox("out", 64);
  app.add_sw_thread("producer", src.build(), {"args", "q1"});
  app.add_hw_thread("xform", stage("xform", 3), {"args", "q1", "q2"});
  app.add_sw_thread("sink", stage("sink", 1), {"args", "q2", "out"});

  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  constexpr i64 kItems = 16;
  for (int i = 0; i < 3; ++i) system->process().mailbox(0).put(kItems, [] {});
  system->start_all();
  system->run_to_completion();

  auto& out = system->process().mailbox(app.mailbox_index("out"));
  for (i64 i = 0; i < kItems; ++i) {
    i64 v = 0;
    ASSERT_TRUE(out.try_get(v));
    EXPECT_EQ(v, i * 3);
  }
}

TEST(Integration, StatsExposeFullTranslationPath) {
  WorkloadParams p;
  p.n = 512;
  const Workload wl = workloads::make_pointer_chase(p);
  const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);
  system->start_all();
  system->run_to_completion();
  ASSERT_TRUE(wl.verify(*system));
  const auto& st = sim.stats();
  EXPECT_GT(st.counter_value("hwt.worker.mmu.translations"), 0u);
  EXPECT_GT(st.counter_value("walker.walks"), 0u);
  EXPECT_GT(st.counter_value("bus.requests"), 0u);
  EXPECT_GT(st.counter_value("dram.reads"), 0u);
  EXPECT_EQ(st.counter_value("hwt.worker.mmu.tlb.hits") +
                st.counter_value("hwt.worker.mmu.tlb.misses"),
            st.counter_value("hwt.worker.mmu.translations"));
}

}  // namespace
}  // namespace vmsls
