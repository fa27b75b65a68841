// Netlist-emission coverage: the generated structural netlist must mirror
// the plans — one wrapper + MMU pair per virtual thread, physical bridge
// for physical threads, walker only when someone translates, and a DMA
// instance only when requested. These are the invariants a downstream
// implementation flow depends on.
#include <gtest/gtest.h>

#include "hwt/builder.hpp"
#include "sls/synthesis.hpp"
#include "test_util.hpp"

namespace vmsls::sls {
namespace {

hwt::Kernel mem_kernel(const std::string& name) {
  hwt::KernelBuilder kb(name);
  kb.mbox_get(1, 0).load(2, 1).mbox_put(1, 2).halt();
  return kb.build();
}

AppSpec two_thread_app(Addressing a0, Addressing a1) {
  AppSpec app;
  app.name = "emit";
  app.add_mailbox("args", 8);
  app.add_mailbox("done", 8);
  app.add_hw_thread("t0", mem_kernel("k0"), {"args", "done"}).addressing = a0;
  app.add_hw_thread("t1", mem_kernel("k1"), {"args", "done"}).addressing = a1;
  return app;
}

TEST(NetlistEmission, OneWrapperAndMmuPerVirtualThread) {
  SynthesisFlow flow(zynq7020());
  const auto image =
      flow.synthesize(two_thread_app(Addressing::kVirtual, Addressing::kVirtual));
  const auto& nl = image.netlist();
  for (const char* t : {"t0", "t1"}) {
    ASSERT_NE(nl.find(std::string("hwt_") + t), nullptr);
    ASSERT_NE(nl.find(std::string("hwt_") + t + "_mmu"), nullptr);
    ASSERT_NE(nl.find(std::string("hwt_") + t + "_osif_inst"), nullptr);
  }
  EXPECT_NE(nl.find("ptw0"), nullptr);
  EXPECT_NE(nl.find("interconnect0"), nullptr);
}

TEST(NetlistEmission, MixedAddressingGetsOneWalker) {
  SynthesisFlow flow(zynq7020());
  const auto image =
      flow.synthesize(two_thread_app(Addressing::kVirtual, Addressing::kPhysical));
  const auto& nl = image.netlist();
  EXPECT_NE(nl.find("hwt_t0_mmu"), nullptr);
  EXPECT_EQ(nl.find("hwt_t1_mmu"), nullptr);
  EXPECT_NE(nl.find("hwt_t1_physport"), nullptr);
  EXPECT_NE(nl.find("ptw0"), nullptr);  // t0 still translates
}

TEST(NetlistEmission, DmaOnlyWhenRequested) {
  SynthesisOptions with_dma;
  with_dma.include_dma = true;
  SynthesisFlow flow_dma(zynq7020(), with_dma);
  const auto app = two_thread_app(Addressing::kVirtual, Addressing::kVirtual);
  EXPECT_NE(flow_dma.synthesize(app).netlist().find("dma0"), nullptr);

  SynthesisFlow flow_plain(zynq7020());
  EXPECT_EQ(flow_plain.synthesize(app).netlist().find("dma0"), nullptr);
}

TEST(NetlistEmission, ParametersCarryConfiguration) {
  AppSpec app = two_thread_app(Addressing::kVirtual, Addressing::kVirtual);
  mem::TlbConfig tlb;
  tlb.entries = 32;
  tlb.ways = 4;
  app.threads[0].tlb_override = tlb;
  SynthesisFlow flow(zynq7020());
  const auto image = flow.synthesize(app);
  const auto* mmu = image.netlist().find("hwt_t0_mmu");
  ASSERT_NE(mmu, nullptr);
  bool found = false;
  for (const auto& [key, value] : mmu->parameters)
    if (key == "TLB_ENTRIES") {
      EXPECT_EQ(value, "32");
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(NetlistEmission, VerilogStubParses) {
  SynthesisFlow flow(zynq7020());
  const auto image =
      flow.synthesize(two_thread_app(Addressing::kVirtual, Addressing::kVirtual));
  const std::string v = image.netlist().to_verilog();
  // Structural sanity: balanced module/endmodule, every instance present.
  EXPECT_NE(v.find("module emit_top"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // Parameterized instances render as `type #(...) name (`.
  EXPECT_NE(v.find("hw_thread_wrapper #("), std::string::npos);
  EXPECT_NE(v.find(" hwt_t0 ("), std::string::npos);
  EXPECT_NE(v.find(" hwt_t0_mmu ("), std::string::npos);
  // Every declared net is referenced at least once.
  EXPECT_NE(v.find("wire axi_mem;"), std::string::npos);
  EXPECT_NE(v.find(".m_axi(axi_mem)"), std::string::npos);
}

TEST(NetlistEmission, InstanceCountsScaleWithThreads) {
  SynthesisFlow flow(zynq7045());
  AppSpec app;
  app.name = "scale";
  app.add_mailbox("args", 8);
  app.add_mailbox("done", 8);
  std::size_t prev = 0;
  for (int t = 0; t < 3; ++t) {
    app.add_hw_thread(test::numbered("t", t), mem_kernel(test::numbered("k", t)),
                      {"args", "done"});
    const auto image = flow.synthesize(app);
    EXPECT_GT(image.netlist().instance_count(), prev);
    prev = image.netlist().instance_count();
  }
}

}  // namespace
}  // namespace vmsls::sls
