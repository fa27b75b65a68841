// Differential testing: the cycle-accounted Engine against the reference
// Interpreter on randomly generated programs. Any divergence in
// architectural state (registers, scratchpad, retired count) is an ISA
// semantics bug in one of the two independent implementations. The
// interpreter's retired opcode stream is also the oracle for the engine's
// time: halt time and event count under every batch limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hwt/builder.hpp"
#include "hwt/engine.hpp"
#include "interp.hpp"
#include "sim/simulator.hpp"

namespace vmsls::hwt {
namespace {

InterpResult run_engine(const Kernel& kernel, const EngineConfig& cfg = {}) {
  sim::Simulator sim;
  Engine engine(sim, kernel, cfg, "dut");
  bool halted = false;
  engine.start([&] { halted = true; });
  sim.drain();
  EXPECT_TRUE(halted);
  InterpResult r;
  for (unsigned i = 0; i < kNumRegs; ++i) r.regs[i] = engine.reg(i);
  r.spad.assign(engine.spad().begin(), engine.spad().end());
  r.instructions = engine.instructions_retired();
  r.halted = halted;
  return r;
}

class RandomPrograms : public ::testing::TestWithParam<u64> {};

TEST_P(RandomPrograms, EngineMatchesReferenceInterpreter) {
  const Kernel kernel = random_kernel(GetParam());
  Interpreter ref(kernel);
  const InterpResult expected = ref.run();
  const InterpResult actual = run_engine(kernel);

  EXPECT_EQ(actual.instructions, expected.instructions);
  for (unsigned i = 0; i < kNumRegs; ++i)
    EXPECT_EQ(actual.regs[i], expected.regs[i]) << "register r" << i << " seed " << GetParam();
  EXPECT_EQ(actual.spad, expected.spad) << "scratchpad mismatch, seed " << GetParam();
}

TEST_P(RandomPrograms, BatchLimitDoesNotChangeSemantics) {
  const Kernel kernel = random_kernel(GetParam());
  EngineConfig tiny;
  tiny.batch_limit = 2;
  const InterpResult a = run_engine(kernel);
  const InterpResult b = run_engine(kernel, tiny);
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.spad, b.spad);
}

TEST_P(RandomPrograms, ClockRatioDoesNotChangeSemantics) {
  const Kernel kernel = random_kernel(GetParam());
  EngineConfig fast;
  fast.clock = sim::ClockDomain{10, 3};
  fast.cost = cpu_cost_model();
  const InterpResult a = run_engine(kernel);
  const InterpResult b = run_engine(kernel, fast);
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.spad, b.spad);
}

/// Raw cost the engine charges one retired op under `cost`; the halt is free.
Cycles op_cost(Op op, const CostModel& cost) {
  switch (op) {
    case Op::kMul:
    case Op::kMuli: return cost.mul;
    case Op::kDivU:
    case Op::kRemU: return cost.divu;
    case Op::kBeqz:
    case Op::kBnez:
    case Op::kJmp: return cost.branch;
    case Op::kSpadLoad:
    case Op::kSpadStore: return cost.spad;
    case Op::kHalt: return 0;
    default: return cost.alu;
  }
}

TEST_P(RandomPrograms, HaltTimeMatchesBatchedCostOracle) {
  // The engine yields after every `batch_limit` retired ops, so the retired
  // stream splits into consecutive chunks of that many ops, the last one
  // ending at the halt. Each chunk costs its raw op costs rounded up to
  // whole datapath cycles, then converted to the reference clock; one event
  // runs each chunk and one more fires the halt.
  const Kernel kernel = random_kernel(GetParam());
  Interpreter ref(kernel);
  const std::vector<Op> ops = ref.run().ops;
  struct Model {
    const char* name;
    CostModel cost;
    sim::ClockDomain clock;
  };
  const Model models[] = {{"fabric", CostModel{}, sim::ClockDomain{1, 1}},
                          {"cpu", cpu_cost_model(), sim::ClockDomain{10, 3}}};
  for (const Model& m : models) {
    for (const u64 batch_limit : {1, 2, 3, 7, 8192}) {
      SCOPED_TRACE(std::string(m.name) + " batch_limit " + std::to_string(batch_limit));
      Cycles halt_time = 0;
      u64 chunks = 0;
      for (std::size_t first = 0; first < ops.size(); first += batch_limit) {
        const std::size_t end = std::min<std::size_t>(ops.size(), first + batch_limit);
        Cycles raw = 0;
        for (std::size_t i = first; i < end; ++i) raw += op_cost(ops[i], m.cost);
        halt_time += m.clock.to_ref(ceil_div(raw, m.cost.ilp));
        ++chunks;
      }

      sim::Simulator sim;
      EngineConfig cfg;
      cfg.cost = m.cost;
      cfg.clock = m.clock;
      cfg.batch_limit = batch_limit;
      Engine engine(sim, kernel, cfg, "dut");
      engine.start([] {});
      sim.drain();
      ASSERT_TRUE(engine.halted());
      EXPECT_EQ(engine.instructions_retired(), ops.size());
      EXPECT_EQ(engine.halt_time(), halt_time);
      EXPECT_EQ(sim.events_executed(), chunks + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<u64>(1, 33));  // 32 random programs x 4 properties

TEST(Interpreter, MemoryRoundTrip) {
  KernelBuilder kb("m");
  kb.li(1, 0x100).li(2, 77).store(1, 2).load(3, 1).halt();
  Interpreter in(kb.build());
  const auto r = in.run();
  EXPECT_EQ(r.regs[3], 77);
  EXPECT_EQ(in.peek(0x100), 77u);
}

TEST(Interpreter, MailboxStreams) {
  KernelBuilder kb("mb");
  kb.mbox_get(1, 0).mbox_get(2, 0).add(3, 1, 2).mbox_put(1, 3).halt();
  Interpreter in(kb.build());
  in.feed_mailbox(0, 30);
  in.feed_mailbox(0, 12);
  in.run();
  ASSERT_EQ(in.mailbox_output(1).size(), 1u);
  EXPECT_EQ(in.mailbox_output(1)[0], 42);
}

TEST(Interpreter, StarvedMailboxThrows) {
  KernelBuilder kb("mb");
  kb.mbox_get(1, 0).halt();
  Interpreter in(kb.build());
  EXPECT_THROW(in.run(), std::runtime_error);
}

TEST(Interpreter, LivelockGuard) {
  KernelBuilder kb("spin");
  kb.label("loop").jmp("loop").halt();
  Interpreter in(kb.build());
  EXPECT_THROW(in.run(10000), std::runtime_error);
}

/// A port the trapping kernels below must never reach.
class UnreachablePort final : public MemPort {
 public:
  void read(VirtAddr, std::span<u8>, sim::Callback<>) override { ADD_FAILURE() << "read issued"; }
  void write(VirtAddr, std::span<const u8>, sim::Callback<>) override {
    ADD_FAILURE() << "write issued";
  }
};

TEST(ScratchpadBounds, WrappingAccessesTrapOnBothExecutors) {
  // Each access's `offset + length` wraps past 2^64 into range; both
  // executors must still reject it.
  constexpr Reg OFF = 1, ADDR = 2, LEN = 3, V = 4;
  std::vector<std::pair<const char*, KernelBuilder>> cases;
  cases.emplace_back("negative spad load", KernelBuilder("k", 64));
  cases.back().second.li(OFF, -8).spad_load(V, OFF);
  cases.emplace_back("negative spad store", KernelBuilder("k", 64));
  cases.back().second.li(OFF, -8).spad_store(OFF, V);
  cases.emplace_back("huge burst load", KernelBuilder("k", 64));
  cases.back().second.li(OFF, 8).li(ADDR, 0x200).li(LEN, -8).burst_load(OFF, ADDR, LEN);
  cases.emplace_back("negative burst store", KernelBuilder("k", 64));
  cases.back().second.li(OFF, -8).li(ADDR, 0x200).li(LEN, 16).burst_store(ADDR, OFF, LEN);
  for (auto& [name, kb] : cases) {
    const Kernel kernel = kb.halt().build();
    Interpreter ref(kernel);
    EXPECT_THROW(ref.run(), std::runtime_error) << name;
    sim::Simulator sim;
    Engine engine(sim, kernel, EngineConfig{}, "dut");
    UnreachablePort port;
    engine.attach_mem_port(0, &port);
    engine.start([] {});
    EXPECT_THROW(sim.drain(), std::runtime_error) << name;
  }
}

TEST(Interpreter, BurstThroughScratchpad) {
  KernelBuilder kb("b", 64);
  kb.li(1, 0x200).li(2, 0).li(3, 16)
      .burst_load(2, 1, 3)       // spad[0..16) <- mem[0x200..)
      .spad_load(4, 2, 8)        // second word
      .burst_store(1, 2, 3)      // write back
      .halt();
  Interpreter in(kb.build());
  in.poke(0x200, 0x1111);
  in.poke(0x208, 0x2222);
  const auto r = in.run();
  EXPECT_EQ(r.regs[4], 0x2222);
  EXPECT_EQ(in.peek(0x208), 0x2222u);
}

TEST(RandomKernels, AreValidAndTerminate) {
  for (u64 seed = 100; seed < 120; ++seed) {
    const Kernel k = random_kernel(seed);
    EXPECT_NO_THROW(verify(k));
    Interpreter in(k);
    const auto r = in.run();
    EXPECT_TRUE(r.halted);
  }
}

TEST(RandomKernels, DeterministicInSeed) {
  const Kernel a = random_kernel(7);
  const Kernel b = random_kernel(7);
  ASSERT_EQ(a.code.size(), b.code.size());
  for (std::size_t i = 0; i < a.code.size(); ++i)
    EXPECT_EQ(to_string(a.code[i]), to_string(b.code[i]));
}

}  // namespace
}  // namespace vmsls::hwt
