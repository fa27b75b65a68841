#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "hwt/builder.hpp"
#include "hwt/engine.hpp"
#include "sim/simulator.hpp"

namespace vmsls::hwt {
namespace {

/// Memory port with a flat byte store and fixed latency.
class FakeMemPort final : public MemPort {
 public:
  FakeMemPort(sim::Simulator& sim, Cycles latency = 5) : sim_(sim), latency_(latency) {}

  void read(VirtAddr va, std::span<u8> dst, sim::Callback<> done) override {
    ++reads;
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = mem_[va + i];
    sim_.schedule_in(latency_, std::move(done));
  }

  void write(VirtAddr va, std::span<const u8> data, sim::Callback<> done) override {
    ++writes;
    for (std::size_t i = 0; i < data.size(); ++i) mem_[va + i] = data[i];
    sim_.schedule_in(latency_, std::move(done));
  }

  u64 read_u64(VirtAddr va) {
    u64 v = 0;
    for (unsigned i = 0; i < 8; ++i) v |= static_cast<u64>(mem_[va + i]) << (8 * i);
    return v;
  }
  void write_u64(VirtAddr va, u64 v) {
    for (unsigned i = 0; i < 8; ++i) mem_[va + i] = static_cast<u8>(v >> (8 * i));
  }

  int reads = 0;
  int writes = 0;

 private:
  sim::Simulator& sim_;
  Cycles latency_;
  std::map<u64, u8> mem_;
};

/// OS port with canned mailbox values and recorded puts.
class FakeOsPort final : public OsPort {
 public:
  explicit FakeOsPort(sim::Simulator& sim) : sim_(sim) {}

  void mbox_get(unsigned mbox, sim::Callback<i64> done) override {
    const i64 v = gets[mbox].front();
    gets[mbox].pop_front();
    sim_.schedule_in(3, [done = std::move(done), v]() mutable { done(v); });
  }
  void mbox_put(unsigned mbox, i64 value, sim::Callback<> done) override {
    puts[mbox].push_back(value);
    sim_.schedule_in(3, std::move(done));
  }
  void sem_wait(unsigned sem, sim::Callback<> done) override {
    ++waits[sem];
    sim_.schedule_in(3, std::move(done));
  }
  void sem_post(unsigned sem, sim::Callback<> done) override {
    ++posts[sem];
    sim_.schedule_in(3, std::move(done));
  }

  std::map<unsigned, std::deque<i64>> gets;
  std::map<unsigned, std::vector<i64>> puts;
  std::map<unsigned, int> waits, posts;

 private:
  sim::Simulator& sim_;
};

/// Drains `sim` and returns the message of the trap it raises ("" if none).
std::string trap_message(sim::Simulator& sim) {
  try {
    sim.drain();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

struct EngineFixture : ::testing::Test {
  sim::Simulator sim;
  FakeMemPort mem{sim};
  FakeOsPort os{sim};
  std::unique_ptr<Engine> engine;
  bool halted = false;

  void run(Kernel k, EngineConfig cfg = {}) {
    engine = std::make_unique<Engine>(sim, std::move(k), cfg, "eng");
    if (engine->kernel().iface.mem_ports > 0)
      for (unsigned p = 0; p < engine->kernel().iface.mem_ports; ++p)
        engine->attach_mem_port(p, &mem);
    engine->attach_os_port(&os);
    engine->start([this] { halted = true; });
    sim.drain();
  }
};

TEST_F(EngineFixture, ArithmeticChain) {
  KernelBuilder kb("k");
  kb.li(1, 6).li(2, 7).mul(3, 1, 2).addi(3, 3, 8).shri(4, 3, 1).halt();
  run(kb.build());
  EXPECT_TRUE(halted);
  EXPECT_EQ(engine->reg(3), 50);
  EXPECT_EQ(engine->reg(4), 25);
}

TEST_F(EngineFixture, SignedAndUnsignedCompares) {
  KernelBuilder kb("k");
  kb.li(1, -1).li(2, 1).slt(3, 1, 2).sltu(4, 1, 2).seq(5, 1, 1).sne(6, 1, 2).halt();
  run(kb.build());
  EXPECT_EQ(engine->reg(3), 1);  // signed: -1 < 1
  EXPECT_EQ(engine->reg(4), 0);  // unsigned: 2^64-1 > 1
  EXPECT_EQ(engine->reg(5), 1);
  EXPECT_EQ(engine->reg(6), 1);
}

TEST_F(EngineFixture, MinMax) {
  KernelBuilder kb("k");
  kb.li(1, -5).li(2, 3).min(3, 1, 2).max(4, 1, 2).halt();
  run(kb.build());
  EXPECT_EQ(engine->reg(3), -5);
  EXPECT_EQ(engine->reg(4), 3);
}

TEST_F(EngineFixture, DivisionSemantics) {
  KernelBuilder kb("k");
  kb.li(1, 100).li(2, 7).divu(3, 1, 2).remu(4, 1, 2).li(5, 0).divu(6, 1, 5).halt();
  run(kb.build());
  EXPECT_EQ(engine->reg(3), 14);
  EXPECT_EQ(engine->reg(4), 2);
  EXPECT_EQ(engine->reg(6), -1);  // div-by-zero convention
}

TEST_F(EngineFixture, LoopSumsOneToTen) {
  KernelBuilder kb("k");
  kb.li(1, 0)   // sum
      .li(2, 1)  // i
      .li(3, 11)
      .label("loop")
      .seq(4, 2, 3)
      .bnez(4, "out")
      .add(1, 1, 2)
      .addi(2, 2, 1)
      .jmp("loop")
      .label("out")
      .halt();
  run(kb.build());
  EXPECT_EQ(engine->reg(1), 55);
}

TEST_F(EngineFixture, ScratchpadRoundTrip) {
  KernelBuilder kb("k", 64);
  kb.li(1, 0xabcd).li(2, 16).spad_store(2, 1).spad_load(3, 2).halt();
  run(kb.build());
  EXPECT_EQ(engine->reg(3), 0xabcd);
}

TEST_F(EngineFixture, ScratchpadSubWordSizes) {
  KernelBuilder kb("k", 64);
  kb.li(1, 0x11223344).li(2, 0)
      .spad_store(2, 1, 0, 4)
      .spad_load(3, 2, 0, 1)   // low byte
      .spad_load(4, 2, 2, 1)   // byte at offset 2
      .halt();
  run(kb.build());
  EXPECT_EQ(engine->reg(3), 0x44);
  EXPECT_EQ(engine->reg(4), 0x22);
}

TEST_F(EngineFixture, ScratchpadOutOfBoundsTraps) {
  // A trap reports the trapping op's pc, and the ops before it have
  // retired, wherever it sits in its straight-line run.
  KernelBuilder overrun("k", 16);
  overrun.li(1, 1).li(2, 12).spad_store(2, 1).halt();  // 8 B store at 12 overruns 16
  KernelBuilder negative("k", 16);
  negative.li(2, -8).spad_load(3, 2).halt();  // -8 + 8 wraps to 0
  KernelBuilder mid_run("k", 16);
  mid_run.li(1, 1).li(2, 12).addi(3, 3, 1).spad_store(2, 1).addi(3, 3, 1).jmp("end")
      .label("end").halt();  // the store is op 4 of a 6-op run
  const Kernel overrun_k = overrun.build(), negative_k = negative.build(),
               mid_run_k = mid_run.build();
  struct Case {
    const Kernel* kernel;
    u64 batch_limit;
    std::string message;
    u64 retired;
  };
  const Case cases[] = {
      {&overrun_k, 8192, "eng @pc=2: scratchpad write out of bounds", 2},
      {&negative_k, 8192, "eng @pc=1: scratchpad read out of bounds", 1},
      {&mid_run_k, 8192, "eng @pc=3: scratchpad write out of bounds", 3},
      // Batch limits 2 and 3 put the store first after a yield; 4 makes it
      // the last op of a run cut short by the limit.
      {&overrun_k, 2, "eng @pc=2: scratchpad write out of bounds", 2},
      {&mid_run_k, 3, "eng @pc=3: scratchpad write out of bounds", 3},
      {&mid_run_k, 4, "eng @pc=3: scratchpad write out of bounds", 3},
  };
  for (const Case& c : cases) {
    sim::Simulator s;
    EngineConfig cfg;
    cfg.batch_limit = c.batch_limit;
    Engine e(s, *c.kernel, cfg, "eng");
    e.start([] {});
    EXPECT_EQ(trap_message(s), c.message) << "batch_limit " << c.batch_limit;
    EXPECT_EQ(e.instructions_retired(), c.retired) << c.message;
  }
}

TEST_F(EngineFixture, FallingOffTheEndTraps) {
  KernelBuilder kb("k");
  kb.jmp("last").halt().label("last").li(1, 1);  // the last instruction is not a halt
  sim::Simulator s;
  Engine e(s, kb.build(), EngineConfig{}, "eng");
  e.start([] {});
  EXPECT_EQ(trap_message(s), "eng @pc=3: fell off end of kernel");
  EXPECT_EQ(e.instructions_retired(), 2u);  // the jmp and the li
}

TEST_F(EngineFixture, LoadStoreThroughPort) {
  mem.write_u64(0x100, 5);
  mem.write_u64(0x108, 9);
  KernelBuilder kb("k");
  kb.li(1, 0x100).load(2, 1).load(3, 1, 8).add(4, 2, 3).store(1, 4, 16).halt();
  run(kb.build());
  EXPECT_EQ(mem.read_u64(0x110), 14u);
  EXPECT_EQ(mem.reads, 2);
  EXPECT_EQ(mem.writes, 1);
}

TEST_F(EngineFixture, SubWordLoadZeroExtends) {
  mem.write_u64(0x40, 0xffffffffffffffffull);
  KernelBuilder kb("k");
  kb.li(1, 0x40).load(2, 1, 0, 1).load(3, 1, 0, 4).halt();
  run(kb.build());
  EXPECT_EQ(engine->reg(2), 0xff);
  EXPECT_EQ(static_cast<u64>(engine->reg(3)), 0xffffffffull);
}

TEST_F(EngineFixture, BurstMovesThroughScratchpad) {
  for (u64 i = 0; i < 8; ++i) mem.write_u64(0x200 + i * 8, i * 3);
  KernelBuilder kb("k", 128);
  constexpr Reg SRC = 1, DST = 2, LEN = 3, OFF = 4, V = 5, K = 6, T = 7;
  kb.li(SRC, 0x200)
      .li(DST, 0x400)
      .li(LEN, 64)
      .li(OFF, 0)
      .burst_load(OFF, SRC, LEN)
      // Double every element in the scratchpad.
      .li(K, 0)
      .label("loop")
      .seq(T, K, LEN)
      .bnez(T, "done")
      .spad_load(V, K)
      .shli(V, V, 1)
      .spad_store(K, V)
      .addi(K, K, 8)
      .jmp("loop")
      .label("done")
      .burst_store(DST, OFF, LEN)
      .halt();
  run(kb.build());
  for (u64 i = 0; i < 8; ++i) EXPECT_EQ(mem.read_u64(0x400 + i * 8), i * 6);
}

TEST_F(EngineFixture, BurstOverflowTraps) {
  KernelBuilder overrun("k", 32);
  overrun.li(1, 0).li(2, 0x100).li(3, 64).burst_load(1, 2, 3).halt();  // 64 B into 32 B spad
  KernelBuilder huge("k", 32);
  huge.li(1, 8).li(2, 0x100).li(3, -8).burst_load(1, 2, 3).halt();  // 8 + 2^64 - 8 wraps to 0
  for (KernelBuilder* kb : {&overrun, &huge}) {
    sim::Simulator s;
    Engine e(s, kb->build(), EngineConfig{}, "eng");
    e.attach_mem_port(0, &mem);
    e.start([] {});
    EXPECT_EQ(trap_message(s), "eng @pc=3: burst load overflows scratchpad");
  }
  EXPECT_EQ(mem.reads, 0);
}

TEST_F(EngineFixture, MailboxRoundTrip) {
  os.gets[0] = {123, 321};
  KernelBuilder kb("k");
  kb.mbox_get(1, 0).mbox_get(2, 0).add(3, 1, 2).mbox_put(1, 3).halt();
  run(kb.build());
  ASSERT_EQ(os.puts[1].size(), 1u);
  EXPECT_EQ(os.puts[1][0], 444);
}

TEST_F(EngineFixture, SemaphoreOpsReachPort) {
  KernelBuilder kb("k");
  kb.sem_wait(2).sem_post(2).sem_post(2).halt();
  run(kb.build());
  EXPECT_EQ(os.waits[2], 1);
  EXPECT_EQ(os.posts[2], 2);
}

TEST_F(EngineFixture, DelayAdvancesTime) {
  KernelBuilder kb("k");
  kb.delay(500).halt();
  run(kb.build());
  EXPECT_GE(engine->halt_time(), 500u);
}

TEST_F(EngineFixture, ClockDomainScalesCost) {
  auto make = [] {
    KernelBuilder kb("k");
    kb.li(1, 0);
    for (int i = 0; i < 100; ++i) kb.addi(1, 1, 1);
    kb.halt();
    return kb.build();
  };
  EngineConfig slow;  // 1:1
  run(make(), slow);
  const Cycles slow_time = engine->halt_time();

  sim::Simulator sim2;
  EngineConfig fast;
  fast.clock = sim::ClockDomain{4, 1};  // 4x faster engine
  Engine e2(sim2, make(), fast, "e2");
  e2.attach_os_port(&os);
  bool done2 = false;
  e2.start([&] { done2 = true; });
  sim2.drain();
  EXPECT_TRUE(done2);
  EXPECT_LT(e2.halt_time(), slow_time);
}

TEST_F(EngineFixture, BatchLimitPreservesSemantics) {
  auto make = [] {
    KernelBuilder kb("k");
    kb.li(1, 0).li(2, 0).li(3, 1000)
        .label("loop")
        .seq(4, 2, 3)
        .bnez(4, "out")
        .add(1, 1, 2)
        .addi(2, 2, 1)
        .jmp("loop")
        .label("out")
        .halt();
    return kb.build();
  };
  EngineConfig tiny;
  tiny.batch_limit = 3;
  run(make(), tiny);
  EXPECT_EQ(engine->reg(1), 499500);
}

TEST_F(EngineFixture, InstructionsRetiredCounted) {
  KernelBuilder kb("k");
  kb.li(1, 1).li(2, 2).add(3, 1, 2).halt();
  run(kb.build());
  EXPECT_EQ(engine->instructions_retired(), 4u);
}

TEST_F(EngineFixture, EachOpIsChargedItsCostClass) {
  // One op of every cost class: 4 alu (two li, nop, add), mul, divu, two
  // branches (one not taken, one taken over a skipped addi), and a
  // scratchpad store and load; the halt retires but is not charged.
  KernelBuilder kb("k", 64);
  kb.li(1, 6).li(2, 3).nop().add(3, 1, 2).mul(4, 1, 2).divu(5, 1, 2)
      .beqz(1, "skip")   // not taken
      .bnez(1, "skip")   // taken
      .addi(6, 6, 1)     // skipped
      .label("skip")
      .spad_store(0, 4)
      .spad_load(7, 0)
      .halt();
  const Kernel kernel = kb.build();
  struct Case {
    const char* name;
    CostModel cost;
    Cycles halt_at;  // ceil(sum of op costs / ilp)
  };
  const Case cases[] = {
      // 4*1 + 1 + 18 + 2*1 + 2*1 = 27 raw cycles at ilp 8.
      {"fabric", CostModel{}, 4},
      // 4*1 + 4 + 24 + 2*3 + 2*2 = 42 raw cycles at ilp 1.
      {"cpu", cpu_cost_model(), 42},
  };
  for (const Case& c : cases) {
    sim::Simulator s;
    EngineConfig cfg;
    cfg.cost = c.cost;
    Engine e(s, kernel, cfg, "eng");
    bool done = false;
    e.start([&] { done = true; });
    s.drain();
    EXPECT_TRUE(done) << c.name;
    EXPECT_EQ(e.halt_time(), c.halt_at) << c.name;
    EXPECT_EQ(e.instructions_retired(), 11u) << c.name;
    EXPECT_EQ(e.reg(6), 0) << c.name;
    EXPECT_EQ(e.reg(7), 18) << c.name;
  }
}

TEST_F(EngineFixture, ZeroBatchLimitRejected) {
  // With no budget the engine would yield before every op and never retire one.
  KernelBuilder kb("k");
  kb.halt();
  EngineConfig cfg;
  cfg.batch_limit = 0;
  EXPECT_THROW(Engine(sim, kb.build(), cfg, "e"), std::invalid_argument);
}

TEST_F(EngineFixture, DoubleStartRejected) {
  KernelBuilder kb("k");
  kb.halt();
  run(kb.build());
  EXPECT_THROW(engine->start([] {}), std::invalid_argument);
}

TEST_F(EngineFixture, MissingMemPortRejected) {
  KernelBuilder kb("k");
  kb.li(1, 0).load(2, 1).halt();
  Engine e(sim, kb.build(), EngineConfig{}, "e");
  EXPECT_THROW(e.start([] {}), std::invalid_argument);
}

TEST_F(EngineFixture, MissingOsPortRejected) {
  KernelBuilder kb("k");
  kb.mbox_get(1, 0).halt();
  Engine e(sim, kb.build(), EngineConfig{}, "e");
  EXPECT_THROW(e.start([] {}), std::invalid_argument);
}

TEST_F(EngineFixture, StallCyclesAccumulateOnMemory) {
  mem.write_u64(0, 1);
  KernelBuilder kb("k");
  kb.li(1, 0).load(2, 1).load(3, 1).halt();
  run(kb.build());
  EXPECT_GE(engine->stall_cycles(), 10u);  // two 5-cycle port round trips
}

}  // namespace
}  // namespace vmsls::hwt
