// Cycle-accounted kernel executor.
//
// Executes kernel IR with a pluggable cost model and pluggable ports.
// Non-blocking instructions run in batches inside one simulator event,
// accumulating local-clock cycles; the engine yields to the event queue at
// every blocking operation (memory, OS call, delay) and at a batch limit,
// so component interleaving is exact at every externally visible point.
//
// The engine executes one straight-line run at a time. A run is the
// longest sequence of non-blocking ops that ends at, and includes, the
// first beqz/bnez/jmp, and that stops before a blocking op or the end of
// the code. The constructor builds a per-pc table once: the length of the
// run starting at that pc and the suffix cost sum from that pc to the end
// of its run, each op charged its cost class from the CostModel. Each step
// of the resume loop then handles either one blocking op, or a prefix of
// k = min(run length, batch budget left) ops of the run at pc, dispatched
// through a labels-as-values handler table (whose blocking-op slots are
// never reached) and charged once: cost, retired count and batch budget,
// the cost being cost[pc] - cost[pc + k], second term dropped when k is the
// whole run.
//
// Batch limit: one event retires at most `batch_limit` ops. Once the
// budget is spent the loop yields before the next op, blocking or not, and
// resumes with a fresh budget (as does a memory op that completes in
// place), so yields fall at the same retired counts as if each op were
// counted on its own. Traps: a scratchpad op out of bounds reports its own
// pc and, as retired count, the ops before it, its run's earlier ops
// included; when pc reaches the code size the engine traps "fell off end"
// before any yield, with every earlier op retired.
//
// Loop state (pc, retired count, code pointer, run table, batch budget)
// lives in locals, and pc and retired count are written back to the members
// before any yield, callback or trap, so callbacks and trap messages see
// the true pc. Scratchpad loads and stores copy a constant 1, 2, 4 or 8
// bytes per case (the widths `verify` admits); loads zero-extend.
//
// A memory op issues in place when the simulator grants the run-ahead step
// to its issue cycle (sim/simulator.hpp); a port that then completes
// inside the call hands control back to the loop, which carries on with a
// fresh batch exactly as the resumed engine would.
//
// Cost model defaults describe a pipelined HLS datapath (II=1 ALU);
// the CPU model overrides them (see cpu/cpu.hpp).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "hwt/kernel.hpp"
#include "hwt/ports.hpp"
#include "sim/clock.hpp"
#include "sim/simulator.hpp"

namespace vmsls::hwt {

struct CostModel {
  Cycles alu = 1;
  Cycles mul = 1;      // pipelined multiplier
  Cycles divu = 18;    // iterative divider
  Cycles branch = 1;
  Cycles spad = 1;     // BRAM access
  Cycles mem_issue = 1;  // cycles to present a request on a memory port
  Cycles os_issue = 1;   // cycles to present an OS call

  /// Sustained instruction-level parallelism of the datapath. An HLS tool
  /// pipelines loop bodies at II=1, turning a ~8-op body into one cycle of
  /// spatial hardware, so the fabric retires several IR ops per cycle
  /// (default 8); the in-order CPU model uses 1. Raw op costs accumulate
  /// and are divided by this at every yield point, so blocking operations
  /// still serialize exactly.
  unsigned ilp = 8;
};

/// Cost model approximating an in-order applications processor.
CostModel cpu_cost_model();

struct EngineConfig {
  CostModel cost{};
  sim::ClockDomain clock{1, 1};  // engine clock relative to the fabric clock
  u64 batch_limit = 8192;        // max straight-line instructions per event (>= 1)
};

class Engine {
 public:
  Engine(sim::Simulator& sim, Kernel kernel, const EngineConfig& cfg, std::string name);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Ports must be attached for every interface the kernel uses before
  /// `start`. Pointers must outlive the engine.
  void attach_mem_port(unsigned index, MemPort* port);
  void attach_os_port(OsPort* port);

  /// Begins execution at pc 0; `on_halt` fires when the kernel halts.
  /// `start_delay` models wrapper/launch latency.
  void start(std::function<void()> on_halt, Cycles start_delay = 0);

  bool halted() const noexcept { return halted_; }
  bool running() const noexcept { return started_ && !halted_; }

  // Introspection for tests and the runtime.
  i64 reg(unsigned r) const;
  void set_reg(unsigned r, i64 v);
  std::span<const u8> spad() const noexcept { return spad_; }
  u64 instructions_retired() const noexcept { return instret_; }
  Cycles halt_time() const noexcept { return halt_time_; }
  Cycles start_time() const noexcept { return start_time_; }
  Cycles stall_cycles() const noexcept { return stall_cycles_; }
  const Kernel& kernel() const noexcept { return kernel_; }
  const std::string& name() const noexcept { return name_; }

 private:
  void resume();
  /// Raw accumulated op cost -> datapath cycles (ILP credit, rounding up).
  Cycles effective(Cycles local_cost) const noexcept;
  void yield_then_resume(Cycles local_cost);
  void issue_mem(VirtAddr va, std::span<u8> buf);
  /// Issues the memory op at pc_ at cycle `at` from inside resume()'s
  /// loop: in place when the simulator grants the run-ahead step, else as
  /// a run-ahead fallback event. True when the port also completed inside
  /// the call (finish_mem_op then leaves the resume to the loop).
  bool issue_at(Cycles at, VirtAddr va, std::span<u8> buf);
  void finish_mem_op(Cycles issued_at);
  void issue_os(i64 value);
  /// Writes `resume`'s loop state back, then throws naming the pc.
  [[noreturn]] void trap(u64 pc, u64 instret, const char* what);

  bool spad_fits(u64 offset, u64 bytes) const noexcept;
  /// In-bounds access only; the caller checks `spad_fits` and traps.
  u64 spad_read(u64 offset, u8 size) const noexcept;
  void spad_write(u64 offset, u8 size, u64 value) noexcept;

  sim::Simulator& sim_;
  Kernel kernel_;
  EngineConfig cfg_;
  std::string name_;
  /// The straight-line run starting at a pc: its length in ops (0 at a
  /// blocking op) and the raw cost of its ops from that pc to its end.
  struct Run {
    u64 len = 0;
    Cycles cost = 0;
  };
  std::vector<Run> runs_;  // by pc

  std::array<i64, kNumRegs> regs_{};
  std::vector<u8> spad_;
  std::array<MemPort*, 4> mem_ports_{};
  OsPort* os_port_ = nullptr;
  u64 mem_word_ = 0;  // the caller-owned buffer of an in-flight load/store
  bool issuing_in_place_ = false;
  bool completed_in_place_ = false;

  u64 pc_ = 0;
  bool started_ = false;
  bool halted_ = false;
  std::function<void()> on_halt_;
  u64 instret_ = 0;
  Cycles start_time_ = 0;
  Cycles halt_time_ = 0;
  Cycles stall_cycles_ = 0;

  Counter& stat_instret_;
  Counter& stat_mem_ops_;
  Counter& stat_os_ops_;
  Histogram& stat_mem_latency_;
};

}  // namespace vmsls::hwt
