// Reference interpreter for kernel IR: test support, built only into the
// tests that diff the engine against it (never into libvmsls).
//
// Executes a kernel functionally — no timing, no simulator, flat byte
// memory, in-process mailboxes — and is deliberately written as a separate,
// straight-line implementation of the ISA semantics. Property tests run
// randomly generated programs through both this interpreter and the
// cycle-accounted Engine and require identical architectural state, which
// pins the ISA semantics independently of the timing machinery.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <vector>

#include "hwt/kernel.hpp"

namespace vmsls::hwt {

struct InterpResult {
  std::array<i64, kNumRegs> regs{};
  std::vector<u8> spad;
  u64 instructions = 0;
  std::vector<Op> ops;  // the opcodes retired, in order, the halt included
  bool halted = false;
};

class Interpreter {
 public:
  explicit Interpreter(Kernel kernel);

  /// Flat functional memory (sparse, byte-granular).
  void poke(VirtAddr va, u64 value, unsigned bytes = 8);
  u64 peek(VirtAddr va, unsigned bytes = 8) const;

  /// Pre-loads values a kernel will mbox_get (per mailbox index).
  void feed_mailbox(unsigned mbox, i64 value);
  const std::vector<i64>& mailbox_output(unsigned mbox) const;

  /// Runs until halt or `max_instructions`. Throws on semantic errors
  /// (scratchpad overflow, starved mailbox) exactly like the engine traps.
  InterpResult run(u64 max_instructions = 10'000'000);

 private:
  u64 load(VirtAddr va, unsigned bytes) const;
  void store(VirtAddr va, unsigned bytes, u64 value);

  Kernel kernel_;
  std::map<u64, u8> mem_;
  std::map<unsigned, std::deque<i64>> mbox_in_;
  std::map<unsigned, std::vector<i64>> mbox_out_;
  std::map<unsigned, u64> sems_;
};

/// Generates a random but well-formed straight-line + loop program using
/// every non-blocking op (ALU, nop, forward branches, scratchpad loads and
/// stores of every width at unaligned offsets), suitable for differential
/// testing. `spad_bytes` must be at least 8. Deterministic in `seed`.
Kernel random_kernel(u64 seed, unsigned length = 64, u32 spad_bytes = 256);

}  // namespace vmsls::hwt
