// Kernel container + static verifier.
//
// A Kernel is the unit the synthesis flow consumes: code, interface
// requirements (ports, mailboxes, semaphores, scratchpad size), and an op
// histogram used by the resource estimator.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "hwt/isa.hpp"

namespace vmsls::hwt {

/// Interface requirements derived from the code by `analyze_interface`.
struct KernelInterface {
  unsigned mem_ports = 0;     // 1 + highest port index used (0 if none)
  unsigned mailboxes = 0;     // 1 + highest mailbox index used
  unsigned semaphores = 0;    // 1 + highest semaphore index used
  u32 spad_bytes = 0;         // scratchpad capacity (set by the author)
};

struct Kernel {
  std::string name;
  std::vector<Instr> code;
  KernelInterface iface;

  /// Count of each opcode, for resource estimation and reporting.
  std::array<u64, 64> op_histogram{};

  bool empty() const noexcept { return code.empty(); }
};

/// Validates structural properties: nonempty, ends in a halt-reachable
/// form, known opcodes, branch targets in range, sizes in {1,2,4,8}, register indices in
/// range, ports/mailboxes/semaphores consistent with the interface block.
/// Throws std::invalid_argument describing the first violation.
void verify(const Kernel& kernel);

/// Computes interface requirements and the op histogram from the code.
KernelInterface analyze_interface(const std::vector<Instr>& code, u32 spad_bytes);

/// Full disassembly listing with instruction indices.
std::string disassemble(const Kernel& kernel);

}  // namespace vmsls::hwt
