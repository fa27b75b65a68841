#include "hwt/kernel.hpp"

#include <sstream>
#include <stdexcept>

namespace vmsls::hwt {

KernelInterface analyze_interface(const std::vector<Instr>& code, u32 spad_bytes) {
  KernelInterface iface;
  iface.spad_bytes = spad_bytes;
  for (const Instr& in : code) {
    if (is_mem(in.op)) iface.mem_ports = std::max(iface.mem_ports, unsigned(in.port) + 1);
    if (in.op == Op::kMboxGet || in.op == Op::kMboxPut)
      iface.mailboxes = std::max(iface.mailboxes, unsigned(in.imm) + 1);
    if (in.op == Op::kSemWait || in.op == Op::kSemPost)
      iface.semaphores = std::max(iface.semaphores, unsigned(in.imm) + 1);
  }
  return iface;
}

namespace {
void fail(const std::string& kernel, std::size_t pc, const std::string& what) {
  throw std::invalid_argument("kernel '" + kernel + "' @" + std::to_string(pc) + ": " + what);
}

bool valid_size(u8 s) { return s == 1 || s == 2 || s == 4 || s == 8; }
}  // namespace

void verify(const Kernel& k) {
  if (k.code.empty()) throw std::invalid_argument("kernel '" + k.name + "' has no code");
  bool has_halt = false;
  for (std::size_t pc = 0; pc < k.code.size(); ++pc) {
    const Instr& in = k.code[pc];
    if (in.op > Op::kHalt) fail(k.name, pc, "unknown opcode");
    if (in.rd >= kNumRegs || in.ra >= kNumRegs || in.rb >= kNumRegs)
      fail(k.name, pc, "register index out of range");
    switch (in.op) {
      case Op::kBeqz:
      case Op::kBnez:
      case Op::kJmp:
        if (in.imm < 0 || static_cast<u64>(in.imm) >= k.code.size())
          fail(k.name, pc, "branch target out of range");
        break;
      case Op::kLoad:
      case Op::kStore:
      case Op::kSpadLoad:
      case Op::kSpadStore:
        if (!valid_size(in.size)) fail(k.name, pc, "access size must be 1/2/4/8");
        break;
      case Op::kDelay:
        if (in.imm < 0) fail(k.name, pc, "negative delay");
        break;
      case Op::kMboxGet:
      case Op::kMboxPut:
      case Op::kSemWait:
      case Op::kSemPost:
        if (in.imm < 0 || in.imm >= 64) fail(k.name, pc, "OS object index out of range");
        break;
      case Op::kHalt:
        has_halt = true;
        break;
      default:
        break;
    }
    if (is_mem(in.op) && in.port >= 4) fail(k.name, pc, "memory port index out of range");
    if ((in.op == Op::kBurstLoad || in.op == Op::kBurstStore) && k.iface.spad_bytes == 0)
      fail(k.name, pc, "burst op requires a scratchpad");
    if ((in.op == Op::kSpadLoad || in.op == Op::kSpadStore) && k.iface.spad_bytes == 0)
      fail(k.name, pc, "scratchpad op requires a scratchpad");
  }
  if (!has_halt) throw std::invalid_argument("kernel '" + k.name + "' never halts");

  const KernelInterface derived = analyze_interface(k.code, k.iface.spad_bytes);
  if (derived.mem_ports > k.iface.mem_ports)
    throw std::invalid_argument("kernel '" + k.name + "' uses more memory ports than declared");
  if (derived.mailboxes > k.iface.mailboxes)
    throw std::invalid_argument("kernel '" + k.name + "' uses more mailboxes than declared");
  if (derived.semaphores > k.iface.semaphores)
    throw std::invalid_argument("kernel '" + k.name + "' uses more semaphores than declared");
}

std::string disassemble(const Kernel& k) {
  std::ostringstream os;
  os << "kernel " << k.name << "  (ports=" << k.iface.mem_ports << " mbox=" << k.iface.mailboxes
     << " sem=" << k.iface.semaphores << " spad=" << k.iface.spad_bytes << "B)\n";
  for (std::size_t pc = 0; pc < k.code.size(); ++pc)
    os << "  " << pc << ":\t" << to_string(k.code[pc]) << "\n";
  return os.str();
}

}  // namespace vmsls::hwt
