#include "hwt/engine.hpp"

#include <array>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace vmsls::hwt {

namespace {
constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kHalt) + 1;
}  // namespace

CostModel cpu_cost_model() {
  CostModel c;
  c.alu = 1;
  c.mul = 4;
  c.divu = 24;
  c.branch = 3;   // average including mispredictions
  c.spad = 2;     // L1-resident temporary: load-use latency amortized
  c.mem_issue = 1;
  c.os_issue = 1;
  c.ilp = 1;  // single-issue in-order core
  return c;
}

Engine::Engine(sim::Simulator& sim, Kernel kernel, const EngineConfig& cfg, std::string name)
    : sim_(sim),
      kernel_(std::move(kernel)),
      cfg_(cfg),
      name_(std::move(name)),
      spad_(kernel_.iface.spad_bytes, 0),
      stat_instret_(sim.stats().counter(name_ + ".instructions")),
      stat_mem_ops_(sim.stats().counter(name_ + ".mem_ops")),
      stat_os_ops_(sim.stats().counter(name_ + ".os_ops")),
      stat_mem_latency_(sim.stats().histogram(name_ + ".mem_latency")) {
  verify(kernel_);
  require(cfg_.batch_limit > 0, "engine batch_limit must be at least 1");
  // Raw cost of each non-blocking op, by opcode: nop and the plain ALU ops
  // cost `alu`; blocking ops never enter a run.
  std::array<Cycles, kNumOps> op_cost;
  op_cost.fill(cfg_.cost.alu);
  const auto charge = [&op_cost](std::initializer_list<Op> ops, Cycles cost) {
    for (Op op : ops) op_cost[static_cast<std::size_t>(op)] = cost;
  };
  charge({Op::kMul, Op::kMuli}, cfg_.cost.mul);
  charge({Op::kDivU, Op::kRemU}, cfg_.cost.divu);
  charge({Op::kBeqz, Op::kBnez, Op::kJmp}, cfg_.cost.branch);
  charge({Op::kSpadLoad, Op::kSpadStore}, cfg_.cost.spad);

  // Back to front: a non-blocking op starts a run that a branch ends and
  // that otherwise continues with the run after it (none past a blocking
  // op or the end of the code, whose own entry stays empty).
  const std::vector<Instr>& code = kernel_.code;
  runs_.resize(code.size() + 1);
  for (u64 pc = code.size(); pc-- > 0;) {
    const Op op = code[pc].op;
    if (is_blocking(op)) continue;
    Run& run = runs_[pc];
    run = {1, op_cost[static_cast<std::size_t>(op)]};
    const bool branch = op == Op::kBeqz || op == Op::kBnez || op == Op::kJmp;
    if (!branch && pc + 1 < code.size()) {
      run.len += runs_[pc + 1].len;
      run.cost += runs_[pc + 1].cost;
    }
  }
}

void Engine::attach_mem_port(unsigned index, MemPort* port) {
  require(index < mem_ports_.size(), "memory port index out of range");
  require(port != nullptr, "null memory port");
  mem_ports_[index] = port;
}

void Engine::attach_os_port(OsPort* port) {
  require(port != nullptr, "null OS port");
  os_port_ = port;
}

void Engine::start(std::function<void()> on_halt, Cycles start_delay) {
  require(!started_, "engine started twice");
  for (unsigned p = 0; p < kernel_.iface.mem_ports; ++p)
    require(mem_ports_[p] != nullptr,
            name_ + ": kernel uses memory port " + std::to_string(p) + " but none is attached");
  if (kernel_.iface.mailboxes > 0 || kernel_.iface.semaphores > 0)
    require(os_port_ != nullptr, name_ + ": kernel uses OS services but no OS port is attached");
  started_ = true;
  on_halt_ = std::move(on_halt);
  start_time_ = sim_.now() + start_delay;
  sim_.schedule_in(start_delay, [this] { resume(); });
}

i64 Engine::reg(unsigned r) const {
  require(r < kNumRegs, "register index out of range");
  return regs_[r];
}

void Engine::set_reg(unsigned r, i64 v) {
  require(r < kNumRegs, "register index out of range");
  regs_[r] = v;
}

void Engine::trap(u64 pc, u64 instret, const char* what) {
  pc_ = pc;
  instret_ = instret;
  throw std::runtime_error(name_ + " @pc=" + std::to_string(pc_) + ": " + what);
}

bool Engine::spad_fits(u64 offset, u64 bytes) const noexcept {
  // Written so `offset + bytes` is never formed: a negative register
  // address or a huge burst length must not wrap into range.
  return offset <= spad_.size() && bytes <= spad_.size() - offset;
}

// One constant-width copy per case: a single load or store at any offset,
// aligned or not.
inline u64 Engine::spad_read(u64 offset, u8 size) const noexcept {
  const u8* p = spad_.data() + offset;
  switch (size) {
    case 1: return *p;
    case 2: { u16 v = 0; std::memcpy(&v, p, 2); return v; }
    case 4: { u32 v = 0; std::memcpy(&v, p, 4); return v; }
    default: { u64 v = 0; std::memcpy(&v, p, 8); return v; }
  }
}

inline void Engine::spad_write(u64 offset, u8 size, u64 value) noexcept {
  u8* p = spad_.data() + offset;
  switch (size) {
    case 1: *p = static_cast<u8>(value); return;
    case 2: { const u16 v = static_cast<u16>(value); std::memcpy(p, &v, 2); return; }
    case 4: { const u32 v = static_cast<u32>(value); std::memcpy(p, &v, 4); return; }
    default: std::memcpy(p, &value, 8); return;
  }
}

Cycles Engine::effective(Cycles local_cost) const noexcept {
  const unsigned ilp = cfg_.cost.ilp == 0 ? 1 : cfg_.cost.ilp;
  return (local_cost + ilp - 1) / ilp;
}

void Engine::yield_then_resume(Cycles local_cost) {
  sim_.schedule_in(cfg_.clock.to_ref(effective(local_cost)), [this] { resume(); });
}

void Engine::resume() {
  // Loop state lives in locals: a `regs_` write is an i64 store that may
  // alias any u64 member, so members would be reloaded every iteration.
  // `sync` writes it back before any yield or callback; `trap` takes it.
  const Instr* const code = kernel_.code.data();
  const u64 code_size = kernel_.code.size();
  const Run* const runs = runs_.data();
  i64* const regs = regs_.data();
  u64 pc = pc_;
  u64 instret = instret_;
  const auto sync = [&] {
    pc_ = pc;
    instret_ = instret;
  };
  Cycles local = 0;  // cost accumulated in the engine's own clock domain
  u64 batch_left = cfg_.batch_limit;

  // One handler per op, in Op order. A run holds no blocking op, so their
  // slots are never reached.
  static const void* const kHandler[] = {
      &&op_nop, &&op_li, &&op_mov,
      &&op_add, &&op_sub, &&op_mul, &&op_divu, &&op_remu,
      &&op_and, &&op_or, &&op_xor, &&op_shl, &&op_shr,
      &&op_addi, &&op_muli, &&op_andi, &&op_shli, &&op_shri,
      &&op_slt, &&op_sltu, &&op_seq, &&op_sne, &&op_min, &&op_max,
      &&op_beqz, &&op_bnez, &&op_jmp,
      &&op_blocking, &&op_blocking, &&op_blocking, &&op_blocking,  // memory ports
      &&op_spad_load, &&op_spad_store,
      &&op_blocking, &&op_blocking, &&op_blocking, &&op_blocking,  // OS calls
      &&op_blocking, &&op_blocking,                                // delay, halt
  };
  static_assert(std::size(kHandler) == kNumOps);

  while (true) {
    // pc never passes the code size, whose entry is an empty run.
    const Run run = runs[pc];
    const u64 k = run.len < batch_left ? run.len : batch_left;
    if (k > 0) {
      // The first k ops of the run at pc: only the run's last op can be a
      // branch, so they sit at pc .. pc + k - 1.
      const Cycles cost = run.cost - (k == run.len ? 0 : runs[pc + k].cost);
      const Instr* const first = code + pc;
      const Instr* const last = first + k;
      const Instr* in = first;
      // Operands of an op.
      const auto a = [regs](const Instr* op) { return regs[op->ra]; };
      const auto b = [regs](const Instr* op) { return regs[op->rb]; };
      const auto ua = [regs](const Instr* op) { return static_cast<u64>(regs[op->ra]); };
      const auto ub = [regs](const Instr* op) { return static_cast<u64>(regs[op->rb]); };
      const auto rd = [regs](const Instr* op) -> i64& { return regs[op->rd]; };
#define VMSLS_DISPATCH() goto* kHandler[static_cast<std::size_t>(in->op)]
#define VMSLS_NEXT()                \
  do {                              \
    if (++in == last) goto run_end; \
    VMSLS_DISPATCH();               \
  } while (0)
      VMSLS_DISPATCH();
    op_nop: VMSLS_NEXT();
    op_li: rd(in) = in->imm; VMSLS_NEXT();
    op_mov: rd(in) = a(in); VMSLS_NEXT();
    op_add: rd(in) = static_cast<i64>(ua(in) + ub(in)); VMSLS_NEXT();
    op_sub: rd(in) = static_cast<i64>(ua(in) - ub(in)); VMSLS_NEXT();
    op_mul: rd(in) = static_cast<i64>(ua(in) * ub(in)); VMSLS_NEXT();
    op_divu: rd(in) = ub(in) == 0 ? -1 : static_cast<i64>(ua(in) / ub(in)); VMSLS_NEXT();
    op_remu: rd(in) = ub(in) == 0 ? a(in) : static_cast<i64>(ua(in) % ub(in)); VMSLS_NEXT();
    op_and: rd(in) = static_cast<i64>(ua(in) & ub(in)); VMSLS_NEXT();
    op_or: rd(in) = static_cast<i64>(ua(in) | ub(in)); VMSLS_NEXT();
    op_xor: rd(in) = static_cast<i64>(ua(in) ^ ub(in)); VMSLS_NEXT();
    op_shl: rd(in) = static_cast<i64>(ua(in) << (ub(in) & 63)); VMSLS_NEXT();
    op_shr: rd(in) = static_cast<i64>(ua(in) >> (ub(in) & 63)); VMSLS_NEXT();
    op_addi: rd(in) = static_cast<i64>(ua(in) + static_cast<u64>(in->imm)); VMSLS_NEXT();
    op_muli: rd(in) = static_cast<i64>(ua(in) * static_cast<u64>(in->imm)); VMSLS_NEXT();
    op_andi: rd(in) = static_cast<i64>(ua(in) & static_cast<u64>(in->imm)); VMSLS_NEXT();
    op_shli: rd(in) = static_cast<i64>(ua(in) << (in->imm & 63)); VMSLS_NEXT();
    op_shri: rd(in) = static_cast<i64>(ua(in) >> (in->imm & 63)); VMSLS_NEXT();
    op_slt: rd(in) = a(in) < b(in) ? 1 : 0; VMSLS_NEXT();
    op_sltu: rd(in) = ua(in) < ub(in) ? 1 : 0; VMSLS_NEXT();
    op_seq: rd(in) = a(in) == b(in) ? 1 : 0; VMSLS_NEXT();
    op_sne: rd(in) = a(in) != b(in) ? 1 : 0; VMSLS_NEXT();
    op_min: rd(in) = a(in) < b(in) ? a(in) : b(in); VMSLS_NEXT();
    op_max: rd(in) = a(in) > b(in) ? a(in) : b(in); VMSLS_NEXT();
    op_spad_load: {
      const u64 off = ua(in) + static_cast<u64>(in->imm);
      if (!spad_fits(off, in->size))
        trap(static_cast<u64>(in - code), instret + static_cast<u64>(in - first),
             "scratchpad read out of bounds");
      rd(in) = static_cast<i64>(spad_read(off, in->size));
      VMSLS_NEXT();
    }
    op_spad_store: {
      const u64 off = ua(in) + static_cast<u64>(in->imm);
      if (!spad_fits(off, in->size))
        trap(static_cast<u64>(in - code), instret + static_cast<u64>(in - first),
             "scratchpad write out of bounds");
      spad_write(off, in->size, ub(in));
      VMSLS_NEXT();
    }
    // A branch is the last op of its run.
    op_beqz: pc = a(in) == 0 ? static_cast<u64>(in->imm) : pc + k; goto charge;
    op_bnez: pc = a(in) != 0 ? static_cast<u64>(in->imm) : pc + k; goto charge;
    op_jmp: pc = static_cast<u64>(in->imm); goto charge;
    op_blocking: __builtin_unreachable();
#undef VMSLS_NEXT
#undef VMSLS_DISPATCH
    run_end:
      pc += k;
    charge:
      local += cost;
      instret += k;
      batch_left -= k;
      continue;
    }

    if (pc >= code_size) trap(pc, instret, "fell off end of kernel");
    if (batch_left == 0) {
      // Yield to keep single events bounded; resume in the same local cycle
      // budget we accumulated.
      sync();
      yield_then_resume(local);
      return;
    }
    const Instr& in = code[pc];
    const Op op = in.op;
    const i64 a = regs[in.ra];
    const u64 ua = static_cast<u64>(a);
    const u64 ub = static_cast<u64>(regs[in.rb]);
    switch (op) {
      case Op::kDelay: {
        ++instret;
        ++pc;
        sync();
        // The explicit delay is absolute pipeline depth, not subject to ILP.
        sim_.schedule_in(
            cfg_.clock.to_ref(effective(local) + static_cast<Cycles>(in.imm)),
            [this] { resume(); });
        return;
      }

      case Op::kHalt: {
        ++instret;
        sync();
        stat_instret_.add(instret_);
        const Cycles at = cfg_.clock.to_ref(effective(local));
        sim_.schedule_in(at, [this] {
          halted_ = true;
          halt_time_ = sim_.now();
          if (on_halt_) on_halt_();
        });
        return;
      }

      case Op::kLoad:
      case Op::kStore: {
        ++instret;
        sync();
        stat_mem_ops_.add();
        mem_word_ = op == Op::kStore ? ub : 0;
        const Cycles at = sim_.now() + cfg_.clock.to_ref(effective(local) + cfg_.cost.mem_issue);
        if (!issue_at(at, ua + static_cast<u64>(in.imm),
                      std::span<u8>(reinterpret_cast<u8*>(&mem_word_), in.size)))
          return;
        pc = pc_;  // completed in place: carry on as the resumed engine would
        local = 0;
        batch_left = cfg_.batch_limit;
        continue;
      }

      case Op::kBurstLoad:
      case Op::kBurstStore: {
        ++instret;
        sync();
        stat_mem_ops_.add();
        const bool load = op == Op::kBurstLoad;
        const u64 spad_off = static_cast<u64>(regs[in.rd]);
        const VirtAddr va = static_cast<VirtAddr>(a);
        const u64 bytes = ub;
        if (bytes == 0)
          trap(pc, instret, load ? "zero-length burst load" : "zero-length burst store");
        if (!spad_fits(spad_off, bytes))
          trap(pc, instret,
               load ? "burst load overflows scratchpad" : "burst store overruns scratchpad");
        const Cycles at = sim_.now() + cfg_.clock.to_ref(effective(local) + cfg_.cost.mem_issue);
        if (!issue_at(at, va, std::span<u8>(spad_.data() + spad_off, bytes))) return;
        pc = pc_;
        local = 0;
        batch_left = cfg_.batch_limit;
        continue;
      }

      case Op::kMboxGet:
      case Op::kMboxPut:
      case Op::kSemWait:
      case Op::kSemPost: {
        ++instret;
        sync();
        stat_os_ops_.add();
        const Cycles issue = cfg_.clock.to_ref(effective(local) + cfg_.cost.os_issue);
        sim_.schedule_in(issue, [this, a] { issue_os(a); });
        return;
      }

      default: __builtin_unreachable();  // non-blocking ops run in the runs above
    }
  }
}

// A memory op stays at pc_ until its port completes, so neither the issue
// nor the completion needs a copy of the instruction. `buf` is mem_word_
// for a load/store and the scratchpad for a burst; the engine is blocked,
// so it stays valid and untouched until the port's completion fires.
void Engine::issue_mem(VirtAddr va, std::span<u8> buf) {
  const Instr& op = kernel_.code[pc_];
  MemPort* port = mem_ports_[op.port];
  auto done = [this, issued_at = sim_.now()] { finish_mem_op(issued_at); };
  if (op.op == Op::kLoad || op.op == Op::kBurstLoad)
    port->read(va, buf, std::move(done));
  else
    port->write(va, buf, std::move(done));
}

// An OS call likewise stays at pc_ until the runtime completes it; `value`
// is the register an mbox_put sends.
void Engine::issue_os(i64 value) {
  const Instr& op = kernel_.code[pc_];
  const auto index = static_cast<unsigned>(op.imm);
  auto done = [this] {
    ++pc_;
    resume();
  };
  switch (op.op) {
    case Op::kMboxGet:
      os_port_->mbox_get(index, [this](i64 v) {
        regs_[kernel_.code[pc_].rd] = v;
        ++pc_;
        resume();
      });
      return;
    case Op::kMboxPut: os_port_->mbox_put(index, value, std::move(done)); return;
    case Op::kSemWait: os_port_->sem_wait(index, std::move(done)); return;
    default: os_port_->sem_post(index, std::move(done)); return;
  }
}

// The trampoline behind a run-ahead issue: a completion that fires inside
// issue_mem only records itself, and resume()'s loop carries on in place,
// so host stack depth does not grow with the number of accesses.
bool Engine::issue_at(Cycles at, VirtAddr va, std::span<u8> buf) {
  if (!sim_.try_advance_to(at)) {
    sim_.schedule_run_ahead(at, [this, va, buf] { issue_mem(va, buf); });
    return false;
  }
  issuing_in_place_ = true;
  completed_in_place_ = false;
  issue_mem(va, buf);
  issuing_in_place_ = false;
  return completed_in_place_;
}

void Engine::finish_mem_op(Cycles issued_at) {
  const Instr& op = kernel_.code[pc_];
  if (op.op == Op::kLoad) regs_[op.rd] = static_cast<i64>(mem_word_);
  ++pc_;
  const Cycles waited = sim_.now() - issued_at;
  stall_cycles_ += waited;
  stat_mem_latency_.record(waited);
  if (issuing_in_place_)
    completed_in_place_ = true;
  else
    resume();
}

}  // namespace vmsls::hwt
