#include "interp.hpp"

#include <stdexcept>
#include <string>

#include "hwt/builder.hpp"
#include "util/rng.hpp"

namespace vmsls::hwt {

Interpreter::Interpreter(Kernel kernel) : kernel_(std::move(kernel)) { verify(kernel_); }

void Interpreter::poke(VirtAddr va, u64 value, unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i) mem_[va + i] = static_cast<u8>(value >> (8 * i));
}

u64 Interpreter::peek(VirtAddr va, unsigned bytes) const { return load(va, bytes); }

u64 Interpreter::load(VirtAddr va, unsigned bytes) const {
  u64 v = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    auto it = mem_.find(va + i);
    const u8 byte = it == mem_.end() ? 0 : it->second;
    v |= static_cast<u64>(byte) << (8 * i);
  }
  return v;
}

void Interpreter::store(VirtAddr va, unsigned bytes, u64 value) { poke(va, value, bytes); }

void Interpreter::feed_mailbox(unsigned mbox, i64 value) { mbox_in_[mbox].push_back(value); }

const std::vector<i64>& Interpreter::mailbox_output(unsigned mbox) const {
  static const std::vector<i64> kEmpty;
  auto it = mbox_out_.find(mbox);
  return it == mbox_out_.end() ? kEmpty : it->second;
}

InterpResult Interpreter::run(u64 max_instructions) {
  InterpResult st;
  st.spad.assign(kernel_.iface.spad_bytes, 0);
  auto& r = st.regs;
  u64 pc = 0;

  // Never forms `off + n`: a negative address or huge length must not wrap.
  auto spad_fits = [&](u64 off, u64 n) {
    return off <= st.spad.size() && n <= st.spad.size() - off;
  };
  auto spad_load = [&](u64 off, unsigned bytes) -> u64 {
    if (!spad_fits(off, bytes)) throw std::runtime_error("interp: scratchpad read OOB");
    u64 v = 0;
    for (unsigned i = 0; i < bytes; ++i) v |= static_cast<u64>(st.spad[off + i]) << (8 * i);
    return v;
  };
  auto spad_store = [&](u64 off, unsigned bytes, u64 v) {
    if (!spad_fits(off, bytes)) throw std::runtime_error("interp: scratchpad write OOB");
    for (unsigned i = 0; i < bytes; ++i) st.spad[off + i] = static_cast<u8>(v >> (8 * i));
  };

  while (st.instructions < max_instructions) {
    if (pc >= kernel_.code.size()) throw std::runtime_error("interp: fell off end");
    const Instr& in = kernel_.code[pc];
    ++st.instructions;
    st.ops.push_back(in.op);
    const u64 ua = static_cast<u64>(r[in.ra]);
    const u64 ub = static_cast<u64>(r[in.rb]);
    u64 next = pc + 1;
    switch (in.op) {
      case Op::kNop: break;
      case Op::kLi: r[in.rd] = in.imm; break;
      case Op::kMov: r[in.rd] = r[in.ra]; break;
      case Op::kAdd: r[in.rd] = static_cast<i64>(ua + ub); break;
      case Op::kSub: r[in.rd] = static_cast<i64>(ua - ub); break;
      case Op::kMul: r[in.rd] = static_cast<i64>(ua * ub); break;
      case Op::kDivU: r[in.rd] = ub == 0 ? -1 : static_cast<i64>(ua / ub); break;
      case Op::kRemU: r[in.rd] = ub == 0 ? r[in.ra] : static_cast<i64>(ua % ub); break;
      case Op::kAnd: r[in.rd] = static_cast<i64>(ua & ub); break;
      case Op::kOr: r[in.rd] = static_cast<i64>(ua | ub); break;
      case Op::kXor: r[in.rd] = static_cast<i64>(ua ^ ub); break;
      case Op::kShl: r[in.rd] = static_cast<i64>(ua << (ub & 63)); break;
      case Op::kShr: r[in.rd] = static_cast<i64>(ua >> (ub & 63)); break;
      case Op::kAddi: r[in.rd] = static_cast<i64>(ua + static_cast<u64>(in.imm)); break;
      case Op::kMuli: r[in.rd] = static_cast<i64>(ua * static_cast<u64>(in.imm)); break;
      case Op::kAndi: r[in.rd] = static_cast<i64>(ua & static_cast<u64>(in.imm)); break;
      case Op::kShli: r[in.rd] = static_cast<i64>(ua << (in.imm & 63)); break;
      case Op::kShri: r[in.rd] = static_cast<i64>(ua >> (in.imm & 63)); break;
      case Op::kSlt: r[in.rd] = r[in.ra] < r[in.rb] ? 1 : 0; break;
      case Op::kSltu: r[in.rd] = ua < ub ? 1 : 0; break;
      case Op::kSeq: r[in.rd] = r[in.ra] == r[in.rb] ? 1 : 0; break;
      case Op::kSne: r[in.rd] = r[in.ra] != r[in.rb] ? 1 : 0; break;
      case Op::kMin: r[in.rd] = r[in.ra] < r[in.rb] ? r[in.ra] : r[in.rb]; break;
      case Op::kMax: r[in.rd] = r[in.ra] > r[in.rb] ? r[in.ra] : r[in.rb]; break;
      case Op::kBeqz: if (r[in.ra] == 0) next = static_cast<u64>(in.imm); break;
      case Op::kBnez: if (r[in.ra] != 0) next = static_cast<u64>(in.imm); break;
      case Op::kJmp: next = static_cast<u64>(in.imm); break;
      case Op::kLoad:
        r[in.rd] = static_cast<i64>(load(static_cast<u64>(r[in.ra] + in.imm), in.size));
        break;
      case Op::kStore:
        store(static_cast<u64>(r[in.ra] + in.imm), in.size, static_cast<u64>(r[in.rb]));
        break;
      case Op::kBurstLoad: {
        const u64 off = static_cast<u64>(r[in.rd]);
        const u64 n = static_cast<u64>(r[in.rb]);
        if (!spad_fits(off, n)) throw std::runtime_error("interp: burst load OOB");
        for (u64 i = 0; i < n; ++i)
          st.spad[off + i] = static_cast<u8>(load(static_cast<u64>(r[in.ra]) + i, 1));
        break;
      }
      case Op::kBurstStore: {
        const u64 off = static_cast<u64>(r[in.rd]);
        const u64 n = static_cast<u64>(r[in.rb]);
        if (!spad_fits(off, n)) throw std::runtime_error("interp: burst store OOB");
        for (u64 i = 0; i < n; ++i) store(static_cast<u64>(r[in.ra]) + i, 1, st.spad[off + i]);
        break;
      }
      case Op::kSpadLoad:
        r[in.rd] = static_cast<i64>(spad_load(static_cast<u64>(r[in.ra] + in.imm), in.size));
        break;
      case Op::kSpadStore:
        spad_store(static_cast<u64>(r[in.ra] + in.imm), in.size, static_cast<u64>(r[in.rb]));
        break;
      case Op::kMboxGet: {
        auto& q = mbox_in_[static_cast<unsigned>(in.imm)];
        if (q.empty()) throw std::runtime_error("interp: mbox_get on empty mailbox");
        r[in.rd] = q.front();
        q.pop_front();
        break;
      }
      case Op::kMboxPut:
        mbox_out_[static_cast<unsigned>(in.imm)].push_back(r[in.ra]);
        break;
      case Op::kSemWait: {
        auto& c = sems_[static_cast<unsigned>(in.imm)];
        if (c == 0) throw std::runtime_error("interp: sem_wait would block");
        --c;
        break;
      }
      case Op::kSemPost:
        ++sems_[static_cast<unsigned>(in.imm)];
        break;
      case Op::kDelay:
        break;  // timing-only
      case Op::kHalt:
        st.halted = true;
        return st;
    }
    pc = next;
  }
  throw std::runtime_error("interp: instruction budget exhausted (possible livelock)");
}

Kernel random_kernel(u64 seed, unsigned length, u32 spad_bytes) {
  Rng rng(seed);
  KernelBuilder kb("rnd" + std::to_string(seed), spad_bytes);

  // Seed registers with random values so dataflow is non-trivial.
  for (Reg reg = 1; reg < 12; ++reg)
    kb.li(reg, static_cast<i64>(rng.next() & 0xffff) - 0x8000);
  // r29 bounds unaligned scratchpad offsets: x % r29 lies in [0, spad_bytes - 8].
  kb.li(29, static_cast<i64>(spad_bytes) - 7);

  // A bounded loop register ensures termination regardless of the random
  // body: r31 counts down, the only backward branch targets the loop head,
  // and every other branch skips one instruction forward.
  kb.li(31, static_cast<i64>(4 + rng.below(8)));
  kb.label("head");

  const auto any_reg = [&] { return static_cast<Reg>(1 + rng.below(12)); };
  const auto any_width = [&] { return static_cast<u8>(1u << rng.below(4)); };
  for (unsigned i = 0; i < length; ++i) {
    const u64 kind = rng.below(26);
    switch (kind) {
      case 0: kb.add(any_reg(), any_reg(), any_reg()); break;
      case 1: kb.sub(any_reg(), any_reg(), any_reg()); break;
      case 2: kb.mul(any_reg(), any_reg(), any_reg()); break;
      case 3: kb.xor_(any_reg(), any_reg(), any_reg()); break;
      case 4: kb.addi(any_reg(), any_reg(), static_cast<i64>(rng.below(1000)) - 500); break;
      case 5: kb.shri(any_reg(), any_reg(), static_cast<i64>(rng.below(8))); break;
      case 6: kb.slt(any_reg(), any_reg(), any_reg()); break;
      case 7: kb.min(any_reg(), any_reg(), any_reg()); break;
      case 8: kb.divu(any_reg(), any_reg(), any_reg()); break;
      case 9: {
        // Masked scratchpad store + load (always in bounds).
        const Reg a = any_reg(), v = any_reg(), d = any_reg();
        kb.andi(30, a, static_cast<i64>(spad_bytes - 8));
        kb.spad_store(30, v);
        kb.spad_load(d, 30);
        break;
      }
      case 10: kb.remu(any_reg(), any_reg(), any_reg()); break;
      case 11: kb.max(any_reg(), any_reg(), any_reg()); break;
      case 12: kb.mov(any_reg(), any_reg()); break;
      case 13: kb.and_(any_reg(), any_reg(), any_reg()); break;
      case 14: kb.or_(any_reg(), any_reg(), any_reg()); break;
      case 15: kb.shl(any_reg(), any_reg(), any_reg()); break;
      case 16: kb.shr(any_reg(), any_reg(), any_reg()); break;
      case 17: kb.sltu(any_reg(), any_reg(), any_reg()); break;
      case 18: kb.seq(any_reg(), any_reg(), any_reg()); break;
      case 19: kb.sne(any_reg(), any_reg(), any_reg()); break;
      case 20: kb.muli(any_reg(), any_reg(), static_cast<i64>(rng.below(1000)) - 500); break;
      case 21: kb.shli(any_reg(), any_reg(), static_cast<i64>(rng.below(64))); break;
      case 22: kb.nop(); break;
      case 23:
      case 24: {
        // Forward branch over one instruction.
        const std::string skip = "skip" + std::to_string(i);
        if (kind == 23)
          kb.beqz(any_reg(), skip);
        else
          kb.jmp(skip);
        kb.addi(any_reg(), any_reg(), 1);
        kb.label(skip);
        break;
      }
      default: {
        // Store and load of independent widths at an unaligned offset.
        const Reg a = any_reg(), v = any_reg(), d = any_reg();
        kb.remu(30, a, 29);
        kb.spad_store(30, v, 0, any_width());
        kb.spad_load(d, 30, 0, any_width());
        break;
      }
    }
  }

  kb.addi(31, 31, -1);
  kb.bnez(31, "head");
  kb.halt();
  return kb.build();
}

}  // namespace vmsls::hwt
