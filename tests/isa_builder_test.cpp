#include <gtest/gtest.h>

#include "hwt/builder.hpp"
#include "hwt/kernel.hpp"

namespace vmsls::hwt {
namespace {

TEST(Isa, BlockingClassification) {
  EXPECT_TRUE(is_blocking(Op::kLoad));
  EXPECT_TRUE(is_blocking(Op::kBurstStore));
  EXPECT_TRUE(is_blocking(Op::kMboxGet));
  EXPECT_TRUE(is_blocking(Op::kDelay));
  EXPECT_TRUE(is_blocking(Op::kHalt));
  EXPECT_FALSE(is_blocking(Op::kAdd));
  EXPECT_FALSE(is_blocking(Op::kSpadLoad));
  EXPECT_FALSE(is_blocking(Op::kBeqz));
}

TEST(Isa, MemAndOsClassification) {
  EXPECT_TRUE(is_mem(Op::kLoad));
  EXPECT_TRUE(is_mem(Op::kBurstLoad));
  EXPECT_FALSE(is_mem(Op::kSpadLoad));
  EXPECT_TRUE(is_os(Op::kSemPost));
  EXPECT_FALSE(is_os(Op::kLoad));
}

TEST(Isa, OpNamesUnique) {
  std::set<std::string> names;
  for (int op = 0; op <= static_cast<int>(Op::kHalt); ++op)
    EXPECT_TRUE(names.insert(op_name(static_cast<Op>(op))).second)
        << "duplicate mnemonic for op " << op;
}

TEST(Isa, ToStringRendersOperands) {
  Instr in{Op::kAddi, 3, 2, 0, 8, 0, -5};
  const std::string s = to_string(in);
  EXPECT_NE(s.find("addi"), std::string::npos);
  EXPECT_NE(s.find("r3"), std::string::npos);
  EXPECT_NE(s.find("-5"), std::string::npos);
}

TEST(Builder, EmitsInOrder) {
  KernelBuilder kb("k");
  kb.li(1, 42).addi(2, 1, 1).halt();
  const Kernel k = kb.build();
  ASSERT_EQ(k.code.size(), 3u);
  EXPECT_EQ(k.code[0].op, Op::kLi);
  EXPECT_EQ(k.code[1].op, Op::kAddi);
  EXPECT_EQ(k.code[2].op, Op::kHalt);
}

TEST(Builder, LabelsResolveForwardAndBackward) {
  KernelBuilder kb("k");
  kb.label("top").li(1, 0).beqz(1, "end").jmp("top").label("end").halt();
  const Kernel k = kb.build();
  EXPECT_EQ(k.code[1].imm, 3);  // beqz -> "end" at index 3
  EXPECT_EQ(k.code[2].imm, 0);  // jmp -> "top" at index 0
}

TEST(Builder, UndefinedLabelThrows) {
  KernelBuilder kb("k");
  kb.jmp("nowhere").halt();
  EXPECT_THROW(kb.build(), std::invalid_argument);
}

TEST(Builder, DuplicateLabelThrows) {
  KernelBuilder kb("k");
  kb.label("x");
  EXPECT_THROW(kb.label("x"), std::invalid_argument);
}

TEST(Builder, InterfaceDerivedFromCode) {
  KernelBuilder kb("k", 256);
  kb.mbox_get(1, 0).mbox_get(2, 3).sem_post(1).load(3, 1, 0, 8, 2).halt();
  const Kernel k = kb.build();
  EXPECT_EQ(k.iface.mailboxes, 4u);   // highest index 3
  EXPECT_EQ(k.iface.semaphores, 2u);  // highest index 1
  EXPECT_EQ(k.iface.mem_ports, 3u);   // highest port 2
  EXPECT_EQ(k.iface.spad_bytes, 256u);
}

TEST(Builder, OpHistogramCounts) {
  KernelBuilder kb("k");
  kb.li(1, 1).li(2, 2).add(3, 1, 2).halt();
  const Kernel k = kb.build();
  EXPECT_EQ(k.op_histogram[static_cast<std::size_t>(Op::kLi)], 2u);
  EXPECT_EQ(k.op_histogram[static_cast<std::size_t>(Op::kAdd)], 1u);
}

TEST(Verify, EmptyKernelRejected) {
  Kernel k;
  k.name = "empty";
  EXPECT_THROW(verify(k), std::invalid_argument);
}

TEST(Verify, MissingHaltRejected) {
  KernelBuilder kb("k");
  kb.li(1, 0);
  EXPECT_THROW(kb.build(), std::invalid_argument);
}

TEST(Verify, BranchTargetOutOfRangeRejected) {
  Kernel k;
  k.name = "bad";
  k.code = {Instr{Op::kJmp, 0, 0, 0, 8, 0, 99}, Instr{Op::kHalt, 0, 0, 0, 8, 0, 0}};
  EXPECT_THROW(verify(k), std::invalid_argument);
}

TEST(Verify, UnknownOpcodeRejected) {
  Kernel k;
  k.name = "bad";
  k.code = {Instr{static_cast<Op>(static_cast<u8>(Op::kHalt) + 1), 0, 0, 0, 8, 0, 0},
            Instr{Op::kHalt, 0, 0, 0, 8, 0, 0}};
  EXPECT_THROW(verify(k), std::invalid_argument);
}

TEST(Verify, BadAccessSizeRejected) {
  Kernel k;
  k.name = "bad";
  k.iface.mem_ports = 1;
  k.code = {Instr{Op::kLoad, 1, 2, 0, 3, 0, 0}, Instr{Op::kHalt, 0, 0, 0, 8, 0, 0}};
  EXPECT_THROW(verify(k), std::invalid_argument);
}

TEST(Verify, BurstWithoutScratchpadRejected) {
  Kernel k;
  k.name = "bad";
  k.iface.mem_ports = 1;
  k.code = {Instr{Op::kBurstLoad, 0, 1, 2, 8, 0, 0}, Instr{Op::kHalt, 0, 0, 0, 8, 0, 0}};
  EXPECT_THROW(verify(k), std::invalid_argument);
}

TEST(Verify, UndeclaredPortRejected) {
  Kernel k;
  k.name = "bad";
  k.iface.mem_ports = 1;  // but code uses port 2
  k.code = {Instr{Op::kLoad, 1, 2, 0, 8, 2, 0}, Instr{Op::kHalt, 0, 0, 0, 8, 0, 0}};
  EXPECT_THROW(verify(k), std::invalid_argument);
}

TEST(Disassemble, ListsEveryInstruction) {
  KernelBuilder kb("demo");
  kb.li(1, 7).halt();
  const std::string text = disassemble(kb.build());
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("li"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace vmsls::hwt
