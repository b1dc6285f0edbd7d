//===- tests/sim_test.cpp - Machine interpreter tests ---------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Layout.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

using namespace vea;

/// Runs a single-function program and returns its RunResult + output.
static RunResult runMain(std::function<void(FunctionBuilder &)> Body,
                         std::vector<uint8_t> Input = {},
                         std::vector<uint8_t> *Output = nullptr) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    Body(F);
  }
  PB.setEntry("main");
  Image Img = layoutProgram(PB.build());
  Machine M(Img);
  M.setInput(std::move(Input));
  RunResult R = M.run();
  if (Output)
    *Output = M.output();
  return R;
}

/// Parameterized check: an operate instruction applied to two constants
/// yields the expected result (exit code = result & 0xFF via PutWord check).
struct AluCase {
  Opcode Op;
  uint32_t A, B, Want;
};

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, ComputesExpected) {
  AluCase C = GetParam();
  std::vector<uint8_t> Out;
  RunResult R = runMain(
      [&](FunctionBuilder &F) {
        F.li(1, static_cast<int32_t>(C.A));
        F.li(2, static_cast<int32_t>(C.B));
        Inst I;
        I.Op = C.Op;
        I.Rc = 16;
        I.Ra = 1;
        I.Rb = 2;
        F.emit(I);
        F.sys(SysFunc::PutWord);
        F.halt();
      },
      {}, &Out);
  ASSERT_EQ(R.Status, RunStatus::Halted);
  ASSERT_EQ(Out.size(), 4u);
  uint32_t Got = Out[0] | (Out[1] << 8) | (Out[2] << 16) |
                 (static_cast<uint32_t>(Out[3]) << 24);
  EXPECT_EQ(Got, C.Want);
}

// A static table, not ::testing::Values(): gtest names each case after the
// bytes of its AluCase, padding included, and static storage keeps that
// padding zero where stack temporaries would leave it differing per run.
static const AluCase AluCases[] = {
    AluCase{Opcode::Add, 7, 8, 15},
    AluCase{Opcode::Add, 0xFFFFFFFF, 1, 0}, // wraparound
    AluCase{Opcode::Sub, 3, 5, 0xFFFFFFFE},
    AluCase{Opcode::Mul, 100000, 100000, 100000u * 100000u},
    AluCase{Opcode::Umulh, 0x80000000, 4, 2},
    AluCase{Opcode::Udiv, 100, 7, 14},
    AluCase{Opcode::Urem, 100, 7, 2},
    AluCase{Opcode::And, 0xF0F0, 0xFF00, 0xF000},
    AluCase{Opcode::Or, 0xF0F0, 0x0F00, 0xFFF0},
    AluCase{Opcode::Xor, 0xFFFF, 0x0F0F, 0xF0F0},
    AluCase{Opcode::Bic, 0xFFFF, 0x0F0F, 0xF0F0},
    AluCase{Opcode::Sll, 1, 31, 0x80000000},
    AluCase{Opcode::Sll, 1, 33, 2}, // shift amounts are mod 32
    AluCase{Opcode::Srl, 0x80000000, 31, 1},
    AluCase{Opcode::Sra, 0x80000000, 31, 0xFFFFFFFF},
    AluCase{Opcode::Cmpeq, 4, 4, 1}, AluCase{Opcode::Cmpeq, 4, 5, 0},
    AluCase{Opcode::Cmplt, 0xFFFFFFFF, 0, 1}, // -1 < 0 signed
    AluCase{Opcode::Cmpult, 0xFFFFFFFF, 0, 0},
    AluCase{Opcode::Cmple, 5, 5, 1},
    AluCase{Opcode::Cmpule, 6, 5, 0}};

INSTANTIATE_TEST_SUITE_P(Ops, AluSemantics, ::testing::ValuesIn(AluCases));

TEST(Machine, ZeroRegisterReadsZero) {
  RunResult R = runMain([](FunctionBuilder &F) {
    F.li(31, 99); // Write to r31: discarded.
    F.mov(16, 31);
    F.halt();
  });
  EXPECT_EQ(R.Status, RunStatus::Halted);
  EXPECT_EQ(R.ExitCode, 0u);
}

TEST(Machine, LoadStoreBytesAndWords) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.la(1, "buf");
    F.li(2, 0x11223344);
    F.stw(2, 1, 0);
    F.ldb(16, 1, 1);
    F.halt();
  }
  PB.addBss("buf", 16);
  PB.setEntry("main");
  Machine M(layoutProgram(PB.build()));
  RunResult R = M.run();
  EXPECT_EQ(R.Status, RunStatus::Halted);
  EXPECT_EQ(R.ExitCode, 0x33u);
}

TEST(Machine, CallsAndRecursion) {
  // fib(10) via naive recursion = 55.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(16, 10);
    F.call("fib");
    F.mov(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("fib");
    F.cmplei(1, 16, 1);
    F.beq(1, "rec");
    F.mov(0, 16);
    F.ret();
    F.label("rec");
    F.enter(12);
    F.stw(16, 30, 4);
    F.subi(16, 16, 1);
    F.call("fib");
    F.ldw(16, 30, 4);
    F.stw(0, 30, 8);
    F.subi(16, 16, 2);
    F.call("fib");
    F.ldw(1, 30, 8);
    F.add(0, 0, 1);
    F.leave(12);
  }
  PB.setEntry("main");
  Machine M(layoutProgram(PB.build()));
  RunResult R = M.run();
  ASSERT_EQ(R.Status, RunStatus::Halted);
  EXPECT_EQ(R.ExitCode, 55u);
}

TEST(Machine, InputOutputSyscalls) {
  std::vector<uint8_t> Out;
  RunResult R = runMain(
      [](FunctionBuilder &F) {
        F.sys(SysFunc::GetChar); // 'A'
        F.mov(16, 0);
        F.addi(16, 16, 1);
        F.sys(SysFunc::PutChar); // 'B'
        F.sys(SysFunc::GetWord);
        F.mov(16, 0);
        F.sys(SysFunc::PutWord);
        F.sys(SysFunc::GetChar); // EOF
        F.andi(16, 0, 0xFF);
        F.halt();
      },
      {'A', 1, 2, 3, 4}, &Out);
  ASSERT_EQ(R.Status, RunStatus::Halted);
  ASSERT_EQ(Out.size(), 5u);
  EXPECT_EQ(Out[0], 'B');
  EXPECT_EQ(Out[1], 1);
  EXPECT_EQ(Out[4], 4);
  EXPECT_EQ(R.ExitCode, 0xFFu); // EOF low byte
}

TEST(Machine, PutIntRendersDecimal) {
  std::vector<uint8_t> Out;
  RunResult R = runMain(
      [](FunctionBuilder &F) {
        F.li(16, -123);
        F.sys(SysFunc::PutInt);
        F.li(16, 0);
        F.halt();
      },
      {}, &Out);
  ASSERT_EQ(R.Status, RunStatus::Halted);
  EXPECT_EQ(std::string(Out.begin(), Out.end()), "-123");
}

TEST(Machine, SetjmpLongjmpRoundTrip) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.la(16, "jb");
    F.sys(SysFunc::Setjmp);
    F.bne(0, "second");
    // First return: r0 == 0. Jump back with value 7.
    F.la(16, "jb");
    F.li(17, 7);
    F.sys(SysFunc::Longjmp);
    F.label("second");
    F.mov(16, 0);
    F.halt();
  }
  PB.addBss("jb", 33 * 4);
  PB.setEntry("main");
  Machine M(layoutProgram(PB.build()));
  RunResult R = M.run();
  ASSERT_EQ(R.Status, RunStatus::Halted);
  EXPECT_EQ(R.ExitCode, 7u);
}

TEST(Machine, FaultOnDivideByZero) {
  RunResult R = runMain([](FunctionBuilder &F) {
    F.li(1, 1);
    F.li(2, 0);
    F.udiv(16, 1, 2);
    F.halt();
  });
  EXPECT_EQ(R.Status, RunStatus::Fault);
  EXPECT_NE(R.FaultMessage.find("division"), std::string::npos);
}

TEST(Machine, FaultOnNullPage) {
  RunResult R = runMain([](FunctionBuilder &F) {
    F.li(1, 0);
    F.ldw(16, 1, 0);
    F.halt();
  });
  EXPECT_EQ(R.Status, RunStatus::Fault);
}

TEST(Machine, FaultOnMisalignedWordAccess) {
  RunResult R = runMain([](FunctionBuilder &F) {
    F.li(1, 0x2001);
    F.ldw(16, 1, 0);
    F.halt();
  });
  EXPECT_EQ(R.Status, RunStatus::Fault);
}

TEST(Machine, FaultOnWordAccessAtTopOfAddressSpace) {
  // 0xFFFFFFFC + 4 wraps to 0 in 32 bits; the bounds check must not.
  RunResult R = runMain([](FunctionBuilder &F) {
    F.ldw(16, RegZero, -4);
    F.halt();
  });
  EXPECT_EQ(R.Status, RunStatus::Fault);
  EXPECT_EQ(R.FaultMessage,
            "out-of-bounds word load at 0xfffffffc (pc=0x1000)");
}

TEST(Machine, OutOfBoundsStoresAndByteAccessesNameTheAddress) {
  RunResult Stw = runMain([](FunctionBuilder &F) {
    F.stw(16, RegZero, -4);
    F.halt();
  });
  EXPECT_EQ(Stw.FaultMessage,
            "out-of-bounds word store at 0xfffffffc (pc=0x1000)");
  RunResult Ldb = runMain([](FunctionBuilder &F) {
    F.ldb(16, RegZero, -1);
    F.halt();
  });
  EXPECT_EQ(Ldb.FaultMessage,
            "out-of-bounds byte load at 0xffffffff (pc=0x1000)");
  RunResult Stb = runMain([](FunctionBuilder &F) {
    F.stb(16, RegZero, 0);
    F.halt();
  });
  EXPECT_EQ(Stb.FaultMessage, "out-of-bounds byte store at 0x0 (pc=0x1000)");
}

TEST(Machine, FaultOnPcOutOfBounds) {
  // Returning to address 0 (initial r26) leaves the mapped image.
  RunResult R = runMain([](FunctionBuilder &F) { F.ret(); });
  EXPECT_EQ(R.Status, RunStatus::Fault);
  EXPECT_EQ(R.FaultMessage, "pc out of bounds (pc=0x0)");
}

TEST(Machine, FaultOnMisalignedPc) {
  // Longjmp resumes at the saved PC unmasked, so a jump buffer whose
  // resume slot holds an unaligned address leaves the PC misaligned.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.la(16, "jb");
    F.li(1, DefaultBase + 2);
    F.stw(1, 16, NumRegs * 4);
    F.li(17, 1);
    F.sys(SysFunc::Longjmp);
    F.halt();
  }
  PB.addBss("jb", 33 * 4);
  PB.setEntry("main");
  Machine M(layoutProgram(PB.build()));
  RunResult R = M.run();
  EXPECT_EQ(R.Status, RunStatus::Fault);
  EXPECT_EQ(R.FaultMessage, "misaligned pc (pc=0x1002)");
}

TEST(Machine, FaultOnIllegalInstructionWord) {
  const uint32_t SentinelWord = 0;
  const uint32_t BsrxWord = encode(makeBranch(Opcode::Bsrx, RegRA, 3));
  for (uint32_t Word : {SentinelWord, BsrxWord}) {
    const std::string Want = "illegal instruction word " +
                             std::to_string(Word);
    // In code: the word replaces main's first instruction.
    {
      ProgramBuilder PB("t");
      {
        FunctionBuilder F = PB.beginFunction("main");
        F.nop();
        F.halt();
      }
      PB.setEntry("main");
      Image Img = layoutProgram(PB.build());
      Img.setWord(Img.EntryPC, Word);
      Machine M(Img);
      RunResult R = M.run();
      EXPECT_EQ(R.Status, RunStatus::Fault);
      EXPECT_EQ(R.FaultMessage, Want + " (pc=0x1000)");
      EXPECT_EQ(R.Instructions, 0u);
    }
    // In data: a call into a data word holding it.
    {
      ProgramBuilder PB("t");
      {
        FunctionBuilder F = PB.beginFunction("main");
        F.la(1, "blob");
        F.callIndirect(1);
        F.halt();
      }
      PB.addDataWords("blob", {Word});
      PB.setEntry("main");
      Image Img = layoutProgram(PB.build());
      const uint32_t Blob = Img.symbol("blob");
      ASSERT_GE(Blob, Img.Base + Img.CodeBytes);
      Machine M(Img);
      RunResult R = M.run();
      char Pc[32];
      std::snprintf(Pc, sizeof(Pc), " (pc=0x%x)", Blob);
      EXPECT_EQ(R.Status, RunStatus::Fault);
      EXPECT_EQ(R.FaultMessage, Want + Pc);
    }
  }
}

namespace {

/// Builds main + target, where target is `addi r16, r31, 1; ret`. main
/// calls target, lets \p Patch overwrite target's first word, calls it
/// again, and exits with (first result << 4) | second result.
RunResult runPatchedTwice(std::function<void(FunctionBuilder &)> Patch) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.call("target");
    F.mov(20, 16);
    Patch(F);
    F.call("target");
    F.slli(20, 20, 4);
    F.or_(16, 16, 20);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("target");
    F.addi(16, RegZero, 1);
    F.ret();
  }
  PB.setEntry("main");
  Machine M(layoutProgram(PB.build()));
  return M.run();
}

} // namespace

TEST(Machine, StoreWordOverExecutedCodeRunsNewInstruction) {
  const uint32_t NewWord = encode(makeRRI(Opcode::Addi, 16, RegZero, 2));
  RunResult R = runPatchedTwice([&](FunctionBuilder &F) {
    F.la(1, "target");
    F.li(2, static_cast<int32_t>(NewWord));
    F.stw(2, 1, 0);
  });
  ASSERT_EQ(R.Status, RunStatus::Halted) << R.FaultMessage;
  EXPECT_EQ(R.ExitCode, 0x12u);
}

TEST(Machine, StoreByteOverExecutedCodeRunsNewInstruction) {
  // addi 1 and addi 2 differ in one byte of the word (lit8 sits in bits
  // 20:13); patch only that byte.
  const uint32_t Old = encode(makeRRI(Opcode::Addi, 16, RegZero, 1));
  const uint32_t New = encode(makeRRI(Opcode::Addi, 16, RegZero, 2));
  int DiffByte = -1;
  for (int B = 0; B != 4; ++B)
    if (((Old ^ New) >> (8 * B)) & 0xFF) {
      ASSERT_EQ(DiffByte, -1) << "words differ in more than one byte";
      DiffByte = B;
    }
  ASSERT_NE(DiffByte, -1);
  RunResult R = runPatchedTwice([&](FunctionBuilder &F) {
    F.la(1, "target");
    F.li(2, static_cast<int32_t>((New >> (8 * DiffByte)) & 0xFF));
    F.stb(2, 1, DiffByte);
  });
  ASSERT_EQ(R.Status, RunStatus::Halted) << R.FaultMessage;
  EXPECT_EQ(R.ExitCode, 0x12u);
}

TEST(Machine, ExecutesRoutineWrittenIntoData) {
  // Writes `addi r16, r31, 42; ret` into a data buffer, calls it, patches
  // the addi to 43 and calls it again. The buffer lies past the code, so
  // both calls take the path that decodes on every fetch.
  const uint32_t Add42 = encode(makeRRI(Opcode::Addi, 16, RegZero, 42));
  const uint32_t Add43 = encode(makeRRI(Opcode::Addi, 16, RegZero, 43));
  const uint32_t Ret = encode(makeJump(Opcode::Ret, RegZero, RegRA));
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.la(1, "buf");
    F.li(2, static_cast<int32_t>(Add42));
    F.stw(2, 1, 0);
    F.li(2, static_cast<int32_t>(Ret));
    F.stw(2, 1, 4);
    F.callIndirect(1);
    F.mov(20, 16);
    F.la(1, "buf");
    F.li(2, static_cast<int32_t>(Add43));
    F.stw(2, 1, 0);
    F.callIndirect(1);
    F.slli(20, 20, 8);
    F.or_(16, 16, 20);
    F.halt();
  }
  PB.addBss("buf", 8);
  PB.setEntry("main");
  Image Img = layoutProgram(PB.build());
  ASSERT_GE(Img.symbol("buf"), Img.Base + Img.CodeBytes);
  Machine M(Img);
  RunResult R = M.run();
  ASSERT_EQ(R.Status, RunStatus::Halted) << R.FaultMessage;
  EXPECT_EQ(R.ExitCode, (42u << 8) | 43u);
}

TEST(Machine, InstructionLimitStopsRunaways) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.nop();
    F.label("spin");
    F.br("spin");
  }
  PB.setEntry("main");
  Machine::Config Cfg;
  Cfg.MaxInstructions = 1000;
  Machine M(layoutProgram(PB.build()), Cfg);
  RunResult R = M.run();
  EXPECT_EQ(R.Status, RunStatus::InstLimit);
  EXPECT_EQ(R.Instructions, 1000u);
}

TEST(Machine, BlockProfileCountsEntries) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(1, 5);
    F.label("loop");
    F.subi(1, 1, 1);
    F.bne(1, "loop");
    F.li(16, 0);
    F.halt();
  }
  PB.setEntry("main");
  Program P = PB.build();
  Image Img = layoutProgram(P);
  Machine::Config MC;
  MC.CollectBlockProfile = true;
  Machine M(Img, MC);
  RunResult R = M.run();
  ASSERT_EQ(R.Status, RunStatus::Halted);
  Profile Prof = M.takeProfile();
  vea::Cfg G(P);
  EXPECT_EQ(Prof.BlockCounts[G.idOf("main")], 1u);
  EXPECT_EQ(Prof.BlockCounts[G.idOf("main.loop")], 5u);
  EXPECT_EQ(Prof.TotalInstructions, R.Instructions);
}

TEST(Machine, CyclesMatchInstructionsWithoutTraps) {
  RunResult R = runMain([](FunctionBuilder &F) {
    F.li(1, 100);
    F.label("loop");
    F.subi(1, 1, 1);
    F.bne(1, "loop");
    F.li(16, 0);
    F.halt();
  });
  EXPECT_EQ(R.Cycles, R.Instructions);
}
