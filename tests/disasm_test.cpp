//===- tests/disasm_test.cpp - Image listing and branch-semantics tests ---===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "isa/Disasm.h"
#include "link/ImageDisasm.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

using namespace vea;

TEST(ImageDisasm, ListsLabelsAndAnnotatesBranches) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(1, 2);
    F.label("loop");
    F.subi(1, 1, 1);
    F.bne(1, "loop");
    F.call("helper");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("helper");
    F.ret();
  }
  PB.setEntry("main");
  Image Img = layoutProgram(PB.build());
  std::string Listing = disassembleImage(Img);

  EXPECT_NE(Listing.find("main:"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("main.loop:"), std::string::npos);
  EXPECT_NE(Listing.find("helper:"), std::string::npos);
  // The backward branch and the call are annotated with their targets.
  EXPECT_NE(Listing.find("<main.loop>"), std::string::npos);
  EXPECT_NE(Listing.find("<helper>"), std::string::npos);
  // One listing row per code word.
  size_t Rows = 0;
  for (size_t Pos = Listing.find("  00"); Pos != std::string::npos;
       Pos = Listing.find("  00", Pos + 1))
    ++Rows;
  EXPECT_EQ(Rows, Img.CodeBytes / 4);
}

namespace {

/// Branch-semantics sweep: opcode, register value, whether it must branch.
struct BranchCase {
  Opcode Op;
  uint32_t Value;
  bool Taken;
};

class BranchSemantics : public ::testing::TestWithParam<BranchCase> {};

} // namespace

TEST_P(BranchSemantics, TakenExactlyWhenSpecified) {
  BranchCase C = GetParam();
  ProgramBuilder PB("t");
  FunctionBuilder F = PB.beginFunction("main");
  F.li(1, static_cast<int32_t>(C.Value));
  Inst Br;
  Br.Op = C.Op;
  Br.Ra = 1;
  Br.Symbol = "main.taken";
  Br.Reloc = RelocKind::BranchDisp;
  F.emit(Br);
  F.li(16, 0); // Fallthrough: exit 0.
  F.halt();
  F.label("taken");
  F.li(16, 1); // Taken: exit 1.
  F.halt();
  PB.setEntry("main");
  Machine M(layoutProgram(PB.build()));
  RunResult R = M.run();
  ASSERT_EQ(R.Status, RunStatus::Halted);
  EXPECT_EQ(R.ExitCode, C.Taken ? 1u : 0u)
      << opcodeInfo(C.Op).Name << " on " << C.Value;
}

// A static table, not ::testing::Values(): gtest names each case after the
// bytes of its BranchCase, padding included, and static storage keeps that
// padding zero where stack temporaries would leave it differing per run.
static const BranchCase BranchCases[] = {
    BranchCase{Opcode::Beq, 0, true}, BranchCase{Opcode::Beq, 5, false},
    BranchCase{Opcode::Bne, 0, false}, BranchCase{Opcode::Bne, 5, true},
    BranchCase{Opcode::Blt, 0xFFFFFFFF, true}, // -1 < 0
    BranchCase{Opcode::Blt, 0, false},
    BranchCase{Opcode::Ble, 0, true},
    BranchCase{Opcode::Ble, 1, false},
    BranchCase{Opcode::Ble, 0x80000000, true}, // INT_MIN
    BranchCase{Opcode::Bgt, 1, true}, BranchCase{Opcode::Bgt, 0, false},
    BranchCase{Opcode::Bgt, 0xFFFFFFFF, false},
    BranchCase{Opcode::Bge, 0, true},
    BranchCase{Opcode::Bge, 0xFFFFFFFF, false},
    BranchCase{Opcode::Blbc, 4, true}, BranchCase{Opcode::Blbc, 5, false},
    BranchCase{Opcode::Blbs, 5, true},
    BranchCase{Opcode::Blbs, 4, false}};

INSTANTIATE_TEST_SUITE_P(AllConditions, BranchSemantics,
                         ::testing::ValuesIn(BranchCases));

TEST(ImageDisasm, RendersSquashInternalWords) {
  // Bsrx words (never in executable images, but present in diagnostics)
  // and truly illegal words both render without crashing.
  MInst Bsrx = makeBranch(Opcode::Bsrx, 26, 10);
  std::string Text = disassembleWord(encode(Bsrx));
  EXPECT_NE(Text.find("bsrx"), std::string::npos);
  EXPECT_NE(disassembleWord(0x3F << 26).find(".word"), std::string::npos);
}
