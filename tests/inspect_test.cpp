//===- tests/inspect_test.cpp - Inspector and extension-option tests ------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "link/Layout.h"
#include "ir/Builder.h"
#include "squash/Driver.h"
#include "squash/Inspect.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace vea;
using namespace squash;

namespace {

/// Instruction budget for every run here: the fixtures retire a few
/// thousand instructions at most, so a run that spins fails in
/// milliseconds instead of at the default limit.
constexpr uint64_t FixtureBudget = 100'000;

/// Hot main + one cold helper; returns the squash result at θ = 0.
SquashResult squashedFixture(const Options &Opts) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.li(16, 1);
    F.call("colder");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("colder");
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 3);
    F.blt(1, "wrap");
    F.addi(0, 1, 1);
    F.ret();
    F.label("wrap");
    F.li(0, 0);
    F.ret();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();
  return squashProgram(Prog, Prof, Opts).take();
}

} // namespace

TEST(Inspect, SegmentMapNamesEverySegment) {
  SquashResult SR = squashedFixture(Options());
  ASSERT_FALSE(SR.Identity);
  std::string Map = formatSegmentMap(SR.SP);
  for (const char *Part :
       {"never-compressed code", "entry stubs", "decompressor",
        "function offset table", "restore-stub area", "runtime buffer",
        "compressed blob", "total code footprint"})
    EXPECT_NE(Map.find(Part), std::string::npos) << Map;
}

TEST(Inspect, EntryStubListingDecodesTags) {
  SquashResult SR = squashedFixture(Options());
  std::string Stubs = formatEntryStubs(SR.SP);
  EXPECT_NE(Stubs.find("colder"), std::string::npos) << Stubs;
  EXPECT_NE(Stubs.find("region 0"), std::string::npos) << Stubs;
}

TEST(Inspect, RegionDisassemblyMatchesStoredCount) {
  SquashResult SR = squashedFixture(Options());
  ASSERT_GE(SR.SP.Regions.size(), 1u);
  std::string Text = formatRegion(SR.SP, 0);
  // One "[buf+" row per stored instruction.
  size_t Rows = 0;
  for (size_t Pos = Text.find("[buf+"); Pos != std::string::npos;
       Pos = Text.find("[buf+", Pos + 1))
    ++Rows;
  EXPECT_EQ(Rows, SR.SP.Regions[0].StoredInstructions);
  EXPECT_EQ(Text.find("<corrupt"), std::string::npos);
  EXPECT_NE(formatRegion(SR.SP, 999).find("no such region"),
            std::string::npos);
}

TEST(Inspect, RegionTableRowsMatchRegions) {
  SquashResult SR = squashedFixture(Options());
  std::string Table = formatRegionTable(SR.SP);
  size_t Lines = std::count(Table.begin(), Table.end(), '\n');
  EXPECT_EQ(Lines, SR.SP.Regions.size() + 1); // header + one row each
}

TEST(Extensions, WholeFunctionRegionsStrawman) {
  Options Whole;
  Whole.WholeFunctionRegions = true;
  SquashResult WholeSR = squashedFixture(Whole);
  SquashResult SubSR = squashedFixture(Options());
  ASSERT_FALSE(WholeSR.Identity);
  // Function-grain: exactly one region (the cold function), whose blocks
  // are all of colder's blocks.
  EXPECT_EQ(WholeSR.Regions.PackedRegions, 1u);
  // Behaviour is still preserved.
  SquashedRun Run = runSquashed(WholeSR.SP, {1}, FixtureBudget);
  EXPECT_EQ(Run.Run.Status, RunStatus::Halted);
  SquashedRun Run2 = runSquashed(SubSR.SP, {1}, FixtureBudget);
  EXPECT_EQ(Run.Run.ExitCode, Run2.Run.ExitCode);
}

TEST(Extensions, WholeFunctionRejectsMixedFunctions) {
  // A function with one hot block cannot be compressed at function grain.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(16, 5);
    F.call("mixed");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("mixed");
    F.addi(0, 16, 1); // Hot entry (executed every run).
    F.beq(16, "cold");
    F.ret();
    F.label("cold");
    for (int I = 0; I != 30; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {}).take();

  Options Whole;
  Whole.WholeFunctionRegions = true;
  SquashResult WholeSR = squashProgram(Prog, Prof, Whole).take();
  // Function grain finds nothing (mixed hot/cold function)...
  EXPECT_TRUE(WholeSR.Identity);
  // ...while sub-function regions compress the cold half (Section 4's
  // argument).
  SquashResult SubSR = squashProgram(Prog, Prof, Options()).take();
  EXPECT_FALSE(SubSR.Identity);
}
