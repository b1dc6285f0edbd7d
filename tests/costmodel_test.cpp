//===- tests/costmodel_test.cpp - Shared cycle-cost model -----------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// squash/CostModel.h is the single source of truth for every cycle charge
// the simulated runtime makes; these tests pin its formulas and then catch
// drift the hard way: run a squashed program and re-derive each aggregate
// charge from event counts times the configured constants. If the runtime
// (or a future codec) starts pricing work on its own, the re-derivation
// stops matching.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "squash/CostModel.h"
#include "squash/Driver.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

namespace {

/// Instruction budget for every run here: the fixtures retire a few
/// thousand instructions at most, so a run that spins fails in
/// milliseconds instead of at the default limit.
constexpr uint64_t FixtureBudget = 100'000;

/// A squashable program whose compressed half actually runs: the loop and
/// both helpers are skipped on the profiling input (byte 0) so they go
/// cold and compress, then the measurement input (byte 1) drives the loop
/// through them — forcing the runtime to decompress, re-enter (buffered
/// hits), and create restore stubs.
Program costProgram() {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.label("go");
    F.li(9, 40);
    F.label("loop");
    F.call("work");
    F.call("helper");
    F.subi(9, 9, 1);
    F.bne(9, "loop");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("work");
    for (int I = 0; I != 16; ++I)
      F.addi(1, 1, 3);
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("helper");
    for (int I = 0; I != 12; ++I)
      F.addi(2, 2, 7);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

SquashedRun squashAndRun(const Options &Opts) {
  Program Prog = costProgram();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  SquashedRun Run = runSquashed(SR.SP, {1}, FixtureBudget);
  EXPECT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  return Run;
}

} // namespace

TEST(CostModel, DefaultConstants) {
  // The charges the benches and DESIGN.md §6 quote. Changing one is a
  // deliberate re-calibration: update the docs with this test.
  CostModel C;
  EXPECT_EQ(C.DecompSetupCycles, 64u);
  EXPECT_EQ(C.CyclesPerDecodedInstr, 24u);
  EXPECT_EQ(C.IcacheFlushCycles, 32u);
  EXPECT_EQ(C.CreateStubCycles, 16u);
  EXPECT_EQ(C.PatternCyclesPerCoveredInstr, 6u);
}

TEST(CostModel, CodecDecodeCycleFormulas) {
  CostModel C;
  DecodeWork W;
  W.Instructions = 100;
  W.PatternCovered = 70;
  W.Escapes = 30;

  EXPECT_EQ(codecDecodeCycles(C, CodecKind::Huffman, W), 100u * 24u);
  EXPECT_EQ(codecDecodeCycles(C, CodecKind::Pattern, W),
            70u * 6u + 30u * 24u);

  // The formulas scale with the constants, not with baked-in numbers.
  C.CyclesPerDecodedInstr = 5;
  C.PatternCyclesPerCoveredInstr = 2;
  EXPECT_EQ(codecDecodeCycles(C, CodecKind::Huffman, W), 500u);
  EXPECT_EQ(codecDecodeCycles(C, CodecKind::Pattern, W), 70u * 2u + 30u * 5u);
}

TEST(CostModel, RegionFillChargeSplitsFlatVsModeledFlush) {
  CostModel C;
  FillCharge Flat = regionFillCharge(C, 1000, /*ModeledIcache=*/false);
  EXPECT_EQ(Flat.Setup, C.DecompSetupCycles);
  EXPECT_EQ(Flat.Decode, 1000u);
  EXPECT_EQ(Flat.Flush, C.IcacheFlushCycles);
  EXPECT_EQ(Flat.total(), 64u + 1000u + 32u);

  // With the machine modeling the cache, the flat flush charge must vanish
  // (the cost surfaces as fetch misses instead; charging both would
  // double-count).
  FillCharge Modeled = regionFillCharge(C, 1000, /*ModeledIcache=*/true);
  EXPECT_EQ(Modeled.Setup, C.DecompSetupCycles);
  EXPECT_EQ(Modeled.Decode, 1000u);
  EXPECT_EQ(Modeled.Flush, 0u);
}

TEST(CostModel, RuntimeChargesMatchEventCountsTimesConstants) {
  Options Opts;
  Opts.Theta = 1.0; // Everything cold: maximal runtime traffic.
  SquashedRun R = squashAndRun(Opts);
  const RuntimeSystem::Stats &St = R.Runtime;
  const CostModel &C = Opts.Costs;

  // The program really exercised every charge path.
  ASSERT_GT(St.Decompressions, 0u);
  ASSERT_GT(St.DecodedInstructions, 0u);

  // Each aggregate equals its event count times the shared constant.
  EXPECT_EQ(St.TrapSetupCyclesTotal,
            (St.Decompressions + St.BufferedHits) * C.DecompSetupCycles);
  EXPECT_EQ(St.IcacheFlushCyclesTotal,
            St.Decompressions * C.IcacheFlushCycles);
  EXPECT_EQ(St.CreateStubCyclesTotal, St.StubCreates * C.CreateStubCycles);
  // All-Huffman plan, no decode-ahead: decode work is exactly the Huffman
  // per-instruction rate.
  EXPECT_EQ(
      St.DecodeOnlyCyclesByCodec[static_cast<size_t>(CodecKind::Huffman)],
      St.DecodedInstructions * C.CyclesPerDecodedInstr);
  EXPECT_EQ(
      St.DecodeOnlyCyclesByCodec[static_cast<size_t>(CodecKind::Pattern)], 0u);
}

TEST(CostModel, ModeledIcacheDropsFlatFlushCharge) {
  Options Opts;
  Opts.Theta = 1.0;
  Opts.Icache.Enabled = true;
  Opts.Icache.Sets = 16;
  Opts.Icache.Ways = 2;
  SquashedRun R = squashAndRun(Opts);
  const RuntimeSystem::Stats &St = R.Runtime;

  ASSERT_GT(St.Decompressions, 0u);
  // The flush cost moved from the flat charge into modeled fetch misses.
  EXPECT_EQ(St.IcacheFlushCyclesTotal, 0u);
  EXPECT_GT(R.Run.IcacheMisses, 0u);
  EXPECT_EQ(R.Run.IcacheMissCycles,
            R.Run.IcacheMisses * Opts.Icache.MissCycles);
  // The other charges are flush-independent.
  EXPECT_EQ(St.TrapSetupCyclesTotal, (St.Decompressions + St.BufferedHits) *
                                         Opts.Costs.DecompSetupCycles);
  EXPECT_EQ(St.CreateStubCyclesTotal,
            St.StubCreates * Opts.Costs.CreateStubCycles);
}

TEST(CostModel, ScaledConstantsMoveRuntimeCharges) {
  // Double one constant; the runtime's aggregate must double with it —
  // proof the runtime prices through the shared model, not a copy.
  Options Base;
  Base.Theta = 1.0;
  SquashedRun A = squashAndRun(Base);

  Options Scaled = Base;
  Scaled.Costs.DecompSetupCycles *= 2;
  SquashedRun B = squashAndRun(Scaled);

  ASSERT_EQ(B.Runtime.Decompressions, A.Runtime.Decompressions);
  ASSERT_EQ(B.Runtime.BufferedHits, A.Runtime.BufferedHits);
  EXPECT_EQ(B.Runtime.TrapSetupCyclesTotal,
            2 * A.Runtime.TrapSetupCyclesTotal);
  EXPECT_EQ(B.Output, A.Output); // Costs never change behaviour.
}
