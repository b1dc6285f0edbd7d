//===- tests/driver_test.cpp - Pipeline-level policy tests ----------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// End-to-end checks of the candidate-filtering policies the driver
// implements: setjmp callers never compressed (Section 2.2), indirect-call
// blocks excluded, computed jumps poisoning their function, and the
// threshold plumbing.
//
//===----------------------------------------------------------------------===//

#include "link/Layout.h"
#include "ir/Builder.h"
#include "squash/Driver.h"
#include "squash/Observability.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

namespace {

/// Instruction budget for every run here: the fixtures retire a few
/// thousand instructions at most, so a run that spins fails in
/// milliseconds instead of at the default limit.
constexpr uint64_t FixtureBudget = 100'000;

Machine::Config fixtureConfig() {
  Machine::Config Cfg;
  Cfg.MaxInstructions = FixtureBudget;
  return Cfg;
}

/// True if any block of function \p Name landed in a region.
bool functionCompressed(const SquashResult &SR,
                        const std::string &Name) {
  if (SR.Identity)
    return false;
  // Compressed blocks appear in StubOf (entries) or are simply absent from
  // the final symbol map at their own address; test via the stub map plus
  // region info: a function is compressed iff its entry label has a stub.
  return SR.SP.StubOf.count(Name) != 0;
}

} // namespace

TEST(Driver, SetjmpCallersNeverCompressed) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.call("uses_setjmp");
    F.call("plain_cold");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("uses_setjmp");
    F.enter(8);
    F.la(16, "jb");
    F.sys(SysFunc::Setjmp);
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 1);
    F.leave(8);
  }
  {
    FunctionBuilder F = PB.beginFunction("plain_cold");
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.addBss("jb", 33 * 4);
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();

  Options Opts;
  Opts.Theta = 1.0; // Everything cold.
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  EXPECT_FALSE(functionCompressed(SR, "uses_setjmp"));
  EXPECT_TRUE(functionCompressed(SR, "plain_cold"));
}

TEST(Driver, IndirectCallBlocksExcluded) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.call("dispatcher");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("dispatcher");
    F.enter(8);
    F.la(1, "tab");
    F.ldw(1, 1, 0);
    F.callIndirect(1); // Jsr: this block cannot be compressed.
    F.leave(8);
  }
  {
    FunctionBuilder F = PB.beginFunction("target");
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.addSymbolTable("tab", {"target"});
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();

  Options Opts;
  Opts.Theta = 1.0;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  EXPECT_FALSE(functionCompressed(SR, "dispatcher"));
  EXPECT_TRUE(functionCompressed(SR, "target"));
  // And the squashed program still runs both paths correctly.
  Machine M(SR.SP.Img, fixtureConfig());
  RuntimeSystem RT(SR.SP);
  ASSERT_TRUE(RT.attach(M).ok());
  M.setInput({1});
  EXPECT_EQ(M.run().Status, RunStatus::Halted);
}

TEST(Driver, HigherThetaCompressesAtLeastAsMuch) {
  // Monotonicity: the compressed-instruction count never shrinks as θ
  // grows (on a fixed profile).
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(9, 50);
    F.label("hot");
    F.li(16, 1);
    F.call("warm");
    F.subi(9, 9, 1);
    F.bne(9, "hot");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.call("cold");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("warm");
    for (int I = 0; I != 12; ++I)
      F.addi(0, 16, 2);
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("cold");
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();

  uint64_t Last = 0;
  for (double Theta : {0.0, 1e-3, 1e-1, 1.0}) {
    Options Opts;
    Opts.Theta = Theta;
    SquashResult SR = squashProgram(Prog, Prof, Opts).take();
    EXPECT_GE(SR.Regions.CompressibleInstructions, Last);
    Last = SR.Regions.CompressibleInstructions;
  }
  EXPECT_GT(Last, 0u);
}

TEST(Driver, ProfileReflectsInputDifferences) {
  // The same program profiled on two inputs gives different cold sets.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "pathB");
    F.call("fa");
    F.br("out");
    F.label("pathB");
    F.call("fb");
    F.label("out");
    F.li(16, 0);
    F.halt();
  }
  for (const char *Name : {"fa", "fb"}) {
    FunctionBuilder F = PB.beginFunction(Name);
    for (int I = 0; I != 16; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);

  Profile ProfA = profileImage(Baseline, {1}).take();
  Profile ProfB = profileImage(Baseline, {0}).take();
  Options Opts;
  SquashResult SA = squashProgram(Prog, ProfA, Opts).take();
  SquashResult SB = squashProgram(Prog, ProfB, Opts).take();
  // Under input A, fb is cold (compressed); under input B, fa is.
  EXPECT_TRUE(SA.SP.StubOf.count("fb"));
  EXPECT_FALSE(SA.SP.StubOf.count("fa"));
  EXPECT_TRUE(SB.SP.StubOf.count("fa"));
  EXPECT_FALSE(SB.SP.StubOf.count("fb"));
}

TEST(Driver, UnswitchStatsSurfaceInResult) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.call("switchy");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("switchy");
    F.andi(1, 16, 1);
    F.switchJump(1, 2, "jt", {"a", "b"});
    F.label("a");
    F.li(0, 1);
    F.ret();
    F.label("b");
    F.li(0, 2);
    F.ret();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();

  Options Opts;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  EXPECT_EQ(SR.Unswitch.Unswitched, 1u);
  EXPECT_EQ(SR.Unswitch.TablesReclaimed, 1u);

  Options NoUnswitch;
  NoUnswitch.Unswitch = false;
  SquashResult SR2 = squashProgram(Prog, Prof, NoUnswitch).take();
  EXPECT_EQ(SR2.Unswitch.Unswitched, 0u);
  EXPECT_GE(SR2.Unswitch.BlocksExcluded, 3u);
}

TEST(Driver, RunSquashedSurfacesAttachFailure) {
  // A corrupted layout never reaches execution: runSquashed reports the
  // validation failure as a Fault run instead of dying or running garbage.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.call("cold");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("cold");
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();
  SquashResult SR = squashProgram(Prog, Prof, Options()).take();
  ASSERT_FALSE(SR.Identity);

  SquashedProgram SP = SR.SP;
  SP.Layout.BufferWords = 0;
  SquashedRun R = runSquashed(SP, {1}, FixtureBudget);
  EXPECT_EQ(R.Run.Status, RunStatus::Fault);
  EXPECT_NE(R.Run.FaultMessage.find("no jump slot"), std::string::npos);
  EXPECT_EQ(R.Runtime.Decompressions, 0u);
}

TEST(Driver, RunSquashedIsIdempotentOnIdentityImages) {
  // Zero-region squash results carry no runtime machinery; runSquashed
  // must handle them without attach-time complaints.
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
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {}).take();
  SquashResult SR = squashProgram(Prog, Prof, Options()).take();
  ASSERT_TRUE(SR.Identity);
  SquashedRun R = runSquashed(SR.SP, {}, FixtureBudget);
  EXPECT_EQ(R.Run.Status, RunStatus::Halted);
  EXPECT_EQ(R.Runtime.Decompressions, 0u);
}

TEST(Driver, IdentityResultRecordsEveryPass) {
  // The monolithic driver returned early on identity results, skipping the
  // buffer-safe stage and its stats; the pass manager records every pass
  // uniformly, so an identity run still carries a full trace, real
  // buffer-safety stats, and every squash.time.* metric.
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
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {}).take();
  SquashResult SR = squashProgram(Prog, Prof, Options()).take();
  ASSERT_TRUE(SR.Identity);

  // All nine passes appear in the trace, none skipped.
  ASSERT_EQ(SR.PassTrace.size(), 9u);
  EXPECT_EQ(SR.PassTrace.front().Name, "cold-code");
  EXPECT_EQ(SR.PassTrace.back().Name, "rewrite");
  for (const auto &E : SR.PassTrace) {
    EXPECT_TRUE(E.Ok) << E.Name;
    EXPECT_FALSE(E.Disabled) << E.Name;
  }

  // The buffer-safe analysis really ran (the old early exit left this 0).
  EXPECT_GT(SR.BufferSafe.Functions, 0u);

  // The metrics export carries the complete squash.time.* family.
  vea::MetricsRegistry Reg;
  collectSquashMetrics(Reg, SR);
  for (const char *Name :
       {"squash.time.cold_seconds", "squash.time.unswitch_seconds",
        "squash.time.region_seconds", "squash.time.buffersafe_seconds",
        "squash.time.codec_select_seconds", "squash.time.rewrite_seconds",
        "squash.time.total_seconds"})
    EXPECT_TRUE(Reg.has(Name)) << Name;
  EXPECT_EQ(Reg.counter("squash.identity"), 1u);

  // And the identity image still executes end to end.
  SquashedRun R = runSquashed(SR.SP, {}, FixtureBudget);
  EXPECT_EQ(R.Run.Status, RunStatus::Halted);
}
