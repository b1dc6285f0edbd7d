//===- tests/pipeline_test.cpp - Pass-manager tests -----------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The pass-manager surface of squash/Pipeline.h: registration and ordering
// of the standard pipeline, CFG cache invalidation across Unswitch, prefix
// execution (runUntil), Options::DisabledPasses semantics (including their
// equivalence to the historical per-stage option toggles), the pre/post
// hooks, and the linear-time computed-jump poisoning filter against the
// quadratic reference it replaced.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Layout.h"
#include "squash/Driver.h"
#include "squash/FaultInjector.h"
#include "squash/Pipeline.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

namespace {

/// A program with hot and cold paths plus a cold jump table — enough
/// surface to drive every standard pass out of its trivial case.
Program squashableProgram() {
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
    F.call("switchy");
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
  {
    FunctionBuilder F = PB.beginFunction("cold");
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

Profile profileFor(Program &Prog) {
  Image Baseline = layoutProgram(Prog);
  return profileImage(Baseline, {0}).take();
}

/// Runs the standard pipeline over a fresh copy of \p Prog, returning the
/// result (and, via \p CtxOut, the final context observables).
SquashResult runStandard(const Program &Prog, const Profile &Prof,
                         const Options &Opts,
                         unsigned *CfgBuildsOut = nullptr) {
  Program Copy = Prog;
  SquashResult R;
  PipelineContext Ctx(Copy, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  Status St = PM.run(Ctx);
  EXPECT_TRUE(St.ok()) << St.toString();
  if (CfgBuildsOut)
    *CfgBuildsOut = Ctx.cfgBuilds();
  return R;
}

} // namespace

TEST(Pipeline, StandardPassOrderIsStable) {
  // The names are API: Options::DisabledPasses, --stop-after, and the
  // ablation bench all address passes by these strings.
  const std::vector<std::string> Expected = {
      "cold-code",           "unswitch",    "filter-setjmp-indirect",
      "filter-computed-jump", "regions",    "buffer-safe",
      "layout",               "codec-select", "rewrite"};
  EXPECT_EQ(standardPassNames(), Expected);

  PassManager PM;
  buildStandardPipeline(PM);
  ASSERT_EQ(PM.size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I)
    EXPECT_EQ(PM.pass(I).name(), Expected[I]);
  EXPECT_TRUE(PM.hasPass("rewrite"));
  EXPECT_FALSE(PM.hasPass("no-such-pass"));
}

TEST(Pipeline, CfgBuiltExactlyTwice) {
  // The cache contract: one build feeds cold-code, Unswitch invalidates
  // after mutating the program, one rebuild serves every later pass.
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  unsigned Builds = 0;
  SquashResult R = runStandard(Prog, Prof, Opts, &Builds);
  EXPECT_EQ(Builds, 2u);

  ASSERT_EQ(R.PassTrace.size(), 9u);
  for (const PassTraceEntry &E : R.PassTrace) {
    EXPECT_TRUE(E.Ok) << E.Name;
    EXPECT_FALSE(E.Disabled) << E.Name;
    EXPECT_GE(E.Seconds, 0.0) << E.Name;
  }
}

TEST(Pipeline, MatchesSquashProgramByteForByte) {
  // squashProgram is a thin wrapper over the same pipeline; a hand-built
  // manager must reproduce its image exactly.
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  SquashResult Wrapped = squashProgram(Prog, Prof, Opts).take();
  SquashResult Manual = runStandard(Prog, Prof, Opts);
  EXPECT_EQ(Wrapped.Identity, Manual.Identity);
  EXPECT_EQ(Wrapped.SP.Img.Bytes, Manual.SP.Img.Bytes);
}

TEST(Pipeline, RunUntilStopsAfterNamedPass) {
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  ASSERT_TRUE(PM.runUntil(Ctx, "regions").ok());

  // Five passes ran (through regions); the rewrite never did, so there is
  // no image yet — but the partition is populated for inspection.
  ASSERT_EQ(R.PassTrace.size(), 5u);
  EXPECT_EQ(R.PassTrace.back().Name, "regions");
  EXPECT_TRUE(R.SP.Img.Bytes.empty());
  EXPECT_FALSE(Ctx.Part.Regions.empty());
  EXPECT_EQ(Ctx.Part.RegionOf.size(), Ctx.cfg().numBlocks());
}

TEST(Pipeline, RunUntilUnknownPassIsInvalidArgument) {
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);

  Status St = PM.runUntil(Ctx, "no-such-pass");
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), StatusCode::InvalidArgument);
  EXPECT_TRUE(R.PassTrace.empty());
}

TEST(Pipeline, DisabledBufferSafeMatchesOptionToggle) {
  // The fallback (every function unsafe) is the same conservatism the
  // BufferSafeCalls=false option always meant; images must match exactly.
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);

  Options ViaOption;
  ViaOption.Theta = 1.0;
  ViaOption.BufferSafeCalls = false;
  SquashResult A = squashProgram(Prog, Prof, ViaOption).take();

  Options ViaDisable;
  ViaDisable.Theta = 1.0;
  ViaDisable.DisabledPasses = {"buffer-safe"};
  SquashResult B = squashProgram(Prog, Prof, ViaDisable).take();

  ASSERT_FALSE(B.Identity);
  EXPECT_EQ(A.SP.Img.Bytes, B.SP.Img.Bytes);
}

TEST(Pipeline, DisabledUnswitchMatchesOptionToggle) {
  // Disabling unswitch must not skip the stage outright — candidate switch
  // blocks still need the exclusion fallback, exactly Unswitch=false.
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);

  Options ViaOption;
  ViaOption.Theta = 1.0;
  ViaOption.Unswitch = false;
  SquashResult A = squashProgram(Prog, Prof, ViaOption).take();

  Options ViaDisable;
  ViaDisable.Theta = 1.0;
  ViaDisable.DisabledPasses = {"unswitch"};
  SquashResult B = squashProgram(Prog, Prof, ViaDisable).take();

  EXPECT_EQ(A.SP.Img.Bytes, B.SP.Img.Bytes);
  EXPECT_EQ(B.Unswitch.Unswitched, 0u);
  EXPECT_GE(B.Unswitch.BlocksExcluded, 1u);
}

TEST(Pipeline, DisabledRewriteYieldsRunnableIdentity) {
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;
  Opts.DisabledPasses = {"rewrite"};

  SquashResult R = squashProgram(Prog, Prof, Opts).take();
  EXPECT_TRUE(R.Identity);
  ASSERT_EQ(R.PassTrace.size(), 9u);
  EXPECT_TRUE(R.PassTrace.back().Disabled);

  SquashedRun Run = runSquashed(R.SP, {0});
  EXPECT_EQ(Run.Run.Status, RunStatus::Halted);
}

TEST(Pipeline, UnknownDisabledPassIsError) {
  // A typo in an ablation config must fail loudly, not silently measure
  // the full pipeline.
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.DisabledPasses = {"buffersafe"}; // Missing the hyphen.

  Expected<SquashResult> R = squashProgram(Prog, Prof, Opts);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
}

TEST(Pipeline, DisabledPassesMarkedInTrace) {
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;
  Opts.DisabledPasses = {"buffer-safe"};

  SquashResult R = squashProgram(Prog, Prof, Opts).take();
  ASSERT_EQ(R.PassTrace.size(), 9u);
  for (const PassTraceEntry &E : R.PassTrace)
    EXPECT_EQ(E.Disabled, E.Name == "buffer-safe") << E.Name;

  // The trace renders one row per pass plus a header.
  std::string Table = formatPassTrace(R.PassTrace);
  EXPECT_NE(Table.find("buffer-safe"), std::string::npos);
  EXPECT_NE(Table.find("disabled"), std::string::npos);
}

TEST(Pipeline, HooksRunAroundEveryPass) {
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);

  std::vector<std::string> PreNames, PostNames;
  PM.setPreHook([&](const Pass &P, PipelineContext &) {
    PreNames.push_back(P.name());
    return Status::success();
  });
  PM.setPostHook([&](const Pass &P, PipelineContext &) {
    PostNames.push_back(P.name());
    return Status::success();
  });

  ASSERT_TRUE(PM.run(Ctx).ok());
  EXPECT_EQ(PreNames, standardPassNames());
  EXPECT_EQ(PostNames, standardPassNames());
}

TEST(Pipeline, FailingPreHookAbortsBeforeThePass) {
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  PM.setPreHook([&](const Pass &P, PipelineContext &) {
    if (std::string(P.name()) == "regions")
      return Status::error(StatusCode::InternalError, "injected");
    return Status::success();
  });

  Status St = PM.run(Ctx);
  ASSERT_FALSE(St.ok());
  EXPECT_NE(St.toString().find("regions"), std::string::npos);
  // The aborted pass never executed: the trace holds only the four
  // candidacy passes before it.
  ASSERT_EQ(R.PassTrace.size(), 4u);
  EXPECT_EQ(R.PassTrace.back().Name, "filter-computed-jump");
}

TEST(Pipeline, FaultInjectorAttachesViaPostHook) {
  // The uniform hook point is how the fault harness corrupts the image the
  // instant the rewrite produces it — no pass-specific plumbing.
  Program Prog = squashableProgram();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);

  bool Injected = false;
  PM.setPostHook([&](const Pass &P, PipelineContext &C) {
    if (std::string(P.name()) == "rewrite" && !C.result().Identity) {
      FaultInjector FI(7);
      Injected = FI.inject(C.result().SP, FaultKind::BlobTruncate)
                     .has_value();
    }
    return Status::success();
  });

  ASSERT_TRUE(PM.run(Ctx).ok());
  ASSERT_TRUE(Injected);
  // The truncation is caught at attach, never executed.
  SquashedRun Run = runSquashed(R.SP, {0});
  EXPECT_EQ(Run.Run.Status, RunStatus::Fault);
}

//===----------------------------------------------------------------------===//
// Computed-jump poisoning (the O(blocks^2) -> O(blocks) regression test)
//===----------------------------------------------------------------------===//

namespace {

/// A program whose "poisoned" function ends one block with a raw indirect
/// jump (no SwitchInfo — targets unknown), alongside a clean cold
/// function. Never executed; only the candidacy passes see it.
Program computedJumpProgram() {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("poisoned");
    F.addi(1, 1, 1);
    F.br("mid");
    F.label("mid");
    for (int I = 0; I != 6; ++I)
      F.addi(2, 2, 1);
    Inst J;
    J.Op = Opcode::Jmp;
    J.Rb = 1; // Target register computed upstream: extent unknown.
    F.emit(J);
    F.label("tail");
    for (int I = 0; I != 6; ++I)
      F.addi(3, 3, 1);
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("clean");
    for (int I = 0; I != 10; ++I)
      F.addi(4, 4, 1);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

/// Candidate flags after the given prefix of the standard pipeline, plus
/// the context's CFG observables via out-params.
std::vector<uint8_t> candidatesAfter(const Program &Prog,
                                     const std::string &LastPass) {
  Program Copy = Prog;
  Profile Prof;
  Prof.BlockCounts.assign(Cfg(Copy).numBlocks(), 0);
  Options Opts;
  Opts.Theta = 1.0; // Every block a candidate before filtering.
  SquashResult R;
  PipelineContext Ctx(Copy, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  EXPECT_TRUE(PM.runUntil(Ctx, LastPass).ok());
  return Ctx.Candidate;
}

} // namespace

TEST(Pipeline, ComputedJumpPoisoningMatchesQuadraticReference) {
  // The filter pass marks poisoned functions in one scan and clears only
  // their block lists; the monolithic driver rescanned every block per
  // computed jump. Same poisoned set, lower complexity.
  Program Prog = computedJumpProgram();

  std::vector<uint8_t> Before =
      candidatesAfter(Prog, "filter-setjmp-indirect");
  std::vector<uint8_t> After = candidatesAfter(Prog, "filter-computed-jump");

  // Reference: the driver's original quadratic loop over the same CFG.
  Cfg G(Prog);
  ASSERT_EQ(Before.size(), G.numBlocks());
  std::vector<uint8_t> Ref = Before;
  for (unsigned Id = 0; Id != G.numBlocks(); ++Id) {
    const BasicBlock &B = G.block(Id);
    if (B.Insts.back().Op == Opcode::Jmp && !B.Switch) {
      unsigned F = G.functionOf(Id);
      for (unsigned J = 0; J != G.numBlocks(); ++J)
        if (G.functionOf(J) == F)
          Ref[J] = 0;
    }
  }
  EXPECT_EQ(After, Ref);

  // And the test is not vacuous: the filter actually cleared the poisoned
  // function's blocks and spared the clean one.
  EXPECT_NE(Before, After);
  bool AnySurvivor = false;
  for (uint8_t C : After)
    AnySurvivor |= (C != 0);
  EXPECT_TRUE(AnySurvivor);
}

TEST(Pipeline, SwitchJumpTablesAreNotPoisoned) {
  // A Jmp carrying SwitchInfo is a jump table with known targets — the
  // filter must leave its function alone.
  Program Prog = squashableProgram();
  std::vector<uint8_t> Before =
      candidatesAfter(Prog, "filter-setjmp-indirect");
  std::vector<uint8_t> After = candidatesAfter(Prog, "filter-computed-jump");
  EXPECT_EQ(Before, After);
}
