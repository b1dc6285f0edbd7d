//===- tests/layout_test.cpp - Fetch model + profile-guided layout --------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The memory-aware fetch model (sim/Icache.h) and the profile-guided
// function layout seam: the tag-only I-cache's hit/miss/LRU/flush
// semantics, the explicit-order overload of link/Layout (identity must be
// byte-identical, non-permutations must be LayoutErrors, Image::Blocks
// must stay Cfg-id-indexed under any placement), the layout pass's
// determinism and byte-stability when off, and the end-to-end guarantee
// that placement never changes guest behaviour — only cycles.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Layout.h"
#include "sim/Icache.h"
#include "squash/Driver.h"
#include "squash/Inspect.h"
#include "squash/LayoutPass.h"
#include "squash/Pipeline.h"
#include "squash/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace vea;
using namespace squash;

namespace {

/// Instruction budget for every squashed run here: the fixtures retire a
/// few thousand instructions at most, so a runtime regression that spins
/// fails in milliseconds instead of at the default limit.
constexpr uint64_t RunBudget = 100'000;

/// A program with a hot call pair (main -> warm) separated in program
/// order by a cold function, plus enough cold code to squash. The layout
/// pass should pull main and warm together, so the computed order is
/// observably non-identity.
Program layoutProgram3() {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(9, 60);
    F.label("hot");
    F.li(16, 3);
    F.call("warm");
    F.subi(9, 9, 1);
    F.bne(9, "hot");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    // Blocks here are extended basic blocks (labels are the only split
    // points); give the guarded cold call its own block so its execution
    // count — zero on this input — is what the profile records.
    F.label("coldcall");
    F.call("cold");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("cold");
    for (int I = 0; I != 24; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("warm");
    for (int I = 0; I != 10; ++I)
      F.addi(0, 16, 5);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

Profile profileFor(Program &Prog) {
  Image Baseline = layoutProgram(Prog);
  return profileImage(Baseline, {0}).take();
}

/// Runs \p Img to completion and returns (exit code, output).
std::pair<uint32_t, std::vector<uint8_t>> runImage(const Image &Img,
                                                   bool WithIcache = false) {
  Machine::Config Cfg;
  if (WithIcache) {
    Cfg.Icache.Enabled = true;
    Cfg.Icache.LineBytes = 16;
    Cfg.Icache.Sets = 8;
    Cfg.Icache.Ways = 1;
  }
  Machine M(Img, Cfg);
  M.setInput({0});
  RunResult R = M.run();
  EXPECT_EQ(R.Status, RunStatus::Halted) << R.FaultMessage;
  return {R.ExitCode, M.output()};
}

} // namespace

//===----------------------------------------------------------------------===//
// The tag-only cache model.
//===----------------------------------------------------------------------===//

TEST(Icache, MissThenHitAndLruEviction) {
  IcacheConfig C;
  C.Enabled = true;
  C.LineBytes = 16;
  C.Sets = 1; // Everything contends for one set.
  C.Ways = 2;
  C.MissCycles = 20;
  IcacheModel M(C);

  EXPECT_EQ(M.access(0x1000), 20u); // Cold miss.
  EXPECT_EQ(M.access(0x100C), 0u);  // Same line.
  EXPECT_EQ(M.access(0x2000), 20u); // Second way.
  EXPECT_EQ(M.access(0x1000), 0u);  // Both resident.
  EXPECT_EQ(M.access(0x3000), 20u); // Evicts LRU = 0x2000.
  EXPECT_EQ(M.access(0x1000), 0u);  // Survived (recently used).
  EXPECT_EQ(M.access(0x2000), 20u); // Re-misses after eviction.

  const IcacheStats &S = M.stats();
  EXPECT_EQ(S.Fetches, 7u);
  EXPECT_EQ(S.Misses, 4u);
  EXPECT_EQ(S.MissCycles, 80u);
  EXPECT_DOUBLE_EQ(S.missRate(), 4.0 / 7.0);
}

TEST(Icache, FlushRangeInvalidatesOnlyCoveredLines) {
  IcacheConfig C;
  C.LineBytes = 16;
  C.Sets = 8;
  C.Ways = 1;
  C.MissCycles = 5;
  IcacheModel M(C);

  M.access(0x1000);
  M.access(0x1010);
  M.access(0x1020);
  // Flush the middle line only (one byte inside it suffices).
  M.flushRange(0x1014, 4);
  EXPECT_EQ(M.access(0x1000), 0u); // Untouched.
  EXPECT_EQ(M.access(0x1010), 5u); // Invalidated.
  EXPECT_EQ(M.access(0x1020), 0u); // Untouched.
  EXPECT_EQ(M.stats().LinesFlushed, 1u);
  EXPECT_EQ(M.stats().RangeFlushes, 1u);

  // A zero-length flush touches nothing.
  M.flushRange(0x1000, 0);
  EXPECT_EQ(M.access(0x1000), 0u);

  M.flushAll();
  EXPECT_EQ(M.access(0x1000), 5u);
}

TEST(Icache, GeometryIsNormalizedToPowersOfTwo) {
  IcacheConfig C;
  C.LineBytes = 24; // -> 32
  C.Sets = 3;       // -> 4
  C.Ways = 0;       // -> 1
  IcacheModel M(C);
  EXPECT_EQ(M.config().LineBytes, 32u);
  EXPECT_EQ(M.config().Sets, 4u);
  EXPECT_EQ(M.config().Ways, 1u);

  IcacheConfig Z; // Degenerate zeros all clamp to minima.
  Z.LineBytes = 0;
  Z.Sets = 0;
  Z.Ways = 0;
  IcacheModel MZ(Z);
  EXPECT_EQ(MZ.config().LineBytes, 4u);
  EXPECT_EQ(MZ.config().Sets, 1u);
  EXPECT_EQ(MZ.config().Ways, 1u);
}

TEST(Icache, MachineModelChangesOnlyCycles) {
  Program Prog = layoutProgram3();
  Image Img = layoutProgram(Prog);

  Machine::Config Plain;
  Machine MP(Img, Plain);
  MP.setInput({0});
  RunResult RP = MP.run();
  ASSERT_EQ(RP.Status, RunStatus::Halted);
  EXPECT_EQ(RP.IcacheFetches, 0u); // Model off: no counters.

  Machine::Config Modeled;
  Modeled.Icache.Enabled = true;
  Modeled.Icache.LineBytes = 16;
  Modeled.Icache.Sets = 4;
  Modeled.Icache.Ways = 1;
  Machine MI(Img, Modeled);
  MI.setInput({0});
  RunResult RI = MI.run();
  ASSERT_EQ(RI.Status, RunStatus::Halted);

  // Tag-only: identical architectural outcome...
  EXPECT_EQ(RI.ExitCode, RP.ExitCode);
  EXPECT_EQ(MI.output(), MP.output());
  EXPECT_EQ(RI.Instructions, RP.Instructions);
  // ...but every fetch is observed and misses cost cycles.
  EXPECT_EQ(RI.IcacheFetches, RI.Instructions);
  EXPECT_GT(RI.IcacheMisses, 0u);
  EXPECT_EQ(RI.Cycles, RP.Cycles + RI.IcacheMissCycles);
}

//===----------------------------------------------------------------------===//
// link/Layout's explicit function order.
//===----------------------------------------------------------------------===//

TEST(LayoutOrder, IdentityIsByteIdentical) {
  Program Prog = layoutProgram3();
  Image Plain = layoutProgramOrError(Prog, DefaultBase).take();
  Image Empty = layoutProgramOrError(Prog, DefaultBase, {}).take();
  Image Explicit =
      layoutProgramOrError(Prog, DefaultBase, {0, 1, 2}).take();

  EXPECT_EQ(Plain.Bytes, Empty.Bytes);
  EXPECT_EQ(Plain.Bytes, Explicit.Bytes);
  EXPECT_EQ(Plain.EntryPC, Explicit.EntryPC);
  ASSERT_EQ(Plain.Blocks.size(), Explicit.Blocks.size());
  for (size_t B = 0; B != Plain.Blocks.size(); ++B) {
    EXPECT_EQ(Plain.Blocks[B].Addr, Explicit.Blocks[B].Addr) << B;
    EXPECT_EQ(Plain.Blocks[B].SizeWords, Explicit.Blocks[B].SizeWords) << B;
  }
}

TEST(LayoutOrder, PermutationMovesFunctionsNotBehaviour) {
  Program Prog = layoutProgram3();
  Image Id = layoutProgramOrError(Prog, DefaultBase).take();
  Image Perm = layoutProgramOrError(Prog, DefaultBase, {2, 0, 1}).take();

  // "warm" now leads the image; "main" follows it.
  EXPECT_EQ(Perm.symbol("warm"), DefaultBase);
  EXPECT_GT(Perm.symbol("main"), Perm.symbol("warm"));
  EXPECT_GT(Perm.symbol("cold"), Perm.symbol("main"));
  EXPECT_EQ(Perm.EntryPC, Perm.symbol("main"));
  EXPECT_EQ(Perm.Bytes.size(), Id.Bytes.size());

  // Image::Blocks stays Cfg-id-indexed: block 0 is main's entry block at
  // main's (moved) address, wherever main was placed.
  Cfg G(Prog);
  ASSERT_EQ(Perm.Blocks.size(), G.numBlocks());
  EXPECT_EQ(Perm.Blocks[G.entryBlock(0)].Addr, Perm.symbol("main"));
  EXPECT_EQ(Perm.Blocks[G.entryBlock(1)].Addr, Perm.symbol("cold"));
  EXPECT_EQ(Perm.Blocks[G.entryBlock(2)].Addr, Perm.symbol("warm"));

  // Same architectural behaviour, with and without the cache model.
  EXPECT_EQ(runImage(Id), runImage(Perm));
  EXPECT_EQ(runImage(Id, true), runImage(Perm, true));
}

TEST(LayoutOrder, NonPermutationsAreLayoutErrors) {
  Program Prog = layoutProgram3();
  for (const std::vector<unsigned> &Bad :
       {std::vector<unsigned>{0, 1},          // Too short.
        std::vector<unsigned>{0, 1, 2, 2},    // Too long.
        std::vector<unsigned>{0, 1, 1},       // Duplicate.
        std::vector<unsigned>{0, 1, 7}}) {    // Out of range.
    Expected<Image> R = layoutProgramOrError(Prog, DefaultBase, Bad);
    ASSERT_FALSE(R.ok()) << "order size " << Bad.size();
    EXPECT_EQ(R.status().code(), StatusCode::LayoutError);
  }
}

//===----------------------------------------------------------------------===//
// The layout pass.
//===----------------------------------------------------------------------===//

TEST(LayoutPass, ComputedOrderIsADeterministicPermutation) {
  Program Prog = layoutProgram3();
  Profile Prof = profileFor(Prog);
  Cfg G(Prog);

  std::vector<unsigned> A = computeFunctionLayout(G, Prof);
  std::vector<unsigned> B = computeFunctionLayout(G, Prof);
  EXPECT_EQ(A, B);

  std::vector<unsigned> Sorted = A;
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<unsigned> Identity(G.numFunctions());
  for (unsigned F = 0; F != G.numFunctions(); ++F)
    Identity[F] = F;
  EXPECT_EQ(Sorted, Identity);

  // The hot call pair (main -> warm) lands adjacent, ahead of cold code.
  ASSERT_EQ(A.size(), 3u);
  EXPECT_EQ(A[0], 0u); // main
  EXPECT_EQ(A[1], 2u); // warm, pulled next to its hot caller
  EXPECT_EQ(A[2], 1u); // cold last
}

TEST(LayoutPass, EmptyProfileYieldsIdentity) {
  Program Prog = layoutProgram3();
  Cfg G(Prog);
  Profile Empty;
  Empty.BlockCounts.assign(G.numBlocks(), 0);
  std::vector<unsigned> Order = computeFunctionLayout(G, Empty);
  ASSERT_EQ(Order.size(), 3u);
  for (unsigned F = 0; F != 3; ++F)
    EXPECT_EQ(Order[F], F);
}

TEST(LayoutPass, OffIsByteStableAgainstDisabledPass) {
  Program Prog = layoutProgram3();
  Profile Prof = profileFor(Prog);

  Options Default;
  Default.Theta = 1.0;
  SquashResult A = squashProgram(Prog, Prof, Default).take();

  Options Disabled;
  Disabled.Theta = 1.0;
  Disabled.DisabledPasses = {"layout"};
  SquashResult B = squashProgram(Prog, Prof, Disabled).take();

  EXPECT_EQ(A.SP.Img.Bytes, B.SP.Img.Bytes);
  EXPECT_TRUE(A.SP.FuncLayout.empty());
}

TEST(LayoutPass, OnReordersHotHalfAndPreservesBehaviour) {
  Program Prog = layoutProgram3();
  Profile Prof = profileFor(Prog);

  Options Off;
  Off.Theta = 1.0;
  SquashResult SOff = squashProgram(Prog, Prof, Off).take();

  Options On = Off;
  On.ProfileLayout = true;
  SquashResult SOn = squashProgram(Prog, Prof, On).take();

  // The pass recorded a non-identity placement for the inspector.
  ASSERT_FALSE(SOn.SP.FuncLayout.empty());
  EXPECT_EQ(SOn.SP.FuncLayout.size(), 3u);
  EXPECT_EQ(SOn.SP.FuncLayout[1].Name, "warm");

  // And the inspector renders it: one row per function with its placed
  // address; the layout-off image reports identity instead.
  std::string Table = formatFunctionLayout(SOn.SP);
  EXPECT_NE(Table.find("warm"), std::string::npos) << Table;
  EXPECT_NE(Table.find("cold"), std::string::npos) << Table;
  EXPECT_NE(formatFunctionLayout(SOff.SP).find("identity"),
            std::string::npos);

  SquashedRun ROff = runSquashed(SOff.SP, {0}, RunBudget);
  SquashedRun ROn = runSquashed(SOn.SP, {0}, RunBudget);
  ASSERT_EQ(ROff.Run.Status, RunStatus::Halted);
  ASSERT_EQ(ROn.Run.Status, RunStatus::Halted);
  EXPECT_EQ(ROn.Run.ExitCode, ROff.Run.ExitCode);
  EXPECT_EQ(ROn.Output, ROff.Output);

  // With the modeled cache the ledger still conserves, on both arms.
  for (Options *O : {&Off, &On}) {
    O->Icache.Enabled = true;
    O->Icache.Sets = 8;
    O->Icache.Ways = 1;
    SquashResult SR = squashProgram(Prog, Prof, *O).take();
    SquashedRun R = runSquashed(SR.SP, {0}, RunBudget);
    EXPECT_EQ(R.Run.Status, RunStatus::Halted);
    EXPECT_EQ(R.Output, ROff.Output);
    CycleLedger L = buildCycleLedger(R);
    EXPECT_TRUE(L.conserves())
        << "attributed " << L.attributed() << " of " << L.Total;
  }
}

TEST(LayoutPass, RewriteRejectsBadExplicitOrder) {
  Program Prog = layoutProgram3();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  ASSERT_TRUE(PM.runUntil(Ctx, "codec-select").ok());

  Expected<SquashedProgram> Bad =
      rewriteProgram(Ctx.program(), Ctx.cfg(), Ctx.Part, Ctx.BufferSafeFuncs,
                     Opts, CodecPlan(), {1, 1, 0});
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), StatusCode::InvalidArgument);

  // The identity order, passed explicitly, is byte-identical to no order.
  Expected<SquashedProgram> A = rewriteProgram(
      Ctx.program(), Ctx.cfg(), Ctx.Part, Ctx.BufferSafeFuncs, Opts);
  Expected<SquashedProgram> B =
      rewriteProgram(Ctx.program(), Ctx.cfg(), Ctx.Part, Ctx.BufferSafeFuncs,
                     Opts, CodecPlan(), {0, 1, 2});
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(A.get().Img.Bytes, B.get().Img.Bytes);
}

TEST(LayoutPass, BothLoweringEntryPointsRejectABadOrder) {
  // Codec-select lowers the corpus it trains on through lowerStoredRegions
  // and the rewriter lowers the image through rewriteProgram; both take
  // the layout pass's order and must refuse the same malformed ones.
  Program Prog = layoutProgram3();
  Profile Prof = profileFor(Prog);
  Options Opts;
  Opts.Theta = 1.0;

  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  ASSERT_TRUE(PM.runUntil(Ctx, "buffer-safe").ok());

  for (const std::vector<unsigned> &Order :
       {std::vector<unsigned>{1, 1, 0}, std::vector<unsigned>{0, 1},
        std::vector<unsigned>{0, 1, 3}}) {
    Expected<std::vector<std::vector<MInst>>> Lowered =
        lowerStoredRegions(Ctx.program(), Ctx.cfg(), Ctx.Part,
                           Ctx.BufferSafeFuncs, Opts, Order);
    ASSERT_FALSE(Lowered.ok()) << Order.size();
    EXPECT_EQ(Lowered.status().code(), StatusCode::InvalidArgument);
    Expected<SquashedProgram> Rewritten =
        rewriteProgram(Ctx.program(), Ctx.cfg(), Ctx.Part,
                       Ctx.BufferSafeFuncs, Opts, CodecPlan(), Order);
    ASSERT_FALSE(Rewritten.ok()) << Order.size();
    EXPECT_EQ(Rewritten.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(Lowered.status().message(), Rewritten.status().message());
  }

  // A permutation lowers, and the explicit identity equals no order.
  Expected<std::vector<std::vector<MInst>>> None = lowerStoredRegions(
      Ctx.program(), Ctx.cfg(), Ctx.Part, Ctx.BufferSafeFuncs, Opts);
  Expected<std::vector<std::vector<MInst>>> Identity =
      lowerStoredRegions(Ctx.program(), Ctx.cfg(), Ctx.Part,
                         Ctx.BufferSafeFuncs, Opts, {0, 1, 2});
  ASSERT_TRUE(None.ok()) << None.status().toString();
  ASSERT_TRUE(Identity.ok()) << Identity.status().toString();
  EXPECT_EQ(None.get().size(), Identity.get().size());
  for (size_t Reg = 0; Reg != None.get().size(); ++Reg) {
    ASSERT_EQ(None.get()[Reg].size(), Identity.get()[Reg].size()) << Reg;
    for (size_t I = 0; I != None.get()[Reg].size(); ++I)
      EXPECT_EQ(encode(None.get()[Reg][I]), encode(Identity.get()[Reg][I]))
          << Reg << ":" << I;
  }
  EXPECT_TRUE(lowerStoredRegions(Ctx.program(), Ctx.cfg(), Ctx.Part,
                                 Ctx.BufferSafeFuncs, Opts, {2, 0, 1})
                  .ok());
}
