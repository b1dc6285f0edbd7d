//===- tests/runtime_test.cpp - Decompressor runtime tests ----------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// Targets the runtime machinery of Sections 2.2 / 2.3: entry stubs, the
// CreateStub / Decompress split, reference-counted restore stubs, calls
// from the runtime buffer, recursion through compressed regions, the
// buffer-safe call optimization, and the failure modes.
//
//===----------------------------------------------------------------------===//

#include "link/Layout.h"
#include "ir/Builder.h"
#include "sim/Machine.h"
#include "squash/Driver.h"
#include "support/Checksum.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

namespace {

/// Instruction budget for every run here. The fixtures retire a few
/// thousand instructions at most, so a run that spins (a stale decode, a
/// broken stub) fails in milliseconds instead of at the default limit.
constexpr uint64_t FixtureBudget = 100'000;

Machine::Config fixtureConfig() {
  Machine::Config Cfg;
  Cfg.MaxInstructions = FixtureBudget;
  return Cfg;
}

/// Helper bundling the original/squashed comparison.
struct Pipeline {
  Program Prog;
  Image Baseline;
  Profile Prof;

  explicit Pipeline(Program P) : Prog(std::move(P)) {
    Baseline = layoutProgram(Prog);
  }

  void profile(std::vector<uint8_t> Input) {
    Prof = profileImage(Baseline, std::move(Input)).take();
  }

  /// Runs baseline and squashed on \p Input; requires identical results.
  SquashedRun check(const Options &Opts, std::vector<uint8_t> Input,
                    SquashResult *OutSR = nullptr) {
    Machine M(Baseline, fixtureConfig());
    M.setInput(Input);
    RunResult Base = M.run();
    EXPECT_EQ(Base.Status, RunStatus::Halted);

    SquashResult SR = squashProgram(Prog, Prof, Opts).take();
    Machine M2(SR.SP.Img, fixtureConfig());
    RuntimeSystem RT(SR.SP);
    Status At = RT.attach(M2);
    EXPECT_TRUE(At.ok()) << At.toString();
    M2.setInput(Input);
    RunResult R = M2.run();
    EXPECT_EQ(R.Status, RunStatus::Halted) << R.FaultMessage;
    EXPECT_EQ(R.ExitCode, Base.ExitCode);
    EXPECT_EQ(M2.output(), M.output());
    if (OutSR)
      *OutSR = SR;
    SquashedRun Out;
    Out.Run = R;
    Out.Runtime = RT.stats();
    return Out;
  }
};

/// A cold function that calls another cold function (call from the runtime
/// buffer; return needs a restore stub).
Program callFromBufferProgram() {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip"); // Input byte 0: skip the cold path.
    F.li(16, 5);
    F.call("coldA");
    F.mov(16, 0);
    F.halt();
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("coldA");
    F.enter(8);
    F.addi(16, 16, 10); // 15
    F.call("coldB");
    F.addi(0, 0, 1); // Uses the value coldB returns: 15*2 + 1 = 31.
    F.leave(8);
  }
  {
    FunctionBuilder F = PB.beginFunction("coldB");
    for (int I = 0; I != 12; ++I)
      F.addi(1, 1, 1); // Padding so both functions form real regions.
    F.add(0, 16, 16);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

} // namespace

TEST(Runtime, CallFromBufferRestoresCaller) {
  Pipeline P(callFromBufferProgram());
  P.profile({0}); // Cold path never profiled.
  Options Opts;
  Opts.PackRegions = false; // Keep coldA and coldB in separate regions.
  SquashResult SR;
  SquashedRun R = P.check(Opts, {1}, &SR);
  ASSERT_FALSE(SR.Identity);
  // coldA and coldB land in regions; the call out of the buffer forces a
  // restore stub and a re-decompression of the caller.
  EXPECT_GE(R.Runtime.Decompressions, 2u);
  EXPECT_GE(R.Runtime.RestoreStubCalls, 1u);
  EXPECT_GE(R.Runtime.StubCreates, 1u);
  EXPECT_EQ(R.Run.ExitCode, 31u);
}

TEST(Runtime, RecursionThroughCompressedRegion) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.li(16, 10);
    F.call("fact"); // 10! mod 2^32
    F.mov(16, 0);
    F.andi(16, 16, 0xFF);
    F.halt();
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("fact");
    // Pad the entry and the recursive arm so they exceed the buffer bound
    // together: the recursion then crosses region boundaries.
    for (int I = 0; I != 20; ++I)
      F.addi(2, 2, 1);
    F.bne(16, "rec");
    F.li(0, 1);
    F.ret();
    F.label("rec");
    for (int I = 0; I != 15; ++I)
      F.addi(2, 2, 1);
    F.enter(12);
    F.stw(16, 30, 4);
    F.subi(16, 16, 1);
    F.call("fact"); // Self-recursive call from the buffer.
    F.ldw(1, 30, 4);
    F.mul(0, 0, 1);
    F.leave(12);
  }
  PB.setEntry("main");

  Pipeline P(PB.build());
  P.profile({0});
  Options Opts;
  Opts.PackRegions = false;
  Opts.BufferBoundBytes = 128; // 32 instructions: entry and rec split.
  SquashResult SR;
  SquashedRun R = P.check(Opts, {1}, &SR);
  ASSERT_FALSE(SR.Identity);
  // One restore stub per call site, reference-counted across the whole
  // recursion (paper: "we create only one restore stub for a particular
  // call site and maintain a usage count").
  EXPECT_GE(R.Runtime.StubReuses, 5u);
  EXPECT_LE(R.Runtime.MaxLiveStubs, 4u);
  EXPECT_GE(R.Runtime.Decompressions, 10u);
}

TEST(Runtime, TraceShowsTheProtocol) {
  // The observable event sequence of Sections 2.2/2.3 for "cold caller
  // calls cold callee": enter A via stub, fill A, create a restore stub at
  // the call, enter B via stub, fill B, then B's return drives the restore
  // path: enter via restore stub, release it, refill A.
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Opts;
  Opts.PackRegions = false;
  SquashResult SR = squashProgram(P.Prog, P.Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);

  Machine M(SR.SP.Img, fixtureConfig());
  RuntimeSystem RT(SR.SP);
  RT.enableTrace();
  ASSERT_TRUE(RT.attach(M).ok());
  M.setInput({1});
  ASSERT_EQ(M.run().Status, RunStatus::Halted);

  using K = RuntimeSystem::Event::Kind;
  std::vector<K> Kinds;
  for (const auto &E : RT.events())
    Kinds.push_back(E.K);
  // Expected shape (regions A and B may carry any indices):
  std::vector<K> Want = {K::EnterViaStub,    K::Decompress, K::StubCreate,
                         K::EnterViaStub,    K::Decompress,
                         K::EnterViaRestore, K::StubRelease, K::Decompress};
  ASSERT_EQ(Kinds, Want);
  // The restore-stub events agree on the stub address.
  uint32_t CreateAddr = 0, ReleaseAddr = 0;
  for (const auto &E : RT.events()) {
    if (E.K == K::StubCreate)
      CreateAddr = E.Addr;
    if (E.K == K::StubRelease)
      ReleaseAddr = E.Addr;
  }
  EXPECT_EQ(CreateAddr, ReleaseAddr);
  // The two fills before the restore differ; the final fill re-loads the
  // caller's region.
  EXPECT_EQ(RT.events()[1].Region, RT.events()[7].Region);
  EXPECT_NE(RT.events()[1].Region, RT.events()[4].Region);
}

TEST(Runtime, RestoreStubsFullyReleased) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Opts;
  Opts.PackRegions = false;
  SquashedRun R = P.check(Opts, {1});
  EXPECT_EQ(R.Runtime.LiveStubs, 0u) << "stub leaked after returns";
}

TEST(Runtime, BufferSafeCallSkipsStub) {
  // A cold function calling a hot leaf: with the Section 6.1 optimization
  // the call needs no restore stub at all.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(9, 0);
    F.li(1, 50);
    F.label("warm"); // Keep `leaf` hot.
    F.li(16, 3);
    F.call("leaf");
    F.add(9, 9, 0);
    F.subi(1, 1, 1);
    F.bne(1, "warm");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.li(16, 7);
    F.call("coldCaller");
    F.add(9, 9, 0);
    F.label("skip");
    F.andi(16, 9, 0xFF);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("leaf");
    F.add(0, 16, 16);
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("coldCaller");
    F.enter(8);
    for (int I = 0; I != 10; ++I)
      F.addi(1, 1, 1);
    F.call("leaf"); // Buffer-safe callee.
    F.addi(0, 0, 1);
    F.leave(8);
  }
  PB.setEntry("main");

  Pipeline P(PB.build());
  P.profile({0});

  Options WithOpt;
  WithOpt.BufferSafeCalls = true;
  SquashedRun R1 = P.check(WithOpt, {1});
  EXPECT_EQ(R1.Runtime.StubCreates, 0u);
  EXPECT_EQ(R1.Runtime.RestoreStubCalls, 0u);

  Options WithoutOpt;
  WithoutOpt.BufferSafeCalls = false;
  SquashedRun R2 = P.check(WithoutOpt, {1});
  EXPECT_GE(R2.Runtime.StubCreates, 1u);
  // The optimization saves decompressions at run time.
  EXPECT_LT(R1.Run.Cycles, R2.Run.Cycles);
}

TEST(Runtime, ReuseBufferedRegionSkipsRefill) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Reuse;
  Reuse.ReuseBufferedRegion = true;
  Reuse.PackRegions = false;
  SquashedRun R1 = P.check(Reuse, {1});
  Options NoReuse;
  NoReuse.PackRegions = false;
  SquashedRun R2 = P.check(NoReuse, {1});
  EXPECT_LE(R1.Runtime.Decompressions, R2.Runtime.Decompressions);
}

TEST(Runtime, StubAreaExhaustionFaults) {
  // Two distinct cold call sites with only one restore-stub slot: the
  // second active stub cannot be allocated.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.beq(0, "skip");
    F.call("a");
    F.label("skip");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("a");
    F.enter(8);
    for (int I = 0; I != 10; ++I)
      F.addi(1, 1, 1);
    F.call("b"); // Callsite 1 (stub live across b's body).
    F.leave(8);
  }
  {
    FunctionBuilder F = PB.beginFunction("b");
    F.enter(8);
    for (int I = 0; I != 10; ++I)
      F.addi(1, 1, 1);
    F.call("c"); // Callsite 2 while callsite 1's stub is still live.
    F.leave(8);
  }
  {
    FunctionBuilder F = PB.beginFunction("c");
    for (int I = 0; I != 10; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.setEntry("main");

  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();

  Options Opts;
  Opts.MaxRestoreStubs = 1;
  Opts.PackRegions = false; // Keep a, b, c in distinct regions.
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  Machine M(SR.SP.Img, fixtureConfig());
  RuntimeSystem RT(SR.SP);
  ASSERT_TRUE(RT.attach(M).ok());
  M.setInput({1});
  RunResult R = M.run();
  EXPECT_EQ(R.Status, RunStatus::Fault);
  EXPECT_NE(R.FaultMessage.find("restore stub area exhausted"),
            std::string::npos);
}

TEST(Runtime, CorruptBlobFaultsCleanly) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Opts;
  SquashResult SR = squashProgram(P.Prog, P.Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  // Flip bytes in the middle of the compressed blob.
  Image Broken = SR.SP.Img;
  for (uint32_t A = SR.SP.Layout.BlobBase + SR.SP.Layout.BlobBytes / 2;
       A < SR.SP.Layout.BlobBase + SR.SP.Layout.BlobBytes; ++A)
    Broken.Bytes[A - Broken.Base] ^= 0x5A;
  SquashedProgram SP2 = SR.SP;
  SP2.Img = Broken;
  Machine M(SP2.Img, fixtureConfig());
  RuntimeSystem RT(SP2);
  // The blob checksum catches the corruption at attach; nothing is
  // registered, so running the image faults cleanly at the first entry
  // stub instead of hanging or exiting 31.
  Status At = RT.attach(M);
  EXPECT_FALSE(At.ok());
  EXPECT_EQ(At.code(), StatusCode::CorruptBlob);
  M.setInput({1});
  RunResult R = M.run();
  EXPECT_NE(R.Status, RunStatus::InstLimit);
  EXPECT_FALSE(R.Status == RunStatus::Halted && R.ExitCode == 31);
}

TEST(Runtime, IdentityWhenNothingCompressible) {
  // An entirely hot program squashes to itself.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(1, 9);
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
  Options Opts;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  EXPECT_TRUE(SR.Identity);
  EXPECT_EQ(SR.SP.Footprint.totalCodeBytes(),
            SR.SP.Footprint.OriginalCodeBytes);
  Machine M(SR.SP.Img, fixtureConfig());
  EXPECT_EQ(M.run().Status, RunStatus::Halted);
}

TEST(Runtime, JumpIntoDecompressorMiddleFaults) {
  // PCs inside the trap range but past the entry points (the zero
  // sentinel words) must fault with a diagnostic, not dispatch.
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  SquashResult SR = squashProgram(P.Prog, P.Prof, Options()).take();
  ASSERT_FALSE(SR.Identity);
  const RuntimeLayout &L = SR.SP.Layout;
  for (uint32_t PC : {L.DecompBase + 4 * RuntimeLayout::NumEntryPoints,
                      L.DecompEnd - 4}) {
    Machine M(SR.SP.Img, fixtureConfig());
    RuntimeSystem RT(SR.SP);
    ASSERT_TRUE(RT.attach(M).ok());
    M.setInput({1});
    M.setPC(PC);
    RunResult R = M.run();
    EXPECT_EQ(R.Status, RunStatus::Fault);
    EXPECT_NE(R.FaultMessage.find("middle of the decompressor"),
              std::string::npos)
        << "PC " << PC << ": " << R.FaultMessage;
  }
}

TEST(Runtime, DecompressorRegionMustFitEntryPoints) {
  // The reserved decompressor region cannot be smaller than its entry
  // points (one Decompress + one CreateStub entry per register).
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Opts;
  Opts.DecompressorCodeWords = RuntimeLayout::NumEntryPoints - 1;
  Expected<SquashResult> R = squashProgram(P.Prog, P.Prof, Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
}

TEST(Runtime, AttachRejectsTruncatedImage) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  SquashResult SR = squashProgram(P.Prog, P.Prof, Options()).take();
  ASSERT_FALSE(SR.Identity);
  SquashedProgram SP = SR.SP;
  ASSERT_GT(SP.Layout.BlobBytes, 4u);
  SP.Img.Bytes.resize(SP.Img.Bytes.size() - 4); // Blob loses its tail.
  Machine M(SP.Img, fixtureConfig());
  RuntimeSystem RT(SP);
  Status At = RT.attach(M);
  ASSERT_FALSE(At.ok());
  EXPECT_NE(At.toString().find("past the image"), std::string::npos);
}

TEST(Runtime, AttachRejectsZeroWordBuffer) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  SquashResult SR = squashProgram(P.Prog, P.Prof, Options()).take();
  ASSERT_FALSE(SR.Identity);
  SquashedProgram SP = SR.SP;
  SP.Layout.BufferWords = 0;
  Machine M(SP.Img, fixtureConfig());
  RuntimeSystem RT(SP);
  Status At = RT.attach(M);
  ASSERT_FALSE(At.ok());
  EXPECT_NE(At.toString().find("no jump slot"), std::string::npos);
}

TEST(Runtime, AttachRejectsShortOffsetTable) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  SquashResult SR = squashProgram(P.Prog, P.Prof, Options()).take();
  ASSERT_FALSE(SR.Identity);
  SquashedProgram SP = SR.SP;
  // Claim the stub area starts where the offset table does: no room for
  // the region entries.
  SP.Layout.StubAreaBase = SP.Layout.OffsetTableBase;
  Machine M(SP.Img, fixtureConfig());
  RuntimeSystem RT(SP);
  Status At = RT.attach(M);
  ASSERT_FALSE(At.ok());
  EXPECT_NE(At.toString().find("offset table shorter"), std::string::npos);
}

TEST(Runtime, AttachRejectsRegionAtExactBlobEnd) {
  // Boundary regression: a region whose bit offset equals 8 * BlobBytes
  // (one past the last valid bit) must be rejected, not accepted by an
  // off-by-one.
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  SquashResult SR = squashProgram(P.Prog, P.Prof, Options()).take();
  ASSERT_FALSE(SR.Identity);
  SquashedProgram SP = SR.SP;
  SP.Regions.back().BitOffset = 8 * SP.Layout.BlobBytes;
  Machine M(SP.Img, fixtureConfig());
  RuntimeSystem RT(SP);
  Status At = RT.attach(M);
  ASSERT_FALSE(At.ok());
  EXPECT_NE(At.toString().find("past the end of the blob"),
            std::string::npos);
}

TEST(Rewriter, RegionChecksumsMatchRecoveryCopies) {
  // The stored per-region CRC must be the CRC of the retained recovery
  // words — the single-source-of-truth expansion helper guarantees the
  // rewriter and the runtime agree.
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  SquashResult SR = squashProgram(P.Prog, P.Prof, Options()).take();
  ASSERT_FALSE(SR.Identity);
  ASSERT_EQ(SR.SP.RecoveryWords.size(), SR.SP.Regions.size());
  for (size_t R = 0; R != SR.SP.Regions.size(); ++R) {
    ASSERT_EQ(SR.SP.RecoveryWords[R].size(), SR.SP.Regions[R].ExpandedWords);
    EXPECT_EQ(expandedWordsCrc(SR.SP.RecoveryWords[R]),
              SR.SP.Regions[R].Crc32);
  }
}

TEST(Rewriter, ExpandedWordsCrcIsCrcOfLittleEndianBytes) {
  // The one-pass word CRC must equal the byte CRC of the words as guest
  // memory holds them: the resident-slot check compares the two.
  std::vector<uint32_t> Words;
  EXPECT_EQ(expandedWordsCrc(Words), crc32(nullptr, 0));
  uint32_t X = 0x9E3779B9u;
  for (int I = 0; I != 257; ++I) {
    X = X * 1664525u + 1013904223u;
    Words.push_back(X);
  }
  Words.push_back(0);
  Words.push_back(0xFFFFFFFFu);
  std::vector<uint8_t> Bytes;
  for (uint32_t W : Words)
    for (int Shift = 0; Shift != 32; Shift += 8)
      Bytes.push_back(static_cast<uint8_t>(W >> Shift));
  EXPECT_EQ(expandedWordsCrc(Words), crc32(Bytes.data(), Bytes.size()));
  // Chained like crc32: the tail continues from the head's CRC.
  EXPECT_EQ(crc32Words(Words.data() + 100, Words.size() - 100,
                       crc32Words(Words.data(), 100)),
            crc32(Bytes.data(), Bytes.size()));
}

TEST(Rewriter, RecoveryCopiesCanBeDisabled) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Opts;
  Opts.RetainRecoveryCopies = false;
  SquashResult SR = squashProgram(P.Prog, P.Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  for (const auto &Words : SR.SP.RecoveryWords)
    EXPECT_TRUE(Words.empty());
  // The image still runs correctly without them.
  SquashedRun R = runSquashed(SR.SP, {1}, FixtureBudget);
  EXPECT_EQ(R.Run.Status, RunStatus::Halted) << R.Run.FaultMessage;
  EXPECT_EQ(R.Run.ExitCode, 31u);
}

TEST(Rewriter, FootprintAccountingConsistent) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Opts;
  SquashResult SR = squashProgram(P.Prog, P.Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  const FootprintBreakdown &F = SR.SP.Footprint;
  const RuntimeLayout &L = SR.SP.Layout;
  EXPECT_EQ(F.DecompressorWords * 4, L.DecompEnd - L.DecompBase);
  EXPECT_EQ(F.StubAreaWords, 4 * L.StubSlots);
  EXPECT_EQ(F.BufferWords, L.BufferWords);
  EXPECT_EQ(F.CompressedBytes, L.BlobBytes);
  // Every compressed block with external references has a stub address.
  for (const auto &[Label, Addr] : SR.SP.StubOf) {
    EXPECT_GE(Addr, DefaultBase);
    // The stub's tag word selects a valid region and offset.
    uint32_t Tag = SR.SP.Img.word(Addr + 4);
    EXPECT_LT(Tag >> 16, SR.SP.Regions.size());
    EXPECT_GE(Tag & 0xFFFF, 1u);
  }
  // Region bit offsets are strictly increasing and inside the blob.
  for (size_t R = 1; R < SR.SP.Regions.size(); ++R)
    EXPECT_GT(SR.SP.Regions[R].BitOffset, SR.SP.Regions[R - 1].BitOffset);
  for (const auto &RI : SR.SP.Regions)
    EXPECT_LT(RI.BitOffset, 8u * L.BlobBytes);
}

TEST(Runtime, TraceRingKeepsNewestAndCountsDropsExactly) {
  Pipeline P(callFromBufferProgram());
  P.profile({0});
  Options Opts;
  Opts.PackRegions = false;
  SquashResult SR = squashProgram(P.Prog, P.Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);

  // Reference run with a capacity no realistic trace reaches.
  SquashedRun Full = runSquashed(SR.SP, {1}, FixtureBudget, 1u << 20);
  ASSERT_EQ(Full.Run.Status, RunStatus::Halted) << Full.Run.FaultMessage;
  ASSERT_EQ(Full.TraceDropped, 0u);
  ASSERT_GE(Full.Trace.size(), 4u);

  // Same deterministic run through a 3-slot ring: memory stays O(capacity),
  // the drop counter is exact, and exactly the newest events survive in
  // oldest-first order.
  const uint32_t Cap = 3;
  SquashedRun Ring = runSquashed(SR.SP, {1}, FixtureBudget, Cap);
  ASSERT_EQ(Ring.Run.Status, RunStatus::Halted);
  ASSERT_EQ(Ring.Trace.size(), Cap);
  EXPECT_EQ(Ring.TraceDropped, Full.Trace.size() - Cap);
  for (size_t I = 0; I != Cap; ++I) {
    const RuntimeSystem::Event &Want =
        Full.Trace[Full.Trace.size() - Cap + I];
    const RuntimeSystem::Event &Got = Ring.Trace[I];
    EXPECT_EQ(Got.K, Want.K) << "event " << I;
    EXPECT_EQ(Got.Region, Want.Region);
    EXPECT_EQ(Got.Addr, Want.Addr);
    EXPECT_EQ(Got.Count, Want.Count);
    EXPECT_EQ(Got.Cycle, Want.Cycle);
  }

  // An untraced run keeps no events at all.
  SquashedRun Off = runSquashed(SR.SP, {1}, FixtureBudget);
  EXPECT_TRUE(Off.Trace.empty());
  EXPECT_EQ(Off.TraceDropped, 0u);
}
