//===- tests/faultinject_test.cpp - Fault-injection sweep -----------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The robustness contract: a squashed image whose runtime structures are
// corrupted must never crash the harness, hang, or produce a silently
// wrong answer. Every injected fault must be either *detected* (attach
// refuses the image, or the run faults with a diagnostic) or *masked*
// (the run halts with exactly the uncorrupted program's output and exit
// code — e.g. served from the recovery copy, or the corrupted structure
// was never reached).
//
// The sweep covers two configurations per workload:
//   (a) ChecksumAtAttach on: every fault kind, including code bit flips
//       (which only the attach-time checksum can catch).
//   (b) ChecksumAtAttach off: the kinds covered by the always-on layout
//       validation and the lazy per-fill integrity checks.
//
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "link/Layout.h"
#include "ir/Builder.h"
#include "squash/Driver.h"
#include "squash/FaultInjector.h"
#include "support/Span.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

namespace {

constexpr double Scale = 0.05;

/// Instruction budget for a pristine reference run: about ten times the
/// longest of them at this scale, so a runtime regression that spins fails
/// in well under a second instead of at the default limit.
constexpr uint64_t ReferenceBudget = 5'000'000;
constexpr uint64_t SeedsPerConfig = 60; // 3 workloads x 2 configs x 60 = 360.

workloads::Workload buildByIndex(int Index) {
  switch (Index) {
  case 0:
    return workloads::buildAdpcm(Scale);
  case 1:
    return workloads::buildGsm(Scale);
  default:
    return workloads::buildG721Enc(Scale);
  }
}

/// The pristine squashed program plus its reference behaviour, against
/// which masked faults are judged.
struct Reference {
  workloads::Workload W;
  SquashResult SR;
  SquashedRun Base;
  uint64_t MaxInstructions = 0;
};

Reference prepare(int Index) {
  Reference R;
  R.W = buildByIndex(Index);
  compactProgram(R.W.Prog).take();
  Image Baseline = layoutProgram(R.W.Prog);
  Profile Prof = profileImage(Baseline, R.W.ProfilingInput).take();
  Options Opts;
  Opts.Theta = 0.1; // The timing input reaches compressed code here.
  R.SR = squashProgram(R.W.Prog, Prof, Opts).take();
  EXPECT_FALSE(R.SR.Identity);
  R.Base = runSquashed(R.SR.SP, R.W.TimingInput, ReferenceBudget);
  EXPECT_EQ(R.Base.Run.Status, RunStatus::Halted) << R.Base.Run.FaultMessage;
  // A corrupted run that needs 4x the reference instruction count is a
  // hang for this sweep's purposes.
  R.MaxInstructions = 4 * R.Base.Run.Instructions + 1'000'000;
  return R;
}

class FaultSweep : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(FaultSweep, EveryFaultDetectedOrMasked) {
  Reference Ref = prepare(GetParam());

  // The sweep doubles as the flight recorder's acceptance harness: armed
  // throughout, every injection must land a trigger, and every faulting
  // run must leave a dump that names its injection (DESIGN.md §18).
  FlightRecorder &Recorder = FlightRecorder::instance();
  Recorder.clear();
  Recorder.arm();

  const std::vector<FaultKind> AllKinds = {
      FaultKind::BlobBitFlip,    FaultKind::OffsetTableEntry,
      FaultKind::StubSlotWord,   FaultKind::EntryStubTag,
      FaultKind::BufferShrink,   FaultKind::BufferGrow,
      FaultKind::BlobTruncate,   FaultKind::NCCodeBitFlip,
      FaultKind::StagingCorrupt, FaultKind::PublishOffsetSkew};
  // Without the attach-time checksum, a flipped bit of never-compressed
  // code executes undetectably; restrict to structures the always-on
  // layout validation and the lazy fill checks cover. PublishOffsetSkew
  // stays: its refreshed CRC is irrelevant here, and the skewed table
  // entry is caught (or masked) exactly like OffsetTableEntry.
  const std::vector<FaultKind> LazyKinds = {
      FaultKind::BlobBitFlip,  FaultKind::OffsetTableEntry,
      FaultKind::StubSlotWord, FaultKind::EntryStubTag,
      FaultKind::BufferShrink, FaultKind::BufferGrow,
      FaultKind::BlobTruncate, FaultKind::PublishOffsetSkew};

  uint64_t Detected = 0, Masked = 0, Recovered = 0;
  for (int Config = 0; Config != 2; ++Config) {
    const bool ChecksumAtAttach = Config == 0;
    const std::vector<FaultKind> &Kinds =
        ChecksumAtAttach ? AllKinds : LazyKinds;
    for (uint64_t Seed = 0; Seed != SeedsPerConfig; ++Seed) {
      Recorder.clear();
      SquashedProgram SP = Ref.SR.SP;
      SP.Opts.ChecksumAtAttach = ChecksumAtAttach;
      FaultInjector FI(1 + Seed * 2654435761ull + 97 * GetParam() + Config);
      std::optional<FaultReport> FR = FI.injectAny(SP, Kinds);
      ASSERT_TRUE(FR.has_value());
      SCOPED_TRACE(std::string(faultKindName(FR->Kind)) + " seed " +
                   std::to_string(Seed) + " config " +
                   (ChecksumAtAttach ? "checksum" : "lazy") + ": " +
                   FR->Description);
      ASSERT_GE(Recorder.triggerCount(), 1u)
          << "injection left no flight-recorder trigger";

      SquashedRun Run =
          runSquashed(SP, Ref.W.TimingInput, Ref.MaxInstructions);
      if (Run.Run.Status == RunStatus::Fault) {
        EXPECT_FALSE(Run.Run.FaultMessage.empty());
        // Postmortem contract: the dump names the injection that caused
        // this fault, and the detection itself triggered too (machine
        // fault mid-run or non-OK Status at attach).
        std::string Dump = Recorder.dumpJson();
        EXPECT_NE(Dump.find("\"source\":\"fault-injector\""),
                  std::string::npos);
        EXPECT_GE(Recorder.triggerCount(), 2u)
            << "detected fault left no trigger of its own";
        ++Detected;
        continue;
      }
      // Not detected: the only acceptable outcome is full masking.
      ASSERT_EQ(Run.Run.Status, RunStatus::Halted)
          << "corrupted image hung (instruction limit)";
      EXPECT_EQ(Run.Run.ExitCode, Ref.Base.Run.ExitCode)
          << "silently wrong exit code";
      EXPECT_EQ(Run.Output, Ref.Base.Output) << "silently wrong output";
      ++Masked;
      Recovered += Run.Runtime.CorruptRegionRecoveries;
    }
  }

  Recorder.disarm();
  Recorder.clear();

  // The sweep must exercise both halves of the contract, and graceful
  // degradation must actually fire (not just trivial never-reached masks).
  EXPECT_EQ(Detected + Masked, 2 * SeedsPerConfig);
  EXPECT_GT(Detected, 0u);
  EXPECT_GT(Masked, 0u);
  EXPECT_GT(Recovered, 0u);
  RecordProperty("detected", static_cast<int>(Detected));
  RecordProperty("masked", static_cast<int>(Masked));
  RecordProperty("recovered_fills", static_cast<int>(Recovered));
}

INSTANTIATE_TEST_SUITE_P(Workloads, FaultSweep, ::testing::Range(0, 3));

// Without recovery copies, a corrupt fill must fault (never limp on).
TEST(FaultInjection, NoRecoveryCopiesMeansCleanFault) {
  Reference Ref = prepare(0);
  uint64_t Faulted = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    SquashedProgram SP = Ref.SR.SP;
    SP.Opts.ChecksumAtAttach = false;
    SP.RecoveryWords.clear();
    FaultInjector FI(Seed * 7919 + 3);
    ASSERT_TRUE(FI.injectAny(SP, {FaultKind::BlobBitFlip}).has_value());
    SquashedRun Run = runSquashed(SP, Ref.W.TimingInput, Ref.MaxInstructions);
    ASSERT_NE(Run.Run.Status, RunStatus::InstLimit);
    if (Run.Run.Status == RunStatus::Fault) {
      EXPECT_FALSE(Run.Run.FaultMessage.empty());
      ++Faulted;
    } else {
      // A flip in the blob's stream-table prefix (which the host-side
      // codec mirror never reads back) is legitimately harmless.
      EXPECT_EQ(Run.Run.ExitCode, Ref.Base.Run.ExitCode);
      EXPECT_EQ(Run.Output, Ref.Base.Output);
    }
  }
  EXPECT_GT(Faulted, 0u);
}

// Library entry points must return errors on malformed input, not die.
TEST(FaultInjection, MalformedProgramIsRecoverableError) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(16, 0);
    F.halt();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Prog.Functions.push_back(Prog.Functions.front()); // Duplicate function.
  Expected<SquashResult> R = squashProgram(std::move(Prog), Profile(), Options());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::MalformedProgram);
}

TEST(FaultInjection, MismatchedProfileIsRecoverableError) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(16, 0);
    F.halt();
  }
  PB.setEntry("main");
  Profile Prof;
  Prof.BlockCounts = {1, 2, 3, 4, 5}; // Wrong block count.
  Prof.TotalInstructions = 15;
  Expected<SquashResult> R = squashProgram(PB.build(), Prof, Options());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Decode-cache sweep: the same detect-or-mask contract with the multi-slot
// cache active (slot map, resident table, per-slot CRC revalidation, direct
// resident stubs), including corruption of the slot map itself.
//===----------------------------------------------------------------------===//

namespace {

/// Cache configurations: slot count, with/without direct resident stubs.
class CacheFaultSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

Reference prepareCached(uint32_t Slots, bool DirectStubs) {
  Reference R;
  R.W = buildByIndex(0);
  compactProgram(R.W.Prog).take();
  Image Baseline = layoutProgram(R.W.Prog);
  Profile Prof = profileImage(Baseline, R.W.ProfilingInput).take();
  Options Opts;
  Opts.Theta = 0.1;
  Opts.CacheSlots = Slots;
  Opts.ReuseBufferedRegion = true;
  Opts.DirectResidentStubs = DirectStubs;
  R.SR = squashProgram(R.W.Prog, Prof, Opts).take();
  EXPECT_FALSE(R.SR.Identity);
  R.Base = runSquashed(R.SR.SP, R.W.TimingInput, ReferenceBudget);
  EXPECT_EQ(R.Base.Run.Status, RunStatus::Halted) << R.Base.Run.FaultMessage;
  R.MaxInstructions = 4 * R.Base.Run.Instructions + 1'000'000;
  return R;
}

} // namespace

TEST_P(CacheFaultSweep, EveryFaultDetectedOrMaskedWithCacheActive) {
  const uint32_t Slots = static_cast<uint32_t>(std::get<0>(GetParam()));
  const bool DirectStubs = std::get<1>(GetParam());
  Reference Ref = prepareCached(Slots, DirectStubs);

  // The cached image is deterministic with the cache active: its reference
  // run must agree with the paper-mode reference.
  const std::vector<FaultKind> Kinds = {
      FaultKind::BlobBitFlip,  FaultKind::OffsetTableEntry,
      FaultKind::StubSlotWord, FaultKind::EntryStubTag,
      FaultKind::BufferShrink, FaultKind::BufferGrow,
      FaultKind::BlobTruncate, FaultKind::SlotMapEntry};

  constexpr uint64_t Seeds = 40;
  uint64_t Detected = 0, Masked = 0, SlotMapFaults = 0;
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SquashedProgram SP = Ref.SR.SP;
    SP.Opts.ChecksumAtAttach = false; // Force the lazy per-fill checks.
    FaultInjector FI(11 + Seed * 2654435761ull + 1009 * Slots +
                     (DirectStubs ? 7 : 0));
    std::optional<FaultReport> FR = FI.injectAny(SP, Kinds);
    ASSERT_TRUE(FR.has_value());
    SCOPED_TRACE(std::string(faultKindName(FR->Kind)) + " seed " +
                 std::to_string(Seed) + " slots " + std::to_string(Slots) +
                 ": " + FR->Description);
    if (FR->Kind == FaultKind::SlotMapEntry)
      ++SlotMapFaults;

    SquashedRun Run = runSquashed(SP, Ref.W.TimingInput, Ref.MaxInstructions);
    if (Run.Run.Status == RunStatus::Fault) {
      EXPECT_FALSE(Run.Run.FaultMessage.empty());
      ++Detected;
      continue;
    }
    ASSERT_EQ(Run.Run.Status, RunStatus::Halted)
        << "corrupted cached image hung (instruction limit)";
    EXPECT_EQ(Run.Run.ExitCode, Ref.Base.Run.ExitCode)
        << "silently wrong exit code";
    EXPECT_EQ(Run.Output, Ref.Base.Output) << "silently wrong output";
    ++Masked;
  }
  EXPECT_EQ(Detected + Masked, Seeds);
  EXPECT_GT(Detected, 0u);
  EXPECT_GT(Masked, 0u);
  RecordProperty("detected", static_cast<int>(Detected));
  RecordProperty("masked", static_cast<int>(Masked));
  RecordProperty("slot_map_faults", static_cast<int>(SlotMapFaults));
}

INSTANTIATE_TEST_SUITE_P(SlotSweep, CacheFaultSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(false, true)));

// A corrupted slot-map entry alone must always be masked: the slot map is
// redundant with the host resident table, and an entry corrupted before
// the program starts is overwritten by the first fill of that slot before
// any lookup can trust it. (Mid-run disagreement — the repair path proper —
// is driven directly in decodecache_test.cpp's Revalidation fixture.) The
// program's behaviour must be unchanged in every case.
TEST(FaultInjection, SlotMapCorruptionAlwaysMasked) {
  Reference Ref = prepareCached(3, /*DirectStubs=*/false);
  uint64_t Injected = 0;
  for (uint64_t Seed = 0; Seed != 30; ++Seed) {
    SquashedProgram SP = Ref.SR.SP;
    SP.Opts.ChecksumAtAttach = false;
    FaultInjector FI(Seed * 7919 + 31);
    std::optional<FaultReport> FR =
        FI.inject(SP, FaultKind::SlotMapEntry);
    if (!FR)
      continue;
    ++Injected;
    SCOPED_TRACE(FR->Description);
    SquashedRun Run = runSquashed(SP, Ref.W.TimingInput, Ref.MaxInstructions);
    ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
    EXPECT_EQ(Run.Run.ExitCode, Ref.Base.Run.ExitCode);
    EXPECT_EQ(Run.Output, Ref.Base.Output);
    // Every slot was filled at least once, so the corrupted entry must
    // have been rewritten with the truth by run's end.
    EXPECT_GT(Run.Runtime.Decompressions, 0u);
  }
  EXPECT_GT(Injected, 0u);
}

//===----------------------------------------------------------------------===//
// Decode-ahead sweep: the same detect-or-mask contract with the prefetcher
// active. A corrupted staging buffer must be discarded by the consume-time
// CRC re-check and served by a demand decode instead (masked); a truncated
// host-mirror code table must be refused at attach (detected); the blob
// faults behave exactly as they do without prefetch.
//===----------------------------------------------------------------------===//

TEST(FaultInjection, DecodeAheadFaultsDetectedOrMasked) {
  Reference Ref = prepare(0);
  const std::vector<FaultKind> Kinds = {
      FaultKind::PrefetchSlotCorrupt, FaultKind::DecodeTableTruncated,
      FaultKind::BlobBitFlip, FaultKind::BlobTruncate};

  constexpr uint64_t Seeds = 40;
  uint64_t Detected = 0, Masked = 0, TableFaults = 0;
  for (uint64_t Seed = 0; Seed != Seeds; ++Seed) {
    SquashedProgram SP = Ref.SR.SP;
    SP.Opts.DecodeAhead = true;
    FaultInjector FI(401 + Seed * 2654435761ull);
    std::optional<FaultReport> FR = FI.injectAny(SP, Kinds);
    ASSERT_TRUE(FR.has_value());
    SCOPED_TRACE(std::string(faultKindName(FR->Kind)) + " seed " +
                 std::to_string(Seed) + ": " + FR->Description);
    if (FR->Kind == FaultKind::DecodeTableTruncated)
      ++TableFaults;

    SquashedRun Run = runSquashed(SP, Ref.W.TimingInput, Ref.MaxInstructions);
    if (Run.Run.Status == RunStatus::Fault) {
      EXPECT_FALSE(Run.Run.FaultMessage.empty());
      // A truncated table must never survive to decode time.
      if (FR->Kind == FaultKind::DecodeTableTruncated) {
        EXPECT_EQ(Run.Runtime.Decompressions, 0u)
            << "truncated table was detected only after a fill";
      }
      ++Detected;
      continue;
    }
    ASSERT_EQ(Run.Run.Status, RunStatus::Halted)
        << "corrupted decode-ahead image hung (instruction limit)";
    EXPECT_EQ(Run.Run.ExitCode, Ref.Base.Run.ExitCode)
        << "silently wrong exit code";
    EXPECT_EQ(Run.Output, Ref.Base.Output) << "silently wrong output";
    ++Masked;
  }
  EXPECT_EQ(Detected + Masked, Seeds);
  EXPECT_GT(Detected, 0u);
  EXPECT_GT(Masked, 0u);
  EXPECT_GT(TableFaults, 0u) << "the sweep never drew DecodeTableTruncated";
  RecordProperty("detected", static_cast<int>(Detected));
  RecordProperty("masked", static_cast<int>(Masked));
}

// Arming the very first consumed prefetch for corruption pins the discard
// path directly: the CRC re-check must reject the tampered staging buffer,
// demand-decode in its place, and leave the run byte-identical.
TEST(FaultInjection, ArmedPrefetchCorruptionIsDiscardedAtConsume) {
  Reference Ref = prepare(0);
  SquashedProgram SP = Ref.SR.SP;
  SP.Opts.DecodeAhead = true;

  // The clean decode-ahead run consumes prefetches and matches the
  // prefetch-off reference exactly.
  SquashedRun Clean = runSquashed(SP, Ref.W.TimingInput, Ref.MaxInstructions);
  ASSERT_EQ(Clean.Run.Status, RunStatus::Halted) << Clean.Run.FaultMessage;
  EXPECT_EQ(Clean.Output, Ref.Base.Output);
  ASSERT_GT(Clean.Runtime.PrefetchHits, 0u)
      << "workload never consumed a prefetch; the armed fault cannot fire";

  SquashedProgram Armed = SP;
  Armed.ArmPrefetchCorrupt = 1; // Corrupt the first consumed staging.
  SquashedRun Run =
      runSquashed(Armed, Ref.W.TimingInput, Ref.MaxInstructions);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Run.ExitCode, Ref.Base.Run.ExitCode);
  EXPECT_EQ(Run.Output, Ref.Base.Output)
      << "a corrupted prefetch escaped into the guest";
  EXPECT_EQ(Run.Runtime.PrefetchCorruptDiscards, 1u);
  // The discarded fill demand-decoded instead; nothing else changed.
  EXPECT_EQ(Run.Runtime.Decompressions, Clean.Runtime.Decompressions);
  EXPECT_EQ(Run.Runtime.PrefetchHits + 1, Clean.Runtime.PrefetchHits);
}

// Non-Huffman codec tables damaged at rest: a truncated pattern-selector
// table must be rejected by attach's per-codec validation, before any fill
// could decode through it.
TEST(FaultInjection, CodecTableCorruptRejectedAtAttach) {
  workloads::Workload W = workloads::buildAdpcm(Scale);
  compactProgram(W.Prog).take();
  Image Baseline = layoutProgram(W.Prog);
  Profile Prof = profileImage(Baseline, W.ProfilingInput).take();
  Options Opts;
  Opts.Theta = 0.1;
  Opts.Codec = "pattern";
  SquashResult SR = squashProgram(W.Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  SquashedRun Base = runSquashed(SR.SP, W.TimingInput, ReferenceBudget);
  ASSERT_EQ(Base.Run.Status, RunStatus::Halted) << Base.Run.FaultMessage;

  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    SquashedProgram SP = SR.SP;
    FaultInjector FI(601 + Seed * 2654435761ull);
    std::optional<FaultReport> FR =
        FI.inject(SP, FaultKind::CodecTableCorrupt);
    ASSERT_TRUE(FR.has_value());
    SCOPED_TRACE("seed " + std::to_string(Seed) + ": " + FR->Description);
    SquashedRun Run = runSquashed(SP, W.TimingInput,
                                  4 * Base.Run.Instructions + 1'000'000);
    ASSERT_EQ(Run.Run.Status, RunStatus::Fault)
        << "corrupt codec table escaped attach validation";
    EXPECT_FALSE(Run.Run.FaultMessage.empty());
    EXPECT_EQ(Run.Runtime.Decompressions, 0u)
        << "corrupt table was detected only after a fill";
  }

  // The complementary inapplicability: with no Huffman region, attach
  // never reads the Huffman stream tables, so truncating them would be
  // an undetectable (and therefore meaningless) injection.
  bool AnyHuffman = false;
  for (const RegionImageInfo &RI : SR.SP.Regions)
    AnyHuffman |= RI.Codec == static_cast<uint8_t>(CodecKind::Huffman);
  if (!AnyHuffman) {
    SquashedProgram SP = SR.SP;
    FaultInjector FI(11);
    EXPECT_FALSE(
        FI.inject(SP, FaultKind::DecodeTableTruncated).has_value());
  }
}

// CodecTableCorrupt is inapplicable on an all-Huffman image: there is no
// pattern table for attach to validate, so inject() must refuse.
TEST(FaultInjection, CodecTableCorruptRequiresNonHuffmanRegion) {
  Reference Ref = prepare(0);
  SquashedProgram SP = Ref.SR.SP;
  FaultInjector FI(7);
  EXPECT_FALSE(FI.inject(SP, FaultKind::CodecTableCorrupt).has_value());
}

// PrefetchSlotCorrupt is inapplicable without decode-ahead: inject() must
// refuse rather than arm a fault that can never fire.
TEST(FaultInjection, PrefetchCorruptRequiresDecodeAhead) {
  Reference Ref = prepare(0);
  SquashedProgram SP = Ref.SR.SP;
  ASSERT_FALSE(SP.Opts.DecodeAhead);
  FaultInjector FI(7);
  EXPECT_FALSE(FI.inject(SP, FaultKind::PrefetchSlotCorrupt).has_value());
  EXPECT_EQ(SP.ArmPrefetchCorrupt, 0u);
}
