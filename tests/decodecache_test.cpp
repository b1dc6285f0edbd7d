//===- tests/decodecache_test.cpp - Multi-slot decode cache ---------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// Regression tests for the N-slot decode cache: exact fill/eviction/hit
// counts under LRU for a thrash workload with one more region than the
// cache has slots, the no-re-decode guarantee for resident re-entries,
// direct resident stubs (rewrite on fill, restore on eviction), the
// per-slot revalidation paths (guest slot-map disagreement, resident CRC
// mismatch) driven one trap at a time, and the decode-ahead prefetcher's
// guest-invisibility contract (hits, mispredictions, trace accounting,
// predictor pre-seeding), and the decode memo (one decode per region, and
// a blob bit flip inside a region's consumed span reaching the checks).
//
//===----------------------------------------------------------------------===//

#include "link/Layout.h"
#include "ir/Builder.h"
#include "sim/Machine.h"
#include "squash/Driver.h"
#include "squash/Observability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

using namespace vea;
using namespace squash;

namespace {

/// Iterations of the thrash loop (exact counts below are linear in this).
constexpr uint32_t Reps = 6;

/// Instruction budget for every run here: the longest (50 iterations)
/// retires a few thousand instructions, so a stale decode that spins
/// fails in milliseconds instead of running to the default limit.
constexpr uint64_t ThrashBudget = 100'000;

Machine::Config thrashConfig() {
  Machine::Config Cfg;
  Cfg.MaxInstructions = ThrashBudget;
  return Cfg;
}

/// A hot driver loop whose guarded cold body calls three cold leaf
/// functions in rotation. Squashed with PackRegions off this yields exactly
/// four regions — the call block M and the leaves f0..f2 — and the request
/// stream per iteration is M f0 M f1 M f2 M (the caller re-enters through
/// a restore stub after every callee return).
Program thrashProgram(uint32_t Iterations = Reps) {
  ProgramBuilder PB("thrash");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.mov(20, 0); // Guard: 0 = profile run (cold body skipped).
    F.li(21, static_cast<int32_t>(Iterations));
    F.li(22, 0); // Accumulator.
    F.label("loop");
    F.beq(20, "next");
    // The label isolates the guarded body in its own block: without it the
    // body would share the guard's (hot) block and never be cold.
    F.label("cold");
    // The cold call block (region M). Padding keeps it a real region.
    for (int I = 0; I != 6; ++I)
      F.addi(1, 1, 1);
    F.call("f0");
    F.add(22, 22, 0);
    F.call("f1");
    F.add(22, 22, 0);
    F.call("f2");
    F.add(22, 22, 0);
    F.label("next");
    F.subi(21, 21, 1);
    F.bne(21, "loop");
    F.mov(16, 22);
    F.sys(SysFunc::PutWord);
    F.andi(16, 22, 0xFF);
    F.halt();
  }
  for (int FI = 0; FI != 3; ++FI) {
    std::string Name = "f";
    Name += std::to_string(FI);
    FunctionBuilder F = PB.beginFunction(Name);
    for (int I = 0; I != 12; ++I)
      F.addi(1, 1, 1);
    F.li(0, 7 * FI + 3);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

struct Squashed {
  SquashResult SR;
  RunResult Base;
  std::vector<uint8_t> BaseOut;
};

/// Squashes the thrash program with \p Slots cache slots (profile skips the
/// cold body; timing input executes it), remembering the baseline run.
/// \p Opts supplies every other option.
Squashed squashThrash(uint32_t Slots, bool DirectStubs,
                      uint32_t Iterations = Reps, Options Opts = Options()) {
  Program Prog = thrashProgram(Iterations);
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();

  Squashed Out;
  {
    Machine M(Baseline, thrashConfig());
    M.setInput({1});
    Out.Base = M.run();
    Out.BaseOut = M.output();
    EXPECT_EQ(Out.Base.Status, RunStatus::Halted);
  }

  Opts.PackRegions = false;
  Opts.CacheSlots = Slots;
  Opts.ReuseBufferedRegion = true; // Activate the cache even at one slot.
  Opts.DirectResidentStubs = DirectStubs;
  Out.SR = squashProgram(Prog, Prof, Opts).take();
  EXPECT_FALSE(Out.SR.Identity);
  return Out;
}

/// Runs the squashed image on the timing input and checks equivalence.
SquashedRun runAndCheck(const Squashed &S) {
  SquashedRun R = runSquashed(S.SR.SP, {1}, ThrashBudget);
  EXPECT_EQ(R.Run.Status, RunStatus::Halted) << R.Run.FaultMessage;
  EXPECT_EQ(R.Run.ExitCode, S.Base.ExitCode);
  EXPECT_EQ(R.Output, S.BaseOut);
  return R;
}

} // namespace

TEST(DecodeCache, ThrashExactCountsAcrossSlotCounts) {
  // Request stream per iteration: M f0 M f1 M f2 M; across iterations the
  // trailing M request is immediately followed by the next head M request.
  // Expected fills/hits/evictions under LRU, with four regions total:
  struct Want {
    uint32_t Slots;
    uint64_t Fills, Hits, Evictions;
  };
  const uint64_t R = Reps;
  const Want Cases[] = {
      // One slot: everything thrashes except the back-to-back M requests.
      {1, 6 * R + 1, R - 1, 6 * R},
      // Two slots: M pins its slot (always most recent at eviction time);
      // the three leaves rotate through the other.
      {2, 3 * R + 1, 4 * R - 1, 3 * R - 1},
      // Three slots, four regions: the classic LRU pathology — the leaf
      // rotation always evicts the leaf needed next. Same fills as two
      // slots; one fewer warm-up eviction.
      {3, 3 * R + 1, 4 * R - 1, 3 * R - 2},
      // Four slots: whole working set resident after warm-up.
      {4, 4, 7 * R - 4, 0},
  };
  for (const Want &W : Cases) {
    Squashed S = squashThrash(W.Slots, /*DirectStubs=*/false);
    ASSERT_EQ(S.SR.SP.Regions.size(), 4u)
        << "thrash program no longer forms exactly 4 regions";
    SquashedRun Run = runAndCheck(S);
    EXPECT_EQ(Run.Runtime.Decompressions, W.Fills) << W.Slots << " slots";
    EXPECT_EQ(Run.Runtime.BufferedHits, W.Hits) << W.Slots << " slots";
    EXPECT_EQ(Run.Runtime.Evictions, W.Evictions) << W.Slots << " slots";
    // Requests are conserved: every entry is either a fill or a hit.
    EXPECT_EQ(Run.Runtime.Decompressions + Run.Runtime.BufferedHits,
              7 * R);
  }
}

TEST(DecodeCache, RefilledSlotRunsTheNewRegion) {
  // With one slot, f0, f1 and f2 are each decompressed into slot 0 over
  // the previous region's code. Each returns a different value (3, 10,
  // 17), so the sum only comes out right if every refill's code, not a
  // stale decode of the slot's earlier occupant, is what runs.
  Squashed S = squashThrash(1, /*DirectStubs=*/false);
  ASSERT_EQ(S.SR.SP.Regions.size(), 4u);
  SquashedRun Run = runSquashed(S.SR.SP, {1}, ThrashBudget);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Runtime.Decompressions, 6 * Reps + 1);
  EXPECT_EQ(Run.Output, S.BaseOut);
  const uint32_t Sum = 30 * Reps;
  const std::vector<uint8_t> Want = {
      static_cast<uint8_t>(Sum), static_cast<uint8_t>(Sum >> 8),
      static_cast<uint8_t>(Sum >> 16), static_cast<uint8_t>(Sum >> 24)};
  EXPECT_EQ(Run.Output, Want);
}

TEST(DecodeCache, ThrashRatioReflectsCachePressure) {
  SquashedRun Thrashing =
      runAndCheck(squashThrash(1, /*DirectStubs=*/false));
  SquashedRun Cached = runAndCheck(squashThrash(4, /*DirectStubs=*/false));
  EXPECT_GT(Thrashing.Runtime.thrashRatio(), 0.8);
  EXPECT_LT(Cached.Runtime.thrashRatio(), 0.2);
}

TEST(DecodeCache, ResidentReentryDoesNotRedecode) {
  // With the whole working set resident, each region is decoded exactly
  // once no matter how long the program runs: the decoded-instruction
  // counter must not grow with the iteration count.
  SquashedRun Short =
      runAndCheck(squashThrash(4, /*DirectStubs=*/false, /*Iterations=*/1));
  SquashedRun Long =
      runAndCheck(squashThrash(4, /*DirectStubs=*/false, /*Iterations=*/Reps));
  ASSERT_GT(Short.Runtime.DecodedInstructions, 0u);
  EXPECT_EQ(Long.Runtime.DecodedInstructions,
            Short.Runtime.DecodedInstructions);
  EXPECT_EQ(Long.Runtime.Decompressions, 4u);
}

TEST(DecodeCache, DirectResidentStubsShortCircuitEntry) {
  // With direct stubs a resident region's entry stub branches straight to
  // its slot, so repeat entries never reach the trap handler at all.
  SquashedRun Trapped =
      runAndCheck(squashThrash(4, /*DirectStubs=*/false));
  SquashedRun Direct = runAndCheck(squashThrash(4, /*DirectStubs=*/true));
  EXPECT_GT(Direct.Runtime.DirectStubRewrites, 0u);
  EXPECT_LT(Direct.Runtime.EntryStubCalls, Trapped.Runtime.EntryStubCalls);
  // Nothing was evicted, so nothing was restored.
  EXPECT_EQ(Direct.Runtime.Evictions, 0u);
  EXPECT_EQ(Direct.Runtime.DirectStubRestores, 0u);
}

TEST(DecodeCache, EvictionRestoresDirectStubs) {
  // Under thrash every eviction must put the original trapping stub back,
  // or a later entry would branch into a slot now holding another region.
  SquashedRun Run = runAndCheck(squashThrash(2, /*DirectStubs=*/true));
  EXPECT_GT(Run.Runtime.Evictions, 0u);
  EXPECT_GT(Run.Runtime.DirectStubRestores, 0u);
}

TEST(DecodeCache, EvictTraceNamesSlotAndRegion) {
  Squashed S = squashThrash(2, /*DirectStubs=*/false);
  Machine M(S.SR.SP.Img, thrashConfig());
  RuntimeSystem RT(S.SR.SP);
  RT.enableTrace();
  ASSERT_TRUE(RT.attach(M).ok());
  M.setInput({1});
  ASSERT_EQ(M.run().Status, RunStatus::Halted);

  unsigned Evicts = 0;
  for (const auto &E : RT.events()) {
    if (E.K != RuntimeSystem::Event::Kind::Evict)
      continue;
    ++Evicts;
    EXPECT_LT(E.Addr, 2u) << "eviction from a slot that does not exist";
    EXPECT_LT(E.Region, S.SR.SP.Regions.size());
  }
  EXPECT_EQ(Evicts, RT.stats().Evictions);

  // After the run the host resident table, the guest slot map, and the
  // public accessor all agree.
  const RuntimeLayout &L = S.SR.SP.Layout;
  for (uint32_t Slot = 0; Slot != L.CacheSlots; ++Slot) {
    uint32_t MapWord;
    ASSERT_TRUE(M.loadWord(L.SlotMapBase + 4 * Slot, MapWord));
    int32_t Resident = RT.residentRegion(Slot);
    if (Resident < 0)
      EXPECT_EQ(MapWord, RuntimeLayout::SlotMapEmpty);
    else
      EXPECT_EQ(MapWord, static_cast<uint32_t>(Resident));
  }
}

namespace {

/// Fixture for trap-at-a-time driving of the revalidation paths: a squashed
/// thrash image, attached, with a helper that requests one region through
/// its real entry stub exactly as the bsr would.
class Revalidation : public ::testing::Test {
protected:
  void SetUp() override {
    S = squashThrash(2, /*DirectStubs=*/false);
    M.emplace(S.SR.SP.Img, thrashConfig());
    RT.emplace(S.SR.SP);
    ASSERT_TRUE(RT->attach(*M).ok());
    // Find a region that owns an entry stub to drive.
    for (uint32_t R = 0; R != S.SR.SP.RegionEntryStubs.size(); ++R) {
      if (!S.SR.SP.RegionEntryStubs[R].empty()) {
        Region = R;
        StubAddr = S.SR.SP.RegionEntryStubs[R][0].Addr;
        return;
      }
    }
    FAIL() << "no region with an entry stub";
  }

  /// One Decompress request for the fixture's region, as if its entry
  /// stub's `bsr r25, Decompress` had just executed.
  void request() {
    M->setReg(25, StubAddr + 4); // bsr leaves the tag's address in ra.
    ASSERT_TRUE(RT->handleTrap(
        *M, S.SR.SP.Layout.decompressEntry(25)));
  }

  Squashed S;
  std::optional<Machine> M;
  std::optional<RuntimeSystem> RT;
  uint32_t Region = 0;
  uint32_t StubAddr = 0;
};

} // namespace

TEST_F(Revalidation, SlotMapDisagreementIsRepaired) {
  request();
  ASSERT_EQ(RT->stats().Decompressions, 1u);
  ASSERT_EQ(RT->residentRegion(0), static_cast<int32_t>(Region));

  // Corrupt the guest slot-map word behind the runtime's back.
  const RuntimeLayout &L = S.SR.SP.Layout;
  ASSERT_TRUE(M->storeWord(L.SlotMapBase, 0x5EADBEEF));

  // The next request must notice the disagreement, repair the slot by
  // refilling it in place, and leave the map consistent again.
  request();
  EXPECT_EQ(RT->stats().SlotMapRepairs, 1u);
  EXPECT_EQ(RT->stats().Decompressions, 2u);
  EXPECT_EQ(RT->stats().BufferedHits, 0u);
  uint32_t MapWord;
  ASSERT_TRUE(M->loadWord(L.SlotMapBase, MapWord));
  EXPECT_EQ(MapWord, Region);

  // With the map repaired the region is served from its slot again.
  request();
  EXPECT_EQ(RT->stats().BufferedHits, 1u);
  EXPECT_EQ(RT->stats().Decompressions, 2u);
}

TEST_F(Revalidation, ResidentCrcMismatchForcesRefill) {
  request();
  ASSERT_EQ(RT->stats().Decompressions, 1u);

  // Tamper with the resident region's code words inside the slot.
  const RuntimeLayout &L = S.SR.SP.Layout;
  uint32_t Victim = L.slotDataBase(0);
  uint32_t Old;
  ASSERT_TRUE(M->loadWord(Victim, Old));
  ASSERT_TRUE(M->storeWord(Victim, Old ^ 0x00010000));

  // The per-slot CRC re-check must reject the hit and decode again rather
  // than jump into tampered code.
  request();
  EXPECT_EQ(RT->stats().ResidentCrcMismatches, 1u);
  EXPECT_EQ(RT->stats().Decompressions, 2u);
  EXPECT_EQ(RT->stats().BufferedHits, 0u);
  uint32_t Repaired;
  ASSERT_TRUE(M->loadWord(Victim, Repaired));
  EXPECT_EQ(Repaired, Old);

  // And the refilled slot serves hits once more.
  request();
  EXPECT_EQ(RT->stats().BufferedHits, 1u);
}

TEST(DecodeCache, LayoutSizesBufferForAllSlots) {
  Squashed S = squashThrash(3, /*DirectStubs=*/false);
  const RuntimeLayout &L = S.SR.SP.Layout;
  EXPECT_EQ(L.CacheSlots, 3u);
  EXPECT_EQ(L.BufferWords, L.CacheSlots * L.SlotWords);
  EXPECT_EQ(S.SR.SP.Footprint.SlotMapWords, L.CacheSlots);
  // Every region fits every slot (jump word + expansion).
  for (const auto &RI : S.SR.SP.Regions)
    EXPECT_LE(RI.ExpandedWords + 1, L.SlotWords);
  // Slots are disjoint and inside the buffer.
  for (uint32_t Slot = 0; Slot != L.CacheSlots; ++Slot) {
    EXPECT_GE(L.slotBase(Slot), L.BufferBase);
    EXPECT_LE(L.slotBase(Slot) + 4 * L.SlotWords,
              L.BufferBase + 4 * L.BufferWords);
  }
}

//===----------------------------------------------------------------------===//
// Decode-ahead prefetch (Options::DecodeAhead, DESIGN.md §16): a pure
// host-side staging optimization. Everything the guest observes — output,
// fill/hit/eviction counts, final memory image — must be identical with
// prefetch on, off, or mispredicting; the only legitimate differences are
// the prefetch counters and the cycles a prefetched fill no longer pays.
//===----------------------------------------------------------------------===//

namespace {

/// Runs a squashed thrash image with decode-ahead toggled (a runtime-only
/// knob: the image bytes are unchanged) and checks guest equivalence.
SquashedRun runThrashDecodeAhead(const Squashed &S, bool DecodeAhead) {
  SquashedProgram SP = S.SR.SP;
  SP.Opts.DecodeAhead = DecodeAhead;
  SquashedRun R = runSquashed(SP, {1}, ThrashBudget);
  EXPECT_EQ(R.Run.Status, RunStatus::Halted) << R.Run.FaultMessage;
  EXPECT_EQ(R.Run.ExitCode, S.Base.ExitCode);
  EXPECT_EQ(R.Output, S.BaseOut);
  return R;
}

} // namespace

TEST(DecodeAhead, PrefetchIsInvisibleToTheGuestAndMostlyHits) {
  // Long thrash run: the second-order predictor sees the deterministic
  // M f0 M f1 M f2 M rotation, so after the first iteration every fill
  // should be served from a staged decode.
  Squashed S = squashThrash(1, /*DirectStubs=*/false, /*Iterations=*/50);
  SquashedRun Off = runThrashDecodeAhead(S, false);
  SquashedRun On = runThrashDecodeAhead(S, true);

  // Guest-visible behaviour is identical fill for fill.
  EXPECT_EQ(On.Runtime.Decompressions, Off.Runtime.Decompressions);
  EXPECT_EQ(On.Runtime.BufferedHits, Off.Runtime.BufferedHits);
  EXPECT_EQ(On.Runtime.Evictions, Off.Runtime.Evictions);
  EXPECT_EQ(On.Runtime.DecodedInstructions, Off.Runtime.DecodedInstructions);

  // Off: the machinery never engages.
  EXPECT_EQ(Off.Runtime.PrefetchLaunches, 0u);
  EXPECT_EQ(Off.Runtime.PrefetchHits, 0u);
  EXPECT_EQ(Off.Runtime.PrefetchMisses, 0u);

  // On: every fill either consumed a staged decode or demand-decoded, and
  // the predictor converges — the overwhelming majority of fills hit.
  EXPECT_EQ(On.Runtime.PrefetchHits + On.Runtime.PrefetchMisses,
            On.Runtime.Decompressions);
  EXPECT_GT(On.Runtime.PrefetchHits, On.Runtime.Decompressions / 2);
  EXPECT_EQ(On.Runtime.PrefetchCorruptDiscards, 0u);
  // Every launch is eventually consumed, wasted, or (at most one) still
  // staged when the program halts.
  EXPECT_GE(On.Runtime.PrefetchLaunches,
            On.Runtime.PrefetchHits + On.Runtime.PrefetchWasted);
  EXPECT_LE(On.Runtime.PrefetchLaunches,
            On.Runtime.PrefetchHits + On.Runtime.PrefetchWasted + 1);

  // A prefetched fill is charged setup + icache flush but not the decode
  // proper, so the trap-cycle distribution shifts down. With 50 iterations
  // the handful of warm-up demand fills sit far above the 90th percentile.
  EXPECT_LT(On.Runtime.TrapCycles.sum(), Off.Runtime.TrapCycles.sum());
  EXPECT_LT(On.Runtime.TrapCycles.percentile(99.0),
            Off.Runtime.TrapCycles.percentile(99.0));
}

TEST(DecodeAhead, MispredictionsAreWastedNeverObservable) {
  // Poison the first-order context toward one fixed region so the early
  // predictions are mostly wrong: wasted stagings must accrue while the
  // guest-visible run — output, fills, hits, evictions, and the final
  // memory image — stays byte-identical to the prefetch-off run.
  Squashed S = squashThrash(2, /*DirectStubs=*/false, /*Iterations=*/10);
  const uint32_t NumRegions =
      static_cast<uint32_t>(S.SR.SP.Regions.size());
  ASSERT_EQ(NumRegions, 4u);

  SquashedProgram OffSP = S.SR.SP;
  Machine OffM(OffSP.Img, thrashConfig());
  RuntimeSystem OffRT(OffSP);
  ASSERT_TRUE(OffRT.attach(OffM).ok());
  OffM.setInput({1});
  ASSERT_EQ(OffM.run().Status, RunStatus::Halted);

  SquashedProgram OnSP = S.SR.SP;
  OnSP.Opts.DecodeAhead = true;
  Machine OnM(OnSP.Img, thrashConfig());
  RuntimeSystem OnRT(OnSP);
  ASSERT_TRUE(OnRT.attach(OnM).ok());
  for (uint32_t From = 0; From != NumRegions; ++From)
    OnRT.predictor().seedTransition(From, NumRegions - 1, 1'000'000);
  OnM.setInput({1});
  ASSERT_EQ(OnM.run().Status, RunStatus::Halted);

  EXPECT_GT(OnRT.stats().PrefetchWasted, 0u);
  EXPECT_EQ(OnRT.stats().PrefetchHits + OnRT.stats().PrefetchMisses,
            OnRT.stats().Decompressions);

  // Nothing the guest can see changed — not even one byte of memory.
  EXPECT_EQ(OnM.output(), OffM.output());
  EXPECT_EQ(OnRT.stats().Decompressions, OffRT.stats().Decompressions);
  EXPECT_EQ(OnRT.stats().BufferedHits, OffRT.stats().BufferedHits);
  EXPECT_EQ(OnRT.stats().Evictions, OffRT.stats().Evictions);
  ASSERT_EQ(OnM.memBytes(), OffM.memBytes());
  EXPECT_EQ(std::memcmp(OnM.memData(), OffM.memData(), OnM.memBytes()), 0)
      << "a mispredicted prefetch leaked into guest memory";
}

TEST(DecodeAhead, TraceEventsAccountForEveryLaunch) {
  Squashed S = squashThrash(1, /*DirectStubs=*/false, /*Iterations=*/12);
  SquashedProgram SP = S.SR.SP;
  SP.Opts.DecodeAhead = true;
  SquashedRun Run = runSquashed(SP, {1}, ThrashBudget,
                                RuntimeSystem::DefaultTraceCapacity);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Output, S.BaseOut);

  uint64_t Launches = 0, Hits = 0, Drops = 0;
  for (const auto &E : Run.Trace) {
    switch (E.K) {
    case RuntimeSystem::Event::Kind::PrefetchLaunch:
      ++Launches;
      EXPECT_LT(E.Region, S.SR.SP.Regions.size());
      break;
    case RuntimeSystem::Event::Kind::PrefetchHit:
      ++Hits;
      break;
    case RuntimeSystem::Event::Kind::PrefetchDrop:
      ++Drops;
      break;
    default:
      break;
    }
  }
  EXPECT_EQ(Launches, Run.Runtime.PrefetchLaunches);
  EXPECT_EQ(Hits, Run.Runtime.PrefetchHits);
  EXPECT_EQ(Drops,
            Run.Runtime.PrefetchWasted + Run.Runtime.PrefetchCorruptDiscards);
}

TEST(DecodeAhead, SeededPredictorHitsFromTheFirstIteration) {
  // Replaying a prior run's trace into a fresh predictor
  // (seedPredictorFromEvents) removes the warm-up misses: the seeded run
  // must demand-decode strictly less than the cold one.
  Squashed S = squashThrash(1, /*DirectStubs=*/false, /*Iterations=*/10);
  SquashedProgram SP = S.SR.SP;
  SP.Opts.DecodeAhead = true;

  SquashedRun Cold = runSquashed(SP, {1}, ThrashBudget,
                                 RuntimeSystem::DefaultTraceCapacity);
  ASSERT_EQ(Cold.Run.Status, RunStatus::Halted) << Cold.Run.FaultMessage;
  ASSERT_GT(Cold.Runtime.PrefetchMisses, 0u);

  Machine M(SP.Img, thrashConfig());
  RuntimeSystem RT(SP);
  ASSERT_TRUE(RT.attach(M).ok());
  seedPredictorFromEvents(RT.predictor(), Cold.Trace);
  seedPredictorFromHeat(RT.predictor(), buildRegionHeatReport(Cold.Trace));
  M.setInput({1});
  ASSERT_EQ(M.run().Status, RunStatus::Halted);
  EXPECT_EQ(M.output(), S.BaseOut);
  EXPECT_LT(RT.stats().PrefetchMisses, Cold.Runtime.PrefetchMisses);
  EXPECT_GT(RT.stats().PrefetchHits, Cold.Runtime.PrefetchHits);
}

TEST(DecodeCache, ZeroSlotsIsRejected) {
  Program Prog = thrashProgram();
  Image Baseline = layoutProgram(Prog);
  Profile Prof = profileImage(Baseline, {0}).take();
  Options Opts;
  Opts.CacheSlots = 0;
  Expected<SquashResult> R = squashProgram(Prog, Prof, Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Decode memo (DESIGN.md §3): a fill of a region whose consumed blob bytes
// are unchanged since its last good decode replays that decode instead of
// running it again. Only host time changes; any change to those bytes must
// send the fill back through the full decode and its checks.
//===----------------------------------------------------------------------===//

namespace {

/// The thrash image in the paper's configuration (one slot, no reuse), so
/// every entry refills and each region is filled many times.
SquashedProgram paperModeThrash(const Squashed &S) {
  SquashedProgram SP = S.SR.SP;
  SP.Opts.ReuseBufferedRegion = false;
  return SP;
}

/// The blob bit just past the last one region \p R's decode consumes.
size_t consumedEndBit(const SquashedProgram &SP, uint32_t R) {
  const uint8_t *Blob =
      SP.Img.Bytes.data() + (SP.Layout.BlobBase - SP.Img.Base);
  std::unique_ptr<RegionCursor> Cur =
      SP.makeRegionCursor(R, Blob, SP.Layout.BlobBytes);
  MInst I;
  while (Cur->next(I)) {
  }
  EXPECT_TRUE(Cur->ok());
  return Cur->bitPosition();
}

/// Flips one bit of guest byte Addr right after the first fill of Region,
/// then counts that region's later fills.
class FlipAfterFirstFill : public TrapObserver {
public:
  FlipAfterFirstFill(Machine &M, uint32_t Region, uint32_t Addr)
      : M(M), Region(Region), Addr(Addr) {}

  void onRegionEntry(uint32_t R, bool Filled, bool, uint64_t) override {
    if (R != Region || !Filled)
      return;
    if (Flipped) {
      ++FillsAfterFlip;
      return;
    }
    uint8_t B = 0;
    ASSERT_TRUE(M.loadByte(Addr, B));
    ASSERT_TRUE(M.storeByte(Addr, B ^ 0x10));
    Flipped = true;
  }

  bool Flipped = false;
  uint64_t FillsAfterFlip = 0;

private:
  Machine &M;
  uint32_t Region;
  uint32_t Addr;
};

struct FlippedRun {
  RunResult Run;
  RuntimeSystem::Stats St;
  std::vector<uint8_t> Output;
  bool Flipped = false;
  uint64_t FillsAfterFlip = 0;
};

/// Runs \p SP on the timing input, flipping a bit of \p Addr after the
/// first fill of \p Region (never, when no such region exists).
FlippedRun runWithFlip(const SquashedProgram &SP, uint32_t Region,
                       uint32_t Addr) {
  Machine M(SP.Img, thrashConfig());
  RuntimeSystem RT(SP);
  EXPECT_TRUE(RT.attach(M).ok());
  FlipAfterFirstFill Flip(M, Region, Addr);
  RT.setTrapObserver(&Flip);
  M.setInput({1});
  FlippedRun Out;
  Out.Run = M.run();
  Out.St = RT.stats();
  Out.Output = M.output();
  Out.Flipped = Flip.Flipped;
  Out.FillsAfterFlip = Flip.FillsAfterFlip;
  return Out;
}

} // namespace

TEST(DecodeMemo, ThrashRunsOneDecodePerRegion) {
  // Paper mode: all 7 * Reps entries refill, yet each of the four regions
  // is decoded once. Every guest-visible and charged figure is the same as
  // if each fill had decoded (the run goldens pin that for the workloads).
  // Both decoders report the consumed span the memo is keyed on.
  Squashed S = squashThrash(1, /*DirectStubs=*/false);
  ASSERT_EQ(S.SR.SP.Regions.size(), 4u);
  for (bool Fast : {true, false}) {
    SquashedProgram SP = paperModeThrash(S);
    SP.Opts.FastDecode = Fast;
    SquashedRun Paper = runSquashed(SP, {1}, ThrashBudget);
    ASSERT_EQ(Paper.Run.Status, RunStatus::Halted) << Paper.Run.FaultMessage;
    EXPECT_EQ(Paper.Output, S.BaseOut);
    EXPECT_EQ(Paper.Runtime.Decompressions, 7 * Reps);
    EXPECT_EQ(Paper.Runtime.RegionDecodes, 4u) << "FastDecode " << Fast;
  }

  // With decode-ahead: a predicted region whose memo entry still matches
  // the blob is staged from a copy of the memo, not decoded again.
  {
    SquashedProgram SP = paperModeThrash(S);
    SP.Opts.DecodeAhead = true;
    SquashedRun Ahead = runSquashed(SP, {1}, ThrashBudget);
    ASSERT_EQ(Ahead.Run.Status, RunStatus::Halted) << Ahead.Run.FaultMessage;
    EXPECT_EQ(Ahead.Output, S.BaseOut);
    EXPECT_EQ(Ahead.Runtime.Decompressions, 7 * Reps);
    EXPECT_GT(Ahead.Runtime.PrefetchHits, 0u);
    EXPECT_LE(Ahead.Runtime.RegionDecodes, 4u) << "DecodeAhead";
  }

  // With the cache active, at every slot count.
  for (uint32_t Slots = 1; Slots != 5; ++Slots) {
    SquashedRun Run = runAndCheck(squashThrash(Slots, /*DirectStubs=*/false));
    EXPECT_LE(Run.Runtime.RegionDecodes, 4u) << Slots << " slots";
    EXPECT_GT(Run.Runtime.RegionDecodes, 0u) << Slots << " slots";
  }
}

TEST(DecodeMemo, BlobFlipInsideSpanReachesTheChecks) {
  // Flip one bit inside region R's consumed span between two of its fills:
  // the next fill must not replay the memo but decode, fail its checks,
  // and fault (or recover from the retained copy) exactly as without it.
  for (bool Recover : {false, true}) {
    Options Opts;
    Opts.RetainRecoveryCopies = Recover;
    Squashed S = squashThrash(1, /*DirectStubs=*/false, Reps, Opts);
    SquashedProgram SP = paperModeThrash(S);
    ASSERT_EQ(SP.Regions.size(), 4u);
    for (uint32_t R = 0; R != SP.Regions.size(); ++R) {
      SCOPED_TRACE("region " + std::to_string(R) +
                   (Recover ? ", recovery copies" : ", no recovery copies"));
      // A byte wholly inside the span, shared with no other region.
      const uint32_t Lo = (SP.Regions[R].BitOffset + 7) / 8;
      const uint32_t Hi = static_cast<uint32_t>(consumedEndBit(SP, R) / 8);
      ASSERT_LT(Lo, Hi);
      FlippedRun Run = runWithFlip(SP, R, SP.Layout.BlobBase + (Lo + Hi) / 2);
      ASSERT_TRUE(Run.Flipped);
      if (Recover) {
        EXPECT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
        EXPECT_EQ(Run.Output, S.BaseOut);
        EXPECT_GT(Run.FillsAfterFlip, 0u);
        EXPECT_EQ(Run.St.CorruptRegionRecoveries, Run.FillsAfterFlip);
        continue;
      }
      ASSERT_EQ(Run.Run.Status, RunStatus::Fault);
      const std::string &Msg = Run.Run.FaultMessage;
      const std::string Id = std::to_string(R);
      EXPECT_TRUE(
          Msg.rfind("compressed region " + Id + " failed checksum (pc=", 0) ==
              0 ||
          Msg.rfind("corrupt compressed region " + Id + " (pc=", 0) == 0)
          << Msg;
    }
  }
}

TEST(DecodeMemo, BlobFlipOutsideEverySpanChangesNothing) {
  // A flipped blob byte that no region's decode consumes (here, in the
  // code tables ahead of the first region) must leave the run, and the
  // memo's hits, exactly as they were.
  Squashed S = squashThrash(1, /*DirectStubs=*/false);
  SquashedProgram SP = paperModeThrash(S);
  std::vector<bool> Consumed(SP.Layout.BlobBytes, false);
  for (uint32_t R = 0; R != SP.Regions.size(); ++R)
    for (size_t B = SP.Regions[R].BitOffset / 8,
                E = (consumedEndBit(SP, R) + 7) / 8;
         B != E; ++B)
      Consumed[B] = true;
  const auto Outside = std::find(Consumed.begin(), Consumed.end(), false);
  ASSERT_NE(Outside, Consumed.end()) << "every blob byte is in some span";
  const uint32_t Addr = SP.Layout.BlobBase +
                        static_cast<uint32_t>(Outside - Consumed.begin());

  FlippedRun Clean = runWithFlip(SP, ~0u, Addr);
  FlippedRun Flipped = runWithFlip(SP, 0, Addr);
  ASSERT_FALSE(Clean.Flipped);
  ASSERT_TRUE(Flipped.Flipped);
  ASSERT_EQ(Clean.Run.Status, RunStatus::Halted) << Clean.Run.FaultMessage;
  EXPECT_EQ(Clean.Output, S.BaseOut);
  EXPECT_EQ(Flipped.Run.Status, Clean.Run.Status) << Flipped.Run.FaultMessage;
  EXPECT_EQ(Flipped.Run.ExitCode, Clean.Run.ExitCode);
  EXPECT_EQ(Flipped.Run.Instructions, Clean.Run.Instructions);
  EXPECT_EQ(Flipped.Run.Cycles, Clean.Run.Cycles);
  EXPECT_EQ(Flipped.Output, Clean.Output);
  EXPECT_EQ(Flipped.St.Decompressions, Clean.St.Decompressions);
  EXPECT_EQ(Flipped.St.DecodedInstructions, Clean.St.DecodedInstructions);
  EXPECT_EQ(Flipped.St.RegionDecodes, Clean.St.RegionDecodes);
  EXPECT_EQ(Flipped.St.RegionDecodes, 4u);
  EXPECT_EQ(Flipped.St.CorruptRegionRecoveries, 0u);
}
