//===- tests/adaptive_test.cpp - Online re-squash / hot-swap tests --------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The multiversion runtime's contract (DESIGN.md §15): requests always
// complete against a coherent version regardless of when a swap lands;
// drift-triggered re-squash recovers trap cycles; a regressing version is
// rolled back automatically; retired versions are freed only when their
// epoch pins drain; a wedged background attempt degrades the system to
// its current version, never to a broken one. The concurrency tests here
// are the ThreadSanitizer preset's target.
//
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "huff/FastDecoder.h"
#include "ir/Builder.h"
#include "link/Layout.h"
#include "squash/Adaptive.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace vea;
using namespace squash;

namespace {

constexpr double Scale = 0.05;

/// Instruction budget for the reference run: about ten times what it
/// retires, so a runtime regression that spins fails fast instead of at
/// the default limit.
constexpr uint64_t RunBudget = 5'000'000;

/// Compacted adpcm workload, its training profile (input A), and the
/// reference behaviour of the initial squashed image on input B.
struct Fixture {
  workloads::Workload W;
  Profile Training;
  SquashedRun Base;

  Fixture() {
    W = workloads::buildAdpcm(Scale);
    compactProgram(W.Prog).take();
    Image Baseline = layoutProgram(W.Prog);
    Training = profileImage(Baseline, W.ProfilingInput).take();
    SquashResult SR = squashProgram(W.Prog, Training, options()).take();
    EXPECT_FALSE(SR.Identity);
    Base = runSquashed(SR.SP, W.TimingInput, RunBudget);
    EXPECT_EQ(Base.Run.Status, RunStatus::Halted) << Base.Run.FaultMessage;
    EXPECT_GT(Base.Runtime.TrapCycles.count(), 0u)
        << "input B must reach compressed code for these tests to bite";
  }

  static Options options() {
    Options Opts;
    Opts.Theta = 0.1; // The timing input reaches compressed code here.
    return Opts;
  }

  std::unique_ptr<ResquashController> controller(AdaptiveConfig Cfg) const {
    return ResquashController::create(W.Prog, Training, options(),
                                      std::move(Cfg))
        .take();
  }

  void expectReferenceRun(const SquashedRun &Run) const {
    ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
    EXPECT_EQ(Run.Run.ExitCode, Base.Run.ExitCode);
    EXPECT_EQ(Run.Output, Base.Output);
  }
};

/// Eager, deterministic adaptation: trigger on any evidence, verdict
/// after one probation run, never roll back on noise.
AdaptiveConfig eagerConfig() {
  AdaptiveConfig Cfg;
  Cfg.DriftThreshold = 0.0;
  Cfg.MinEntriesForTrigger = 1;
  Cfg.ProbationRuns = 1;
  Cfg.ProbationTraps = UINT32_MAX;
  Cfg.RegressionTolerance = 1e9;
  Cfg.MaxAttempts = 1;
  return Cfg;
}

bool eventsContain(const std::vector<AdaptiveEvent> &Events,
                   AdaptiveEvent::Kind K) {
  for (const AdaptiveEvent &E : Events)
    if (E.K == K)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// End to end: drift on input B triggers a background re-squash, the new
// version swaps in, survives probation, and recovers trap cycles; the
// superseded version retires and is freed once its pins drain.
//===----------------------------------------------------------------------===//

TEST(Adaptive, DriftTriggersSwapCommitAndRetirement) {
  Fixture Fx;
  std::unique_ptr<ResquashController> C = Fx.controller(eagerConfig());

  // Run 1 serves on version 0, accumulates live heat, and triggers.
  SquashedRun Before = C->serve(Fx.W.TimingInput);
  Fx.expectReferenceRun(Before);
  ASSERT_TRUE(C->drain(60.0).ok()) << C->lastError().toString();
  ASSERT_EQ(C->activeVersion(), 1u) << C->lastError().toString();
  EXPECT_EQ(C->versionState(1), VersionState::Probation);
  EXPECT_EQ(C->versionState(0), VersionState::Standby);

  // Run 2 serves on version 1 and resolves its probation (1 run).
  SquashedRun After = C->serve(Fx.W.TimingInput);
  Fx.expectReferenceRun(After);
  EXPECT_EQ(C->versionState(1), VersionState::Committed);

  // The re-squash folded input B's heat into the guiding profile: the
  // regions B hammered are no longer compressed, so trap cycles drop.
  EXPECT_LE(After.Runtime.TrapCycles.sum(), Before.Runtime.TrapCycles.sum());

  // Version 0's pins drained at serve time, so the end-of-serve poll
  // already freed it.
  EXPECT_EQ(C->versionState(0), VersionState::Freed);

  AdaptiveStats St = C->stats();
  EXPECT_EQ(St.Attempts, 1u);
  EXPECT_EQ(St.Publications, 1u);
  EXPECT_EQ(St.Successes, 1u);
  EXPECT_EQ(St.Rollbacks, 0u);
  EXPECT_EQ(St.RetiredVersions, 1u);
  EXPECT_EQ(St.ServedRuns, 2u);
  EXPECT_GT(St.SwapPauseNsTotal, 0u);
  EXPECT_GE(St.SwapPauseNsMax, St.SwapPauseNsTotal / 2);
  EXPECT_GT(C->versionWarmupDecodeCycles(0), 0u);

  // The transition record tells the whole story, in order.
  std::vector<AdaptiveEvent> Events = C->events();
  EXPECT_TRUE(eventsContain(Events, AdaptiveEvent::Kind::Trigger));
  EXPECT_TRUE(eventsContain(Events, AdaptiveEvent::Kind::Staged));
  EXPECT_TRUE(eventsContain(Events, AdaptiveEvent::Kind::Published));
  EXPECT_TRUE(eventsContain(Events, AdaptiveEvent::Kind::Committed));
  EXPECT_TRUE(eventsContain(Events, AdaptiveEvent::Kind::Retired));
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1);
  EXPECT_EQ(C->droppedEvents(), 0u);

  // Observability: every resquash.* scalar lands in the registry.
  MetricsRegistry R;
  C->exportMetrics(R);
  EXPECT_EQ(R.counter("resquash.publications"), 1u);
  EXPECT_EQ(R.counter("resquash.served_runs"), 2u);
  EXPECT_EQ(R.gauge("resquash.active_version"), 1.0);
  EXPECT_EQ(R.gauge("resquash.probation_pending"), 0.0);
  EXPECT_TRUE(R.has("resquash.swap_pause_ns"));
  EXPECT_TRUE(R.has("resquash.last_drift_score"));
  EXPECT_NE(R.toPrometheus().find("resquash_publications"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Swap-at-every-trap-index stress: for each trap index k, publish the
// staged version from inside trap k's observer. The serving request holds
// an epoch pin, so it must complete against version 0 — byte-identically —
// no matter where the swap lands.
//===----------------------------------------------------------------------===//

namespace {

struct PublishAtTrap final : TrapObserver {
  ResquashController *C = nullptr;
  uint64_t K = 0;
  uint64_t Seen = 0;
  bool Published = false;
  void onRegionEntry(uint32_t, bool, bool, uint64_t) override {
    if (Seen++ == K) {
      Published = C->publishStaged().ok();
    }
  }
};

} // namespace

TEST(Adaptive, SwapAtEveryTrapIndexIsInvisibleToTheServingRun) {
  Fixture Fx;

  // Manual-trigger config: no background attempts, no auto-publication
  // (the observer controls the exact swap point), verdicts immediate.
  AdaptiveConfig Cfg = eagerConfig();
  Cfg.MaxAttemptsPerVersion = 0; // serve() never self-triggers.
  Cfg.AutoPublish = false;

  // How many traps does one run of input B take?
  const uint64_t Traps = Fx.Base.Runtime.TrapCycles.count();
  ASSERT_GT(Traps, 0u);
  const uint64_t Indices = std::min<uint64_t>(Traps, 48);

  for (uint64_t K = 0; K != Indices; ++K) {
    SCOPED_TRACE("publish at trap " + std::to_string(K));
    std::unique_ptr<ResquashController> C = Fx.controller(Cfg);
    // Gather live heat, then stage a re-squash synchronously.
    Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
    ASSERT_TRUE(C->resquashNow().ok()) << C->lastError().toString();
    ASSERT_TRUE(C->hasStaged());

    PublishAtTrap Obs;
    Obs.C = C.get();
    Obs.K = K;
    SquashedRun Run =
        C->serve(Fx.W.TimingInput, RunBudget, &Obs);
    ASSERT_TRUE(Obs.Published) << "observer never reached trap " +
                                      std::to_string(K);
    // The swap landed mid-run, yet the pinned run is byte-identical.
    Fx.expectReferenceRun(Run);
    EXPECT_EQ(C->activeVersion(), 1u);
    // And the next request, on the new version, is too.
    Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
  }
}

//===----------------------------------------------------------------------===//
// Decode-ahead + hot-swap interleaving: with Options::DecodeAhead the
// serving runtime stages decodes on a worker thread. A publication landing
// at any trap index must still be invisible — the pinned run prefetches
// against its own version's codec and blob, and the runtime joins its
// worker before the version can retire. (TSan preset target: the worker
// thread, the serving thread, and the publication all overlap here.)
//===----------------------------------------------------------------------===//

TEST(Adaptive, SwapDuringPrefetchIsInvisibleToTheServingRun) {
  Fixture Fx;
  AdaptiveConfig Cfg = eagerConfig();
  Cfg.MaxAttemptsPerVersion = 0; // serve() never self-triggers.
  Cfg.AutoPublish = false;       // The observer controls the swap point.

  Options Opts = Fixture::options();
  Opts.DecodeAhead = true;

  const uint64_t Traps = Fx.Base.Runtime.TrapCycles.count();
  ASSERT_GT(Traps, 0u);
  const uint64_t Indices = std::min<uint64_t>(Traps, 12);

  for (uint64_t K = 0; K != Indices; ++K) {
    SCOPED_TRACE("publish at trap " + std::to_string(K));
    std::unique_ptr<ResquashController> C =
        ResquashController::create(Fx.W.Prog, Fx.Training, Opts, Cfg).take();
    // Gather live heat (prefetching all the while), stage synchronously.
    Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
    ASSERT_TRUE(C->resquashNow().ok()) << C->lastError().toString();
    ASSERT_TRUE(C->hasStaged());

    PublishAtTrap Obs;
    Obs.C = C.get();
    Obs.K = K;
    SquashedRun Run = C->serve(Fx.W.TimingInput, RunBudget, &Obs);
    ASSERT_TRUE(Obs.Published) << "observer never reached trap " +
                                      std::to_string(K);
    // The swap landed while a prefetch may have been in flight, yet the
    // pinned run is byte-identical — and so is the next run, prefetching
    // on the new version.
    Fx.expectReferenceRun(Run);
    EXPECT_EQ(C->activeVersion(), 1u);
    Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
  }
}

//===----------------------------------------------------------------------===//
// Genuine concurrency: multiple threads serve continuously while the
// controller triggers, stages, publishes, and retires in the background.
// Every run must be byte-identical to the reference. (TSan preset target.)
//===----------------------------------------------------------------------===//

TEST(Adaptive, ConcurrentServesDuringBackgroundSwapStayCoherent) {
  Fixture Fx;
  AdaptiveConfig Cfg = eagerConfig();
  Cfg.ProbationRuns = 2;
  Cfg.MaxAttempts = 2;
  std::unique_ptr<ResquashController> C = Fx.controller(Cfg);

  constexpr int Threads = 2;
  constexpr int RunsPerThread = 6;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      for (int I = 0; I != RunsPerThread; ++I) {
        SquashedRun Run = C->serve(Fx.W.TimingInput);
        if (Run.Run.Status != RunStatus::Halted ||
            Run.Run.ExitCode != Fx.Base.Run.ExitCode ||
            Run.Output != Fx.Base.Output)
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Workers)
    T.join();
  ASSERT_TRUE(C->drain(60.0).ok()) << C->lastError().toString();
  // A publication may have landed at drain time; resolve its probation.
  for (int I = 0; I != 4 && C->stats().ProbationPending; ++I)
    Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));

  EXPECT_EQ(Mismatches.load(), 0);
  AdaptiveStats St = C->stats();
  EXPECT_GE(St.ServedRuns, uint64_t(Threads) * RunsPerThread);
  EXPECT_GE(St.Publications, 1u);
  EXPECT_EQ(St.Rollbacks, 0u);
  EXPECT_FALSE(St.ProbationPending);
  for (uint32_t V = 0; V != C->versionCount(); ++V)
    EXPECT_NE(C->versionState(V), VersionState::Probation);
}

//===----------------------------------------------------------------------===//
// Automatic rollback: a re-squash that (deliberately) compresses the hot
// path regresses its probation trap-cycle rate, and the controller must
// reinstate the prior version — exactly once, with service byte-identical
// throughout.
//===----------------------------------------------------------------------===//

TEST(Adaptive, RegressionOnProbationRollsBackAutomatically) {
  Fixture Fx;
  AdaptiveConfig Cfg = eagerConfig();
  Cfg.RegressionTolerance = 1.10;
  // Sabotaged pipeline: compress nearly everything *and* inflate the
  // simulated decompression costs, so the new version's trap-cycle rate
  // regresses past any real version's — semantics stay intact (the
  // probation runs must still be byte-identical), only the rate is bad.
  Cfg.PipelineOverride = [](const Program &P, const Profile &Prof,
                            const Options &) {
    Options Bad;
    Bad.Theta = 0.95;
    Bad.Costs.DecompSetupCycles = 50'000;
    Bad.Costs.CyclesPerDecodedInstr = 50'000;
    return squashProgram(P, Prof, Bad);
  };
  std::unique_ptr<ResquashController> C = Fx.controller(Cfg);

  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput)); // Triggers.
  ASSERT_TRUE(C->drain(60.0).ok()) << C->lastError().toString();
  ASSERT_EQ(C->activeVersion(), 1u);
  ASSERT_EQ(C->versionState(1), VersionState::Probation);

  // The probation run itself is still byte-identical (slow, not wrong)...
  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));

  // ...but its verdict reinstates version 0 atomically.
  EXPECT_EQ(C->activeVersion(), 0u);
  EXPECT_EQ(C->versionState(0), VersionState::Committed);
  EXPECT_EQ(C->versionState(1), VersionState::Freed)
      << "the rolled-back version drained its pins and must be freed";

  AdaptiveStats St = C->stats();
  EXPECT_EQ(St.Rollbacks, 1u);
  EXPECT_EQ(St.Successes, 0u);
  EXPECT_EQ(St.Publications, 1u);
  EXPECT_TRUE(eventsContain(C->events(), AdaptiveEvent::Kind::RolledBack));

  // Exactly one rollback: the attempt budget is spent, so continued
  // service neither re-triggers nor rolls back again.
  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
  EXPECT_EQ(C->stats().Rollbacks, 1u);
  EXPECT_EQ(C->stats().Attempts, 1u);
  EXPECT_EQ(C->activeVersion(), 0u);
}

//===----------------------------------------------------------------------===//
// Watchdog: a wedged background re-squash is invalidated at its deadline;
// its late result is discarded, the failure is surfaced as
// DeadlineExceeded, and the controller keeps serving its current version.
//===----------------------------------------------------------------------===//

TEST(Adaptive, WatchdogInvalidatesWedgedAttemptAndDiscardsLateResult) {
  Fixture Fx;
  AdaptiveConfig Cfg = eagerConfig();
  Cfg.ResquashTimeoutSeconds = 0.01;
  Cfg.PipelineOverride = [](const Program &P, const Profile &Prof,
                            const Options &O) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return squashProgram(P, Prof, O);
  };
  std::unique_ptr<ResquashController> C = Fx.controller(Cfg);

  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput)); // Triggers.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  C->poll(); // Past the deadline: the watchdog fires here.

  AdaptiveStats St = C->stats();
  EXPECT_EQ(St.Timeouts, 1u);
  EXPECT_EQ(C->lastError().code(), StatusCode::DeadlineExceeded)
      << C->lastError().toString();
  EXPECT_TRUE(eventsContain(C->events(), AdaptiveEvent::Kind::TimedOut));

  // Let the wedged worker finish: its (valid!) result must be discarded
  // because its generation is stale.
  ASSERT_TRUE(C->drain(30.0).ok());
  EXPECT_FALSE(C->hasStaged());
  EXPECT_EQ(C->versionCount(), 1u);
  EXPECT_EQ(C->activeVersion(), 0u);
  EXPECT_EQ(C->stats().Publications, 0u);

  // Degraded, not broken.
  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
}

//===----------------------------------------------------------------------===//
// Edges: identity images serve fine (no machinery, no drift); manual
// re-squash without live heat fails cleanly; double-staging is refused.
//===----------------------------------------------------------------------===//

TEST(Adaptive, IdentityImageServesWithoutAdaptation) {
  // A program whose every block is executed by the training input: no
  // cold code, so the squash is an identity image with no machinery.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(16, 0);
    F.halt();
  }
  PB.setEntry("main");
  Program Prog = PB.build();
  Image Baseline = layoutProgram(Prog);
  Profile Training = profileImage(Baseline, {}).take();
  std::unique_ptr<ResquashController> C =
      ResquashController::create(Prog, Training, Options(), eagerConfig())
          .take();

  SquashedRun Run = C->serve({});
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Runtime.TrapCycles.count(), 0u);
  ASSERT_TRUE(C->drain(10.0).ok());
  EXPECT_EQ(C->versionCount(), 1u);
  EXPECT_EQ(C->stats().Attempts, 0u); // No regions — nothing to drift.
}

TEST(Adaptive, ResquashNowRequiresLiveHeatAndRefusesDoubleStaging) {
  Fixture Fx;
  AdaptiveConfig Cfg = eagerConfig();
  Cfg.MaxAttemptsPerVersion = 0; // Manual control only.
  std::unique_ptr<ResquashController> C = Fx.controller(Cfg);

  // No live heat yet: the merge has nothing to work with.
  Status S = C->resquashNow();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);

  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
  ASSERT_TRUE(C->resquashNow().ok()) << C->lastError().toString();
  ASSERT_TRUE(C->hasStaged());

  // A second attempt while one is staged is refused, not queued.
  Status S2 = C->resquashNow();
  ASSERT_FALSE(S2.ok());
  EXPECT_EQ(S2.code(), StatusCode::InvalidArgument);

  ASSERT_TRUE(C->publishStaged().ok()) << C->lastError().toString();
  EXPECT_EQ(C->activeVersion(), 1u);
  Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
}

//===----------------------------------------------------------------------===//
// Fast-decode tables across versions. The memoized FastTables are keyed to
// one StreamCodecs instance; a copied codec (a freshly published version's
// host mirror) must rebuild its own tables instead of aliasing the
// source's — a stale shared table set would decode the new version's blob
// with the old version's codes.
//===----------------------------------------------------------------------===//

namespace {

MInst legalInst(Rng &R) {
  Opcode Op;
  do {
    Op = static_cast<Opcode>(1 + R.nextBelow(NumOpcodes - 1));
  } while (!opcodeInfo(Op).IsLegal && Op != Opcode::Bsrx);
  const FormatLayout &Layout = formatLayout(formatOf(Op));
  MInst I(Op);
  for (unsigned S = 1; S != Layout.Count; ++S) {
    uint32_t Max = (1u << Layout.Slots[S].Width) - 1;
    I.set(Layout.Slots[S].Kind, R.next() & Max);
  }
  return I;
}

} // namespace

TEST(Adaptive, CopiedCodecsRebuildFastTablesInsteadOfSharing) {
  Rng R(4242);
  std::vector<std::vector<MInst>> Corpus(8);
  for (auto &Region : Corpus)
    for (size_t I = 0; I != 60; ++I)
      Region.push_back(legalInst(R));
  StreamCodecs SC = StreamCodecs::build(Corpus);

  std::shared_ptr<const FastTables> Orig = SC.fastTables(11);
  ASSERT_NE(Orig, nullptr);
  // Repeat lookups on the same instance share the memo.
  EXPECT_EQ(SC.fastTables(11).get(), Orig.get());

  // A copy starts with an empty memo: its tables are its own.
  StreamCodecs Copy(SC);
  std::shared_ptr<const FastTables> CopyTables = Copy.fastTables(11);
  ASSERT_NE(CopyTables, nullptr);
  EXPECT_NE(CopyTables.get(), Orig.get())
      << "copied codec aliased the source's fast tables";

  // Copy-assignment over an instance with a populated memo drops it too.
  StreamCodecs Assigned = StreamCodecs::build(Corpus);
  (void)Assigned.fastTables(11);
  Assigned = SC;
  EXPECT_NE(Assigned.fastTables(11).get(), Orig.get())
      << "copy-assigned codec kept a stale memo";

  // A move transfers the memo with the identity: no rebuild.
  StreamCodecs Moved(std::move(Copy));
  EXPECT_EQ(Moved.fastTables(11).get(), CopyTables.get());
}

//===----------------------------------------------------------------------===//
// Swap-then-decode with the table-driven decoder: every post-swap fill of
// the new version must decode through tables built for *its* codec. Before
// per-instance memo isolation a published version could inherit the old
// version's tables by pointer and mis-decode its blob.
//===----------------------------------------------------------------------===//

TEST(Adaptive, SwapThenDecodeWithFastTablesStaysCorrect) {
  Fixture Fx;
  AdaptiveConfig Cfg = eagerConfig();
  Cfg.MaxAttemptsPerVersion = 0; // Manual control only.
  Cfg.AutoPublish = false;

  for (const bool DecodeAhead : {false, true}) {
    SCOPED_TRACE(DecodeAhead ? "fast-decode + decode-ahead" : "fast-decode");
    Options Opts = Fixture::options();
    Opts.FastDecode = true;
    Opts.DecodeAhead = DecodeAhead;
    std::unique_ptr<ResquashController> C =
        ResquashController::create(Fx.W.Prog, Fx.Training, Opts, Cfg).take();

    // Gather live heat on version 0 (filling through its fast tables),
    // stage a re-squash, and publish.
    Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
    ASSERT_TRUE(C->resquashNow().ok()) << C->lastError().toString();
    ASSERT_TRUE(C->publishStaged().ok()) << C->lastError().toString();
    EXPECT_EQ(C->activeVersion(), 1u);

    // Decodes on the published version must run on freshly built tables;
    // a stale table set from version 0 would corrupt every fill here.
    for (int I = 0; I != 3; ++I)
      Fx.expectReferenceRun(C->serve(Fx.W.TimingInput));
    ASSERT_TRUE(C->drain(120.0).ok());
  }
}
