//===- tests/observability_test.cpp - Metrics, trace, profile IO ----------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The observability layer: the metrics registry and its JSON rendering,
// the Chrome-trace exporter's structural validity, the per-region heat
// report, and profile persistence — including the acceptance-criteria
// properties that a saved-then-loaded profile squashes to a byte-identical
// image and that a merged multi-input profile drives a correct
// differential run.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "sim/ProfileIO.h"
#include "squash/Driver.h"
#include "squash/DriftMonitor.h"
#include "squash/Observability.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

using namespace vea;
using namespace squash;

namespace {

/// Instruction budget for every squashed run here: the fixtures retire a
/// few thousand instructions at most, so a runtime regression that spins
/// fails in milliseconds instead of at the default limit.
constexpr uint64_t RunBudget = 100'000;

/// Minimal recursive-descent JSON syntax checker — enough to assert that
/// every byte the exporters produce is a single well-formed JSON value.
struct JsonChecker {
  const char *C, *E;
  explicit JsonChecker(const std::string &S)
      : C(S.data()), E(S.data() + S.size()) {}

  void ws() {
    while (C != E && (*C == ' ' || *C == '\t' || *C == '\n' || *C == '\r'))
      ++C;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (static_cast<size_t>(E - C) >= N && !std::memcmp(C, L, N)) {
      C += N;
      return true;
    }
    return false;
  }
  bool string() {
    if (C == E || *C != '"')
      return false;
    ++C;
    while (C != E && *C != '"') {
      if (static_cast<unsigned char>(*C) < 0x20)
        return false; // raw control character
      if (*C == '\\') {
        ++C;
        if (C == E || !std::strchr("\"\\/bfnrtu", *C))
          return false;
      }
      ++C;
    }
    if (C == E)
      return false;
    ++C;
    return true;
  }
  bool number() {
    const char *Start = C;
    if (C != E && *C == '-')
      ++C;
    bool Digits = false;
    while (C != E && (std::isdigit(static_cast<unsigned char>(*C)) ||
                      *C == '.' || *C == 'e' || *C == 'E' || *C == '+' ||
                      *C == '-')) {
      Digits |= std::isdigit(static_cast<unsigned char>(*C)) != 0;
      ++C;
    }
    return C != Start && Digits;
  }
  bool value() {
    ws();
    if (C == E)
      return false;
    if (*C == '{') {
      ++C;
      ws();
      if (C != E && *C == '}') {
        ++C;
        return true;
      }
      while (true) {
        ws();
        if (!string())
          return false;
        ws();
        if (C == E || *C != ':')
          return false;
        ++C;
        if (!value())
          return false;
        ws();
        if (C != E && *C == ',') {
          ++C;
          continue;
        }
        if (C != E && *C == '}') {
          ++C;
          return true;
        }
        return false;
      }
    }
    if (*C == '[') {
      ++C;
      ws();
      if (C != E && *C == ']') {
        ++C;
        return true;
      }
      while (true) {
        if (!value())
          return false;
        ws();
        if (C != E && *C == ',') {
          ++C;
          continue;
        }
        if (C != E && *C == ']') {
          ++C;
          return true;
        }
        return false;
      }
    }
    if (*C == '"')
      return string();
    if (lit("true") || lit("false") || lit("null"))
      return true;
    return number();
  }
};

bool isValidJson(const std::string &S) {
  JsonChecker P(S);
  if (!P.value())
    return false;
  P.ws();
  return P.C == P.E;
}

/// A byte-stream accumulator whose >= 128 bytes divert through a cold
/// transform function — cold under any profile whose input stays below
/// 128, exercised by timing inputs that do not.
Program streamProgram() {
  ProgramBuilder PB("obs");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(9, 0); // checksum
    F.label("loop");
    F.sys(SysFunc::GetChar);
    F.li(1, -1);
    F.cmpeq(1, 0, 1);
    F.bne(1, "eof");
    F.cmpulti(1, 0, 128);
    F.bne(1, "plain");
    F.mov(16, 0);
    F.call("rare"); // returns the transformed byte in r0
    F.label("plain");
    F.add(9, 9, 0);
    F.br("loop");
    F.label("eof");
    F.andi(16, 9, 255);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("rare");
    F.muli(0, 16, 3);
    F.xori(0, 0, 0x5a);
    for (int I = 0; I != 10; ++I)
      F.addi(0, 0, 1); // Padding so the function forms a real region.
    F.andi(0, 0, 255);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

std::vector<uint8_t> lowBytes(size_t N, uint8_t Seed) {
  std::vector<uint8_t> In;
  for (size_t I = 0; I != N; ++I)
    In.push_back(static_cast<uint8_t>((Seed + I * 7) % 128));
  return In;
}

std::vector<uint8_t> mixedBytes(size_t N) {
  std::vector<uint8_t> In;
  for (size_t I = 0; I != N; ++I)
    In.push_back(static_cast<uint8_t>(40 + I * 29)); // wraps past 128
  return In;
}

/// Profiles streamProgram's baseline on \p Input.
Profile profileOn(const Program &Prog, const std::vector<uint8_t> &Input) {
  Image Baseline = layoutProgram(Prog);
  return profileImage(Baseline, Input).take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(Metrics, CountersAndGauges) {
  MetricsRegistry R;
  EXPECT_TRUE(R.empty());
  R.setCounter("a", 7);
  R.addCounter("a", 3);
  R.setGauge("b", 0.5);
  EXPECT_EQ(R.size(), 2u);
  EXPECT_TRUE(R.has("a"));
  EXPECT_FALSE(R.has("c"));
  EXPECT_EQ(R.counter("a"), 10u);
  EXPECT_DOUBLE_EQ(R.gauge("b"), 0.5);
  // addCounter on a fresh name starts from zero.
  R.addCounter("c", 2);
  EXPECT_EQ(R.counter("c"), 2u);
}

TEST(Metrics, JsonIsValidAndInsertionOrdered) {
  MetricsRegistry R;
  R.setCounter("z.count", 1);
  R.setGauge("a.gauge", 2.25);
  // Names with quotes or control characters are rejected at the setter
  // (reject-not-sanitize, see validMetricName), so they can never reach
  // the JSON surface in the first place.
  EXPECT_FALSE(R.setCounter("quote\"key\n", 3));
  std::string J = R.toJson();
  EXPECT_TRUE(isValidJson(J)) << J;
  // Insertion order, not lexicographic: z before a.
  EXPECT_LT(J.find("z.count"), J.find("a.gauge"));
  EXPECT_EQ(J.find("quote"), std::string::npos) << J;
  EXPECT_EQ(R.size(), 2u);
}

TEST(Metrics, EmptyRegistryIsAnEmptyObject) {
  MetricsRegistry R;
  EXPECT_EQ(R.toJson(), "{}");
  EXPECT_TRUE(isValidJson(R.toJson()));
}

TEST(Metrics, HistogramsSerializeIntoJson) {
  MetricsRegistry R;
  Histogram H;
  H.record(3);
  H.record(3);
  H.record(9);
  R.setCounter("before", 1);
  R.setHistogram("run.lat", H);
  std::string J = R.toJson();
  EXPECT_TRUE(isValidJson(J)) << J;
  EXPECT_NE(J.find("\"run.lat\":{\"count\":3"), std::string::npos) << J;
  EXPECT_NE(J.find("\"buckets\":[[3,2],[9,1]]"), std::string::npos) << J;
}

//===----------------------------------------------------------------------===//
// Prometheus exposition
//===----------------------------------------------------------------------===//

TEST(Metrics, PrometheusExpositionStructure) {
  MetricsRegistry R;
  R.setCounter("run.traps", 12);
  R.setGauge("drift.score", 0.25);
  std::string P = R.toPrometheus();
  EXPECT_NE(P.find("# HELP run_traps squash metric run.traps\n"),
            std::string::npos)
      << P;
  EXPECT_NE(P.find("# TYPE run_traps counter\n"), std::string::npos) << P;
  EXPECT_NE(P.find("run_traps 12\n"), std::string::npos) << P;
  EXPECT_NE(P.find("# TYPE drift_score gauge\n"), std::string::npos) << P;
  EXPECT_NE(P.find("drift_score 0.25\n"), std::string::npos) << P;
  // The dotted original survives only in HELP text; sample lines carry
  // the underscored name, and insertion order is kept.
  std::istringstream In(P);
  std::string Line;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line[0] != '#') {
      EXPECT_EQ(Line.find("run.traps"), std::string::npos) << Line;
    }
  }
  EXPECT_LT(P.find("run_traps"), P.find("drift_score"));
  EXPECT_EQ(P.back(), '\n');
}

TEST(Metrics, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry R;
  Histogram H;
  H.record(1);
  H.record(1);
  H.record(8);
  R.setHistogram("trap.cycles", H);
  std::string P = R.toPrometheus();
  EXPECT_NE(P.find("# TYPE trap_cycles histogram\n"), std::string::npos)
      << P;
  // Buckets are cumulative with inclusive upper bounds: le="1" already
  // holds both 1-samples, le="8" everything, and +Inf closes the ladder.
  EXPECT_NE(P.find("trap_cycles_bucket{le=\"1\"} 2\n"), std::string::npos)
      << P;
  EXPECT_NE(P.find("trap_cycles_bucket{le=\"8\"} 3\n"), std::string::npos)
      << P;
  EXPECT_NE(P.find("trap_cycles_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << P;
  EXPECT_NE(P.find("trap_cycles_sum 10\n"), std::string::npos) << P;
  EXPECT_NE(P.find("trap_cycles_count 3\n"), std::string::npos) << P;
  // Cumulative counts never decrease down the ladder.
  uint64_t Prev = 0;
  std::istringstream In(P);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("trap_cycles_bucket", 0) != 0)
      continue;
    uint64_t N = std::stoull(Line.substr(Line.rfind(' ') + 1));
    EXPECT_GE(N, Prev) << Line;
    Prev = N;
  }
}

TEST(Metrics, PrometheusEmptyRegistryAndEmptyHistogram) {
  MetricsRegistry R;
  EXPECT_EQ(R.toPrometheus(), "");
  R.setHistogram("h", Histogram());
  std::string P = R.toPrometheus();
  // An empty histogram still exposes a complete (all-zero) ladder.
  EXPECT_NE(P.find("h_bucket{le=\"+Inf\"} 0\n"), std::string::npos) << P;
  EXPECT_NE(P.find("h_sum 0\n"), std::string::npos) << P;
  EXPECT_NE(P.find("h_count 0\n"), std::string::npos) << P;
}

//===----------------------------------------------------------------------===//
// Chrome-trace export + heat report
//===----------------------------------------------------------------------===//

TEST(Observability, ChromeTraceIsStructurallyValid) {
  Program Prog = streamProgram();
  Profile Prof = profileOn(Prog, lowBytes(64, 1));
  Options Opts;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);

  SquashedRun Run = runSquashed(SR.SP, mixedBytes(64), RunBudget,
                                RuntimeSystem::DefaultTraceCapacity);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  ASSERT_FALSE(Run.Trace.empty());

  std::string J = exportChromeTrace(Run.Trace, Run.TraceDropped);
  EXPECT_TRUE(isValidJson(J)) << J.substr(0, 200);
  EXPECT_NE(J.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"decompress\""), std::string::npos);

  // Timestamps are the machine cycle counts, nondecreasing oldest-first.
  for (size_t I = 1; I < Run.Trace.size(); ++I)
    EXPECT_LE(Run.Trace[I - 1].Cycle, Run.Trace[I].Cycle);
}

TEST(Observability, EmptyTraceExportsValidJson) {
  std::string J = exportChromeTrace({}, 5);
  EXPECT_TRUE(isValidJson(J)) << J;
  EXPECT_NE(J.find("\"dropped_events\":\"5\""), std::string::npos);
}

TEST(Observability, HeatReportAggregatesPerRegion) {
  using Event = RuntimeSystem::Event;
  std::vector<Event> Events = {
      {Event::Kind::EnterViaStub, 1, 0, 0, 10},
      {Event::Kind::Decompress, 1, 0, 0, 11},
      {Event::Kind::BufferedHit, 1, 0, 0, 20},
      {Event::Kind::Decompress, 2, 0, 0, 30},
      {Event::Kind::Evict, 1, 0, 0, 30},
      {Event::Kind::StubCreate, 7, 0, 1, 31}, // stub event: not region heat
      {Event::Kind::Decompress, 1, 0, 0, 40},
  };
  std::vector<RegionHeat> Report = buildRegionHeatReport(Events);
  ASSERT_EQ(Report.size(), 2u);
  // Sorted by decompressions descending: region 1 (2 fills) first.
  EXPECT_EQ(Report[0].Region, 1u);
  EXPECT_EQ(Report[0].Decompressions, 2u);
  EXPECT_EQ(Report[0].BufferedHits, 1u);
  EXPECT_EQ(Report[0].Evictions, 1u);
  EXPECT_EQ(Report[0].StubCalls, 1u);
  EXPECT_EQ(Report[0].FirstCycle, 10u);
  EXPECT_EQ(Report[0].LastCycle, 40u);
  EXPECT_EQ(Report[1].Region, 2u);
  EXPECT_EQ(Report[1].Decompressions, 1u);

  std::string Table = renderRegionHeatReport(Report);
  EXPECT_NE(Table.find("decompressions"), std::string::npos);
}

TEST(Observability, CollectCoversSquashAndRunCounters) {
  Program Prog = streamProgram();
  Profile Prof = profileOn(Prog, lowBytes(64, 1));
  Options Opts;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  SquashedRun Run = runSquashed(SR.SP, mixedBytes(64), RunBudget,
                                RuntimeSystem::DefaultTraceCapacity);

  MetricsRegistry Reg;
  collectSquashMetrics(Reg, SR);
  collectRunMetrics(Reg, Run);
  // One registry covers both squash-time and runtime counters.
  for (const char *Key :
       {"squash.time.total_seconds", "squash.cold.cold_instructions",
        "squash.regions.initial", "squash.buffersafe.functions",
        "squash.unswitch.unswitched", "footprint.total_code_bytes",
        "run.instructions", "run.cycles", "runtime.decompressions",
        "runtime.trace_events", "runtime.trace_dropped"})
    EXPECT_TRUE(Reg.has(Key)) << Key;
  EXPECT_TRUE(isValidJson(Reg.toJson()));
  EXPECT_EQ(Reg.counter("runtime.trace_events"), Run.Trace.size());
  EXPECT_GE(Reg.counter("runtime.decompressions"), 1u);
}

//===----------------------------------------------------------------------===//
// Profile persistence
//===----------------------------------------------------------------------===//

TEST(ProfileIO, SerializeParseRoundTrip) {
  Profile P;
  P.BlockCounts = {0, 3, 0, 12345678901234ull, 1};
  P.TotalInstructions = 999;
  Expected<Profile> Back = parseProfile(serializeProfile(P));
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back.get().BlockCounts, P.BlockCounts);
  EXPECT_EQ(Back.get().TotalInstructions, P.TotalInstructions);
}

TEST(ProfileIO, RejectsMalformedInput) {
  EXPECT_FALSE(parseProfile("").ok());
  EXPECT_FALSE(parseProfile("squash-profile v99\nblocks 1\ntotal 0\n").ok());
  const char *Good = "squash-profile v1\nblocks 2\ntotal 5\n";
  EXPECT_TRUE(parseProfile(Good).ok());
  EXPECT_FALSE(parseProfile(std::string(Good) + "2 1\n").ok()) << "id range";
  EXPECT_FALSE(parseProfile(std::string(Good) + "0 1\n0 2\n").ok())
      << "duplicate id";
  EXPECT_FALSE(parseProfile(std::string(Good) + "0 1 junk\n").ok());
  EXPECT_FALSE(parseProfile(std::string(Good) + "0 99999999999999999999\n")
                   .ok())
      << "count overflow";
  EXPECT_FALSE(parseProfile("squash-profile v1\nblocks -1\ntotal 0\n").ok());
}

TEST(ProfileIO, MergeSumsAndValidates) {
  Profile A, B;
  A.BlockCounts = {1, 2, 3};
  A.TotalInstructions = 6;
  B.BlockCounts = {10, 0, 30};
  B.TotalInstructions = 40;
  Expected<Profile> M = mergeProfiles({A, B});
  ASSERT_TRUE(M.ok());
  EXPECT_EQ(M.get().BlockCounts, (std::vector<uint64_t>{11, 2, 33}));
  EXPECT_EQ(M.get().TotalInstructions, 46u);

  EXPECT_FALSE(mergeProfiles({}).ok());
  Profile C;
  C.BlockCounts = {1};
  EXPECT_FALSE(mergeProfiles({A, C}).ok()) << "block count mismatch";
}

// The merge feeds the online re-squash path, so hostile or damaged
// profiles must die with a descriptive Status, never wrap around.
TEST(ProfileIO, MergeRejectsCountOverflow) {
  Profile A, B;
  A.BlockCounts = {UINT64_MAX - 1, 5};
  A.TotalInstructions = 10;
  B.BlockCounts = {2, 0};
  B.TotalInstructions = 2;
  Expected<Profile> M = mergeProfiles({A, B});
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), StatusCode::InvalidArgument);
  EXPECT_NE(M.status().message().find("overflow"), std::string::npos)
      << M.status().toString();
}

TEST(ProfileIO, MergeRejectsInstructionTotalOverflow) {
  Profile A, B;
  A.BlockCounts = {1};
  A.TotalInstructions = UINT64_MAX - 1;
  B.BlockCounts = {1};
  B.TotalInstructions = 2;
  Expected<Profile> M = mergeProfiles({A, B});
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.status().code(), StatusCode::InvalidArgument);
  EXPECT_NE(M.status().message().find("overflow"), std::string::npos)
      << M.status().toString();
}

TEST(ProfileIO, ScaleRejectsHostileWeights) {
  Profile P;
  P.BlockCounts = {1, 2};
  P.TotalInstructions = 3;
  for (double W : {std::nan(""), std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), -1.0, -0.25}) {
    Expected<Profile> S = scaleProfile(P, W);
    ASSERT_FALSE(S.ok()) << "weight " << W;
    EXPECT_EQ(S.status().code(), StatusCode::InvalidArgument);
  }
}

TEST(ProfileIO, ScaleRejectsOverflowingCounts) {
  Profile P;
  P.BlockCounts = {UINT64_MAX / 2};
  P.TotalInstructions = 10;
  Expected<Profile> S = scaleProfile(P, 4.0);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.status().code(), StatusCode::InvalidArgument);
  EXPECT_NE(S.status().message().find("overflow"), std::string::npos)
      << S.status().toString();

  Profile Q;
  Q.BlockCounts = {1};
  Q.TotalInstructions = UINT64_MAX / 2;
  Expected<Profile> S2 = scaleProfile(Q, 4.0);
  ASSERT_FALSE(S2.ok());
  EXPECT_EQ(S2.status().code(), StatusCode::InvalidArgument);
}

TEST(ProfileIO, ScaleRoundsHalfAwayLikeTheDriftRecipe) {
  Profile P;
  P.BlockCounts = {2, 3, 0};
  P.TotalInstructions = 10;
  Profile S = scaleProfile(P, 2.5).take();
  EXPECT_EQ(S.BlockCounts, (std::vector<uint64_t>{5, 8, 0}));
  EXPECT_EQ(S.TotalInstructions, 25u);
  // Weight 0 is legal (an empty contribution), unlike negative weights.
  Profile Z = scaleProfile(P, 0.0).take();
  EXPECT_EQ(Z.BlockCounts, (std::vector<uint64_t>{0, 0, 0}));
  EXPECT_EQ(Z.TotalInstructions, 0u);
}

TEST(ProfileIO, SaveLoadFileRoundTrip) {
  Profile P;
  P.BlockCounts = {5, 0, 7};
  P.TotalInstructions = 12;
  std::string Path = testing::TempDir() + "squash_profileio_test.prof";
  ASSERT_TRUE(saveProfileFile(P, Path).ok());
  Expected<Profile> Back = loadProfileFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back.get().BlockCounts, P.BlockCounts);
  EXPECT_EQ(Back.get().TotalInstructions, P.TotalInstructions);
  std::remove(Path.c_str());

  EXPECT_FALSE(loadProfileFile(Path + ".does-not-exist").ok());
}

TEST(ProfileIO, LoadedProfileSquashesByteIdentically) {
  Program Prog = streamProgram();
  Profile Prof = profileOn(Prog, lowBytes(64, 1));

  std::string Path = testing::TempDir() + "squash_profileio_image.prof";
  ASSERT_TRUE(saveProfileFile(Prof, Path).ok());
  Profile Loaded = loadProfileFile(Path).take();
  std::remove(Path.c_str());

  Options Opts;
  SquashResult Direct = squashProgram(Prog, Prof, Opts).take();
  SquashResult ViaFile = squashProgram(Prog, Loaded, Opts).take();
  ASSERT_FALSE(Direct.Identity);
  // The persisted profile carries everything the pipeline consumes: the
  // squashed images must match byte for byte.
  EXPECT_EQ(ViaFile.SP.Img.Bytes, Direct.SP.Img.Bytes);
  EXPECT_EQ(ViaFile.SP.Img.Base, Direct.SP.Img.Base);
  EXPECT_EQ(ViaFile.SP.Img.EntryPC, Direct.SP.Img.EntryPC);
}

TEST(ProfileIO, MergedProfileDrivesDifferentialRun) {
  Program Prog = streamProgram();
  // Two training inputs (the paper's Figure 5 cross-input setup), merged.
  Profile P1 = profileOn(Prog, lowBytes(48, 1));
  Profile P2 = profileOn(Prog, lowBytes(96, 3));
  Profile Merged = mergeProfiles({P1, P2}).take();
  EXPECT_EQ(Merged.TotalInstructions,
            P1.TotalInstructions + P2.TotalInstructions);

  Options Opts;
  SquashResult SR = squashProgram(Prog, Merged, Opts).take();
  ASSERT_FALSE(SR.Identity);

  // Differential check on an input neither profile saw: the squashed
  // program must agree with the baseline and hit the decompressor.
  std::vector<uint8_t> Eval = mixedBytes(80);
  Image Baseline = layoutProgram(Prog);
  Machine M(Baseline);
  M.setInput(Eval);
  RunResult Base = M.run();
  ASSERT_EQ(Base.Status, RunStatus::Halted);

  SquashedRun Run = runSquashed(SR.SP, Eval, RunBudget);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Run.ExitCode, Base.ExitCode);
  EXPECT_EQ(Run.Output, M.output());
  EXPECT_GE(Run.Runtime.Decompressions, 1u);
}

//===----------------------------------------------------------------------===//
// Trap-latency histograms
//===----------------------------------------------------------------------===//

TEST(Observability, TrapHistogramsMatchRunCounters) {
  Program Prog = streamProgram();
  Profile Prof = profileOn(Prog, lowBytes(64, 1));
  Options Opts;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity);
  SquashedRun Run = runSquashed(SR.SP, mixedBytes(64), RunBudget);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  const RuntimeSystem::Stats &St = Run.Runtime;
  ASSERT_GE(St.Decompressions, 1u);

  // One decode-cycle sample per region fill; one trap-cycle sample per
  // successful trap; the sums are real cycle charges, so the percentile
  // ladder must be ordered and bracketed by min/max.
  EXPECT_EQ(St.DecodeCycles.count(), St.Decompressions);
  EXPECT_GE(St.TrapCycles.count(), St.Decompressions);
  EXPECT_GT(St.TrapCycles.sum(), 0u);
  for (const vea::Histogram *H :
       {&St.TrapCycles, &St.DecodeCycles, &St.HitStreaks}) {
    uint64_t P50 = H->percentile(50), P99 = H->percentile(99);
    EXPECT_LE(H->min(), P50);
    EXPECT_LE(P50, P99);
    EXPECT_LE(P99, H->max());
  }
  // Every fill terminates one (possibly zero-length) hit streak.
  EXPECT_EQ(St.HitStreaks.count(), St.Decompressions);

  // exportMetrics republishes the histograms under the runtime prefix.
  MetricsRegistry Reg;
  St.exportMetrics(Reg, "runtime.");
  const Histogram *H = Reg.histogram("runtime.trap_cycles");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->count(), St.TrapCycles.count());
  EXPECT_EQ(H->sum(), St.TrapCycles.sum());
  EXPECT_TRUE(isValidJson(Reg.toJson()));
}

//===----------------------------------------------------------------------===//
// Drift monitor
//===----------------------------------------------------------------------===//

namespace {

struct DriftSetup {
  SquashResult SR;
  Profile Prof;
};

DriftSetup squashForDrift(const Program &Prog,
                          const std::vector<uint8_t> &TrainInput) {
  DriftSetup S;
  S.Prof = profileOn(Prog, TrainInput);
  Options Opts;
  S.SR = squashProgram(Prog, S.Prof, Opts).take();
  return S;
}

} // namespace

TEST(Drift, MatchedRunScoresZero) {
  Program Prog = streamProgram();
  std::vector<uint8_t> Train = lowBytes(64, 1);
  DriftSetup S = squashForDrift(Prog, Train);
  ASSERT_FALSE(S.SR.Identity);

  // Replaying the training input: every live entry was predicted, so the
  // one-sided excess score is exactly zero (see DriftMonitor.h).
  DriftMonitor Mon(S.SR.SP, S.Prof);
  SquashedRun Run = runSquashed(S.SR.SP, Train, RunBudget, 0, &Mon);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  DriftReport Rep = Mon.report();
  EXPECT_EQ(Rep.DriftScore, 0.0);
  EXPECT_EQ(Rep.RegionsTotal, static_cast<uint32_t>(S.SR.SP.Regions.size()));
  EXPECT_TRUE(Rep.MispredictedCold.empty());
}

TEST(Drift, CrossInputScoresPositive) {
  Program Prog = streamProgram();
  DriftSetup S = squashForDrift(Prog, lowBytes(64, 1));
  ASSERT_FALSE(S.SR.Identity);

  // mixedBytes drives >= 128 bytes through the "rare" function the
  // training profile called dead: its region's entries are pure excess.
  DriftMonitor Mon(S.SR.SP, S.Prof);
  SquashedRun Run =
      runSquashed(S.SR.SP, mixedBytes(64), RunBudget, 0, &Mon);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  DriftReport Rep = Mon.report();
  EXPECT_GT(Rep.DriftScore, 0.0);
  EXPECT_LE(Rep.DriftScore, 1.0);
  EXPECT_GE(Rep.LiveEntries, 1u);
  ASSERT_FALSE(Rep.MispredictedCold.empty());
  // Ranked hottest-first, and the hottest mispredicted region had little
  // or no predicted heat.
  for (size_t I = 1; I < Rep.MispredictedCold.size(); ++I)
    EXPECT_GE(Rep.MispredictedCold[I - 1].LiveEntries,
              Rep.MispredictedCold[I].LiveEntries);
}

TEST(Drift, NoTrapsMeansNoDrift) {
  Program Prog = streamProgram();
  DriftSetup S = squashForDrift(Prog, lowBytes(64, 1));
  ASSERT_FALSE(S.SR.Identity);
  DriftMonitor Mon(S.SR.SP, S.Prof);
  DriftReport Rep = Mon.report(); // No run at all: nothing observed.
  EXPECT_EQ(Rep.DriftScore, 0.0);
  EXPECT_EQ(Rep.TopKOverlap, 1.0);
  EXPECT_EQ(Rep.LiveEntries, 0u);
  EXPECT_EQ(Rep.RegionsTouched, 0u);
}

TEST(Drift, ReportJsonIsDeterministicAndComplete) {
  Program Prog = streamProgram();
  DriftSetup S = squashForDrift(Prog, lowBytes(64, 1));
  ASSERT_FALSE(S.SR.Identity);

  // Two monitors observing two identical runs must render byte-identical
  // JSON — the property that makes drift reports diffable across runs.
  DriftMonitor A(S.SR.SP, S.Prof), B(S.SR.SP, S.Prof);
  SquashedRun R1 =
      runSquashed(S.SR.SP, mixedBytes(64), RunBudget, 0, &A);
  SquashedRun R2 =
      runSquashed(S.SR.SP, mixedBytes(64), RunBudget, 0, &B);
  ASSERT_EQ(R1.Run.Status, RunStatus::Halted);
  ASSERT_EQ(R2.Run.Status, RunStatus::Halted);
  std::string J = A.reportJson();
  EXPECT_EQ(J, B.reportJson());
  EXPECT_TRUE(isValidJson(J)) << J;
  for (const char *Key :
       {"\"live_entries\":", "\"live_restores\":", "\"live_fills\":",
        "\"live_charged_cycles\":", "\"regions_total\":",
        "\"regions_touched\":", "\"drift_score\":", "\"top_k_overlap\":",
        "\"normalized_cross_entropy\":", "\"mispredicted_cold\":["})
    EXPECT_NE(J.find(Key), std::string::npos) << Key << " missing in " << J;

  // reset() forgets live heat: back to the no-traps report.
  A.reset();
  EXPECT_EQ(A.report().LiveEntries, 0u);
  EXPECT_EQ(A.report().DriftScore, 0.0);
}

TEST(Drift, ExportMetricsPublishesAllScalars) {
  Program Prog = streamProgram();
  DriftSetup S = squashForDrift(Prog, lowBytes(64, 1));
  ASSERT_FALSE(S.SR.Identity);
  DriftMonitor Mon(S.SR.SP, S.Prof);
  SquashedRun Run =
      runSquashed(S.SR.SP, mixedBytes(64), RunBudget, 0, &Mon);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted);
  DriftReport Rep = Mon.report();
  MetricsRegistry Reg;
  Rep.exportMetrics(Reg);
  for (const char *Key :
       {"drift.live_entries", "drift.live_restores", "drift.live_fills",
        "drift.live_charged_cycles", "drift.regions_total",
        "drift.regions_touched", "drift.mispredicted_cold", "drift.score",
        "drift.top_k_overlap", "drift.normalized_cross_entropy"})
    EXPECT_TRUE(Reg.has(Key)) << Key;
  EXPECT_EQ(Reg.counter("drift.live_entries"), Rep.LiveEntries);
  EXPECT_DOUBLE_EQ(Reg.gauge("drift.score"), Rep.DriftScore);
  EXPECT_TRUE(isValidJson(Reg.toJson()));
  // The same registry renders on the Prometheus surface too.
  EXPECT_NE(Reg.toPrometheus().find("# TYPE drift_score gauge"),
            std::string::npos);
}

TEST(Drift, LiveProfileMergesWithTraining) {
  Program Prog = streamProgram();
  DriftSetup S = squashForDrift(Prog, lowBytes(64, 1));
  ASSERT_FALSE(S.SR.Identity);
  DriftMonitor Mon(S.SR.SP, S.Prof);
  SquashedRun Run =
      runSquashed(S.SR.SP, mixedBytes(64), RunBudget, 0, &Mon);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted);

  Profile Live = Mon.liveProfile();
  ASSERT_EQ(Live.BlockCounts.size(), S.Prof.BlockCounts.size());
  EXPECT_GT(Live.TotalInstructions, 0u);

  // Weight scales every credited count (and survives the v1 text format).
  Profile Boosted = Mon.liveProfile(3.0);
  for (size_t I = 0; I != Live.BlockCounts.size(); ++I)
    EXPECT_EQ(Boosted.BlockCounts[I], 3 * Live.BlockCounts[I]) << I;

  // The exported profile is mergeable with its training profile and
  // round-trips through ProfileIO — the merge-and-re-squash input path.
  Profile Merged = mergeProfiles({S.Prof, Live}).take();
  EXPECT_EQ(Merged.TotalInstructions,
            S.Prof.TotalInstructions + Live.TotalInstructions);
  Expected<Profile> Back = parseProfile(serializeProfile(Live));
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back.get().BlockCounts, Live.BlockCounts);

  // Re-squashing under the merged profile keeps the program correct on
  // the drifted input.
  Options Opts;
  SquashResult SR2 = squashProgram(Prog, Merged, Opts).take();
  SquashedRun Run2 = runSquashed(SR2.SP, mixedBytes(64), RunBudget);
  ASSERT_EQ(Run2.Run.Status, RunStatus::Halted) << Run2.Run.FaultMessage;
  EXPECT_EQ(Run2.Run.ExitCode, Run.Run.ExitCode);
  EXPECT_EQ(Run2.Output, Run.Output);
}

//===----------------------------------------------------------------------===//
// Bench row shape (BENCH_drift.json producers)
//===----------------------------------------------------------------------===//

TEST(Drift, BenchRowShapeIsValidJson) {
  // Mirrors bench/stat_drift.cpp's per-workload row: three drift exports
  // under distinct prefixes plus the recovery counters. The bench and this
  // test share the exportMetrics surface, so a key drifting there breaks
  // here first.
  Program Prog = streamProgram();
  DriftSetup S = squashForDrift(Prog, lowBytes(64, 1));
  ASSERT_FALSE(S.SR.Identity);
  DriftMonitor Same(S.SR.SP, S.Prof), Cross(S.SR.SP, S.Prof);
  SquashedRun RunA =
      runSquashed(S.SR.SP, lowBytes(64, 1), RunBudget, 0, &Same);
  SquashedRun RunB =
      runSquashed(S.SR.SP, mixedBytes(64), RunBudget, 0, &Cross);
  ASSERT_EQ(RunA.Run.Status, RunStatus::Halted);
  ASSERT_EQ(RunB.Run.Status, RunStatus::Halted);

  MetricsRegistry Reg;
  Same.report().exportMetrics(Reg, "drift.same.");
  Cross.report().exportMetrics(Reg, "drift.cross.");
  Reg.setCounter("drift.trap_cycles_before", RunB.Runtime.TrapCycles.sum());
  Reg.setGauge("drift.live_weight", 1.0);
  Reg.setHistogram("drift.cross.trap_cycles_hist", RunB.Runtime.TrapCycles);

  std::string J = Reg.toJson();
  EXPECT_TRUE(isValidJson(J)) << J;
  for (const char *Key : {"drift.same.score", "drift.cross.score",
                          "drift.trap_cycles_before", "drift.live_weight",
                          "drift.cross.trap_cycles_hist"})
    EXPECT_TRUE(Reg.has(Key)) << Key;
  // The matched run scores zero, the drifted one doesn't — the structural
  // core of stat_drift's acceptance check.
  EXPECT_EQ(Reg.gauge("drift.same.score"), 0.0);
  EXPECT_GT(Reg.gauge("drift.cross.score"), 0.0);
}
