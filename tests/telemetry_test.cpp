//===- tests/telemetry_test.cpp - Span tracing / ledger / flight recorder -===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The telemetry PR's contracts (DESIGN.md §18):
//
//  - Span rings drop oldest-first with exact accounting, SpanScope parents
//    nest by the per-thread open stack, and cross-thread work is flow-
//    linked (prefetch launch -> worker -> consuming fill).
//  - The cycle-attribution ledger conserves on every run outcome — clean
//    halt, instruction-limit stop, and injected-fault runs.
//  - Tracing never perturbs the guest: byte-identical output, identical
//    cycle count.
//  - The flight recorder turns every non-OK Status / machine fault /
//    injected fault into a parseable postmortem dump that names the
//    faulting span.
//  - Metric names are validated (satellite: hygiene) and the Prometheus
//    exposition is structurally conformant (HELP before TYPE before
//    samples; +Inf bucket equals _count).
//  - While a reader thread drains the span tracer during decode-ahead
//    runs, the tracer and the per-run trace ring both reconcile exactly
//    (retained + dropped == total). That test is the runtime-tsan
//    preset's telemetry target.
//
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "link/Layout.h"
#include "squash/Driver.h"
#include "squash/FaultInjector.h"
#include "squash/Observability.h"
#include "squash/Telemetry.h"
#include "support/Span.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace vea;
using namespace squash;

namespace {

constexpr double Scale = 0.05;

/// Instruction budget for the fixture's uncapped runs: about ten times
/// the reference run, so a runtime regression that spins fails in well
/// under a second instead of at the default limit.
constexpr uint64_t RunBudget = 5'000'000;

/// Compacted adpcm workload squashed at a theta where the timing input
/// reaches compressed code, plus reference behaviour.
struct Fixture {
  workloads::Workload W;
  Profile Training;
  SquashResult SR;
  SquashedRun Base;
  /// A decode-ahead run's event trace: seeds the predictor of the runs
  /// that need the prefetch worker (runSeededDecodeAhead).
  std::vector<RuntimeSystem::Event> AheadTrace;

  Fixture() {
    W = workloads::buildAdpcm(Scale);
    compactProgram(W.Prog).take();
    Image Baseline = layoutProgram(W.Prog);
    Training = profileImage(Baseline, W.ProfilingInput).take();
    SR = squashProgram(W.Prog, Training, options()).take();
    EXPECT_FALSE(SR.Identity);
    Base = runSquashed(SR.SP, W.TimingInput, RunBudget);
    EXPECT_EQ(Base.Run.Status, RunStatus::Halted) << Base.Run.FaultMessage;
    SquashedProgram Ahead = SR.SP;
    Ahead.Opts.DecodeAhead = true;
    AheadTrace = runSquashed(Ahead, W.TimingInput, RunBudget,
                             RuntimeSystem::DefaultTraceCapacity)
                     .Trace;
  }

  static Options options() {
    Options Opts;
    Opts.Theta = 0.1;
    return Opts;
  }
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

/// Runs the fixture's image with decode-ahead on and its predictor seeded
/// from a prior run's trace, so predictions name regions before their
/// first fill and the prefetch worker decodes them. (An unseeded predictor
/// names only regions already filled, which the decode memo stages
/// without the worker.) A nonzero \p TraceCapacity returns the run's
/// trace ring as runSquashed would.
SquashedRun runSeededDecodeAhead(const Fixture &F, uint32_t TraceCapacity) {
  SquashedProgram SP = F.SR.SP;
  SP.Opts.DecodeAhead = true;
  Machine::Config Cfg;
  Cfg.MaxInstructions = RunBudget;
  Machine M(SP.Img, Cfg);
  RuntimeSystem RT(SP);
  if (TraceCapacity)
    RT.enableTrace(TraceCapacity);
  EXPECT_TRUE(RT.attach(M).ok());
  seedPredictorFromEvents(RT.predictor(), F.AheadTrace);
  M.setInput(F.W.TimingInput);
  SquashedRun Out;
  Out.Run = M.run();
  Out.Runtime = RT.stats();
  Out.Output = M.output();
  if (TraceCapacity) {
    Out.Trace = RT.events();
    Out.TraceDropped = RT.droppedEvents();
  }
  return Out;
}

/// RAII guard: every test starts from a clean tracer/recorder and leaves
/// both off, whatever the assertions do in between.
struct TelemetryGuard {
  TelemetryGuard(bool Trace, bool Record) {
    SpanTracer::instance().reset();
    SpanTracer::instance().setEnabled(Trace);
    FlightRecorder::instance().clear();
    if (Record)
      FlightRecorder::instance().arm();
  }
  ~TelemetryGuard() {
    SpanTracer::instance().setEnabled(false);
    SpanTracer::instance().reset();
    FlightRecorder::instance().disarm();
    FlightRecorder::instance().clear();
  }
};

/// Structural JSON check: quotes and braces/brackets balance (with escape
/// handling), so the document at least tokenizes as one object.
bool jsonBalanced(const std::string &S) {
  int Depth = 0;
  bool InString = false, Escaped = false;
  for (char C : S) {
    if (Escaped) {
      Escaped = false;
      continue;
    }
    if (InString) {
      if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      if (--Depth < 0)
        return false;
    }
  }
  return Depth == 0 && !InString;
}

const Span *findSpan(const std::vector<Span> &Spans, const char *Name,
                     size_t Skip = 0) {
  for (const Span &S : Spans)
    if (S.Name && std::string(S.Name) == Name && Skip-- == 0)
      return &S;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Span ring and scope mechanics
//===----------------------------------------------------------------------===//

TEST(SpanRing, DropsOldestWithExactAccounting) {
  TelemetryGuard G(true, false);
  SpanTracer &T = SpanTracer::instance();
  T.setRingCapacity(16);
  for (int I = 0; I != 40; ++I)
    SpanScope Sp("ring.fill", "test");
  EXPECT_EQ(T.totalEmitted(), 40u);
  EXPECT_EQ(T.totalDropped(), 24u);
  std::vector<Span> Spans = T.snapshot();
  EXPECT_EQ(Spans.size(), 16u);
  // Oldest-first drop: the retained window is the newest 16 spans, and the
  // snapshot is sorted by start time.
  for (size_t I = 1; I < Spans.size(); ++I)
    EXPECT_GE(Spans[I].StartNanos, Spans[I - 1].StartNanos);
  T.setRingCapacity(1024);
}

TEST(SpanScope, ParentsNestByTheOpenStack) {
  TelemetryGuard G(true, false);
  uint64_t OuterId = 0, InnerId = 0;
  {
    SpanScope Outer("outer", "test");
    OuterId = Outer.id();
    {
      SpanScope Inner("inner", "test");
      InnerId = Inner.id();
      EXPECT_EQ(SpanTracer::instance().currentSpan(), InnerId);
    }
    EXPECT_EQ(SpanTracer::instance().currentSpan(), OuterId);
  }
  std::vector<Span> Spans = SpanTracer::instance().snapshot();
  const Span *Outer = findSpan(Spans, "outer");
  const Span *Inner = findSpan(Spans, "inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Parent, 0u);
  EXPECT_EQ(Inner->Parent, OuterId);
  EXPECT_NE(OuterId, InnerId);
}

TEST(SpanScope, InertWhenTracingIsDisabled) {
  TelemetryGuard G(false, false);
  {
    SpanScope Sp("invisible", "test");
    EXPECT_FALSE(Sp.active());
    EXPECT_EQ(Sp.id(), 0u);
  }
  EXPECT_EQ(SpanTracer::instance().totalEmitted(), 0u);
  EXPECT_TRUE(SpanTracer::instance().snapshot().empty());
}

//===----------------------------------------------------------------------===//
// Guest invariance and the runtime's span shape
//===----------------------------------------------------------------------===//

TEST(Tracing, DoesNotPerturbTheGuest) {
  Fixture &F = fixture();
  TelemetryGuard G(true, false);
  SquashedRun Traced = runSquashed(F.SR.SP, F.W.TimingInput, RunBudget);
  EXPECT_EQ(Traced.Run.Status, F.Base.Run.Status);
  EXPECT_EQ(Traced.Run.ExitCode, F.Base.Run.ExitCode);
  EXPECT_EQ(Traced.Run.Cycles, F.Base.Run.Cycles);
  EXPECT_EQ(Traced.Run.Instructions, F.Base.Run.Instructions);
  EXPECT_EQ(Traced.Output, F.Base.Output);
}

TEST(Tracing, RuntimeSpansParentUnderTheRunRoot) {
  Fixture &F = fixture();
  TelemetryGuard G(true, false);
  SquashedRun Run = runSquashed(F.SR.SP, F.W.TimingInput, RunBudget);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted);
  std::vector<Span> Spans = SpanTracer::instance().snapshot();

  const Span *Root = findSpan(Spans, "run.squashed");
  const Span *Exec = findSpan(Spans, "machine.run");
  const Span *Fill = findSpan(Spans, "region.fill");
  const Span *Decode = findSpan(Spans, "huffman");
  ASSERT_NE(Root, nullptr);
  ASSERT_NE(Exec, nullptr);
  ASSERT_NE(Fill, nullptr);
  ASSERT_NE(Decode, nullptr) << "demand decode span missing";
  EXPECT_EQ(Exec->Parent, Root->Id);
  EXPECT_EQ(Decode->Parent, Fill->Id);
  // The exec span carries the run's cycle bounds; fills nest inside it in
  // simulated time.
  EXPECT_EQ(Exec->EndCycles, Run.Run.Cycles);
  EXPECT_LE(Exec->StartCycles, Fill->StartCycles);
  EXPECT_LE(Fill->EndCycles, Exec->EndCycles);

  // The Chrome export of this snapshot is balanced and names the spans.
  std::string Trace = exportSpansChromeTrace(Spans);
  EXPECT_TRUE(jsonBalanced(Trace));
  EXPECT_NE(Trace.find("\"region.fill\""), std::string::npos);
}

TEST(Tracing, PrefetchFlowLinksLaunchWorkerAndConsumingFill) {
  Fixture &F = fixture();
  TelemetryGuard G(true, false);
  SquashedRun Run = runSeededDecodeAhead(F, 0);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Output, F.Base.Output);
  ASSERT_GT(Run.Runtime.PrefetchLaunches, 0u)
      << "prefetcher never fired; the flow contract is untestable";

  std::vector<Span> Spans = SpanTracer::instance().snapshot();
  const Span *Work = findSpan(Spans, "prefetch.decode");
  ASSERT_NE(Work, nullptr) << "the seeded predictor never used the worker";
  ASSERT_NE(Work->FlowIn, 0u);
  // The worker span joins and re-emits its launch's flow id, on its own
  // thread.
  const Span *Launch = nullptr;
  for (const Span &S : Spans)
    if (S.Name && std::string(S.Name) == "prefetch.launch" &&
        S.FlowOut == Work->FlowIn)
      Launch = &S;
  ASSERT_NE(Launch, nullptr) << "no launch span opened the worker's flow";
  EXPECT_EQ(Work->FlowOut, Launch->FlowOut);
  EXPECT_NE(Work->ThreadId, Launch->ThreadId);
  if (Run.Runtime.PrefetchHits > 0) {
    const Span *Consume = nullptr;
    for (const Span &S : Spans)
      if (S.Name && std::string(S.Name) == "prefetch.consume" && S.FlowIn != 0)
        Consume = &S;
    ASSERT_NE(Consume, nullptr);
    EXPECT_EQ(Consume->ThreadId, Launch->ThreadId);
  }
}

//===----------------------------------------------------------------------===//
// Cycle-attribution ledger
//===----------------------------------------------------------------------===//

TEST(Ledger, ConservesOnCleanHalt) {
  Fixture &F = fixture();
  CycleLedger L = buildCycleLedger(F.Base);
  EXPECT_TRUE(L.conserves())
      << "attributed " << L.attributed() << " of " << L.Total;
  EXPECT_EQ(L.Total, F.Base.Run.Cycles);
  EXPECT_EQ(L.GuestExecute, F.Base.Run.Instructions);
  EXPECT_GT(L.TrapSetup, 0u);
  EXPECT_GT(L.DecodeByCodec[0], 0u);
  EXPECT_EQ(L.WastedPrefetchCycles, 0u);

  // The report and the metrics surface agree with the struct.
  std::string Report = renderAttributionReport(L, "adpcm");
  EXPECT_NE(Report.find("conserved"), std::string::npos);
  EXPECT_EQ(Report.find("NOT CONSERVED"), std::string::npos);
  MetricsRegistry Reg;
  exportLedgerMetrics(Reg, L);
  EXPECT_EQ(Reg.counter("ledger.total_cycles"), L.Total);
  EXPECT_EQ(Reg.counter("ledger.conserved"), 1u);
}

TEST(Ledger, ConservesOnInstructionLimitStops) {
  Fixture &F = fixture();
  // Sweep limits across the run so the stop lands at many different points
  // of the trap sequence (between setup and decode charges included).
  for (uint64_t Limit : {uint64_t(1), uint64_t(64), uint64_t(4096),
                         F.Base.Run.Instructions / 3,
                         F.Base.Run.Instructions / 2 + 7}) {
    SquashedRun Run = runSquashed(F.SR.SP, F.W.TimingInput, Limit);
    CycleLedger L = buildCycleLedger(Run);
    EXPECT_TRUE(L.conserves())
        << "limit " << Limit << ": attributed " << L.attributed() << " of "
        << L.Total;
  }
}

TEST(Ledger, ConservesOnInjectedFaultRuns) {
  Fixture &F = fixture();
  const std::vector<FaultKind> Kinds = {
      FaultKind::BlobBitFlip, FaultKind::OffsetTableEntry,
      FaultKind::StubSlotWord, FaultKind::EntryStubTag,
      FaultKind::BlobTruncate};
  unsigned Faulted = 0;
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    SquashedProgram SP = F.SR.SP;
    SP.Opts.ChecksumAtAttach = false; // Let faults reach the runtime.
    FaultInjector FI(1 + Seed * 2654435761ull);
    ASSERT_TRUE(FI.injectAny(SP, Kinds).has_value());
    SquashedRun Run =
        runSquashed(SP, F.W.TimingInput, 4 * F.Base.Run.Instructions);
    CycleLedger L = buildCycleLedger(Run);
    EXPECT_TRUE(L.conserves())
        << "seed " << Seed << ": attributed " << L.attributed() << " of "
        << L.Total;
    Faulted += Run.Run.Status == RunStatus::Fault;
  }
  EXPECT_GT(Faulted, 0u) << "no run faulted; the fault outcome is untested";
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, StatusErrorTriggersWithTheLiveSpanStack) {
  TelemetryGuard G(true, true);
  {
    SpanScope Sp("suspect.work", "test");
    (void)Status::error(StatusCode::CorruptBlob, "telemetry-test detail");
  }
  FlightRecorder &FR = FlightRecorder::instance();
  EXPECT_EQ(FR.triggerCount(), 1u);
  std::string Dump = FR.dumpJson();
  EXPECT_TRUE(jsonBalanced(Dump));
  EXPECT_NE(Dump.find("\"source\":\"status\""), std::string::npos);
  EXPECT_NE(Dump.find("telemetry-test detail"), std::string::npos);
  // The trigger captured the span that was open when the error formed.
  EXPECT_NE(Dump.find("suspect.work"), std::string::npos);
}

TEST(FlightRecorder, DisarmedRecorderIgnoresErrors) {
  TelemetryGuard G(false, false);
  (void)Status::error(StatusCode::CorruptBlob, "ignored");
  EXPECT_EQ(FlightRecorder::instance().triggerCount(), 0u);
}

TEST(FlightRecorder, InjectedFaultYieldsParseableDumpNamingTheFault) {
  Fixture &F = fixture();
  const std::vector<FaultKind> Kinds = {FaultKind::BlobBitFlip,
                                        FaultKind::OffsetTableEntry,
                                        FaultKind::BlobTruncate};
  unsigned MachineFaults = 0;
  for (uint64_t Seed = 0; Seed != 16; ++Seed) {
    TelemetryGuard G(true, true);
    SquashedProgram SP = F.SR.SP;
    SP.Opts.ChecksumAtAttach = false;
    FaultInjector FI(7 + Seed * 2654435761ull);
    ASSERT_TRUE(FI.injectAny(SP, Kinds).has_value());
    // Injection itself is a trigger: the dump must name the injection even
    // if the run later masks the fault.
    ASSERT_GE(FlightRecorder::instance().triggerCount(), 1u);

    SquashedRun Run =
        runSquashed(SP, F.W.TimingInput, 4 * F.Base.Run.Instructions);
    std::string Dump = FlightRecorder::instance().dumpJson();
    ASSERT_TRUE(jsonBalanced(Dump)) << "seed " << Seed;
    EXPECT_NE(Dump.find("\"source\":\"fault-injector\""), std::string::npos);
    // The faulting span: fault.inject is emitted around every injection.
    EXPECT_NE(Dump.find("\"fault.inject\""), std::string::npos);
    if (Run.Run.Status == RunStatus::Fault) {
      ++MachineFaults;
      // A detected fault triggers either as a machine fault (runtime
      // integrity check fired mid-run) or as a non-OK Status (attach-time
      // validation refused the image before execution).
      const bool Machine =
          Dump.find("\"source\":\"machine\"") != std::string::npos;
      const bool StatusErr =
          Dump.find("\"source\":\"status\"") != std::string::npos;
      EXPECT_TRUE(Machine || StatusErr)
          << "seed " << Seed << ": detected fault left no trigger";
    }
  }
  EXPECT_GT(MachineFaults, 0u) << "no run faulted; dump contract untested";
}

//===----------------------------------------------------------------------===//
// Satellite: metric name hygiene
//===----------------------------------------------------------------------===//

TEST(MetricNames, InvalidNamesAreRejectedNotSanitized) {
  EXPECT_TRUE(validMetricName("run.cycles"));
  EXPECT_TRUE(validMetricName("ledger.decode_cycles_huffman"));
  EXPECT_TRUE(validMetricName("spaces are fine"));
  EXPECT_FALSE(validMetricName(""));
  EXPECT_FALSE(validMetricName("a\nb"));
  EXPECT_FALSE(validMetricName("a\tb"));
  EXPECT_FALSE(validMetricName(std::string("a\0b", 3)));
  EXPECT_FALSE(validMetricName("quote\"name"));
  EXPECT_FALSE(validMetricName("back\\slash"));
  EXPECT_FALSE(validMetricName("del\x7f"));

  MetricsRegistry R;
  EXPECT_FALSE(R.setCounter("a\nb", 1));
  EXPECT_FALSE(R.addCounter("a\nb", 1));
  EXPECT_FALSE(R.setGauge("c\"d", 1.0));
  EXPECT_FALSE(R.setHistogram("e\\f", Histogram()));
  EXPECT_TRUE(R.empty()) << "a rejected name must not create an entry";
  EXPECT_FALSE(R.has("a\nb"));
  // Distinct invalid names never alias a legitimate one: "a\nb" being
  // rejected leaves "a_b" free and independent.
  EXPECT_TRUE(R.setCounter("a_b", 7));
  EXPECT_EQ(R.counter("a_b"), 7u);
  EXPECT_EQ(R.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Satellite: Prometheus exposition conformance
//===----------------------------------------------------------------------===//

TEST(Prometheus, ExpositionIsStructurallyConformant) {
  MetricsRegistry R;
  R.setCounter("run.traps", 3);
  R.setGauge("drift.score", 0.25);
  Histogram H;
  H.record(3);
  H.record(100);
  H.record(100000);
  R.setHistogram("trap.cycles", H);

  std::string Out = R.toPrometheus();

  // Per metric: HELP, then TYPE, then samples — in that order.
  for (const char *Name : {"run_traps", "drift_score", "trap_cycles"}) {
    std::string N = Name;
    size_t Help = Out.find("# HELP " + N + " ");
    size_t Type = Out.find("# TYPE " + N + " ");
    size_t Sample = Out.find("\n" + N);
    ASSERT_NE(Help, std::string::npos) << N;
    ASSERT_NE(Type, std::string::npos) << N;
    ASSERT_NE(Sample, std::string::npos) << N;
    EXPECT_LT(Help, Type) << N;
    EXPECT_LT(Type, Sample) << N;
  }
  // The HELP docstring preserves the original dotted name.
  EXPECT_NE(Out.find("# HELP run_traps squash metric run.traps\n"),
            std::string::npos);

  // Histogram: cumulative buckets, a +Inf bucket equal to _count, and
  // _sum/_count samples.
  EXPECT_NE(Out.find("trap_cycles_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Out.find("trap_cycles_count 3\n"), std::string::npos);
  EXPECT_NE(Out.find("trap_cycles_sum 100103\n"), std::string::npos);

  // Every line is a comment or a sample; no blank or malformed lines.
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t Eol = Out.find('\n', Pos);
    ASSERT_NE(Eol, std::string::npos) << "unterminated final line";
    std::string Line = Out.substr(Pos, Eol - Pos);
    ASSERT_FALSE(Line.empty());
    if (Line[0] != '#') {
      EXPECT_NE(Line.find(' '), std::string::npos)
          << "sample line lacks a value: " << Line;
    }
    Pos = Eol + 1;
  }

  // An empty registry exposes an empty document.
  EXPECT_EQ(MetricsRegistry().toPrometheus(), "");
}

//===----------------------------------------------------------------------===//
// Ring-drain reconciliation under a concurrent reader
//===----------------------------------------------------------------------===//

TEST(TelemetryDecodeAhead, RingsReconcileUnderConcurrentDrain) {
  Fixture &F = fixture();
  TelemetryGuard G(true, false);
  SpanTracer::instance().setRingCapacity(256); // Small: force span drops too.

  // Concurrent drain: one thread reads the tracer while the trap thread and
  // the prefetch worker both write spans. TSan checks this.
  std::atomic<bool> Stop{false};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      (void)SpanTracer::instance().snapshot();
      (void)SpanTracer::instance().totalDropped();
    }
  });

  for (int I = 0; I != 4; ++I) {
    SquashedRun Run = runSeededDecodeAhead(F, 32); // Tiny run-trace ring.
    ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
    EXPECT_EQ(Run.Output, F.Base.Output);
    // Per-run trace-ring reconciliation: the ring is bounded, dropped is
    // exact, and retained events are the newest, in cycle order.
    EXPECT_LE(Run.Trace.size(), 32u);
    EXPECT_GT(Run.TraceDropped, 0u)
        << "the tiny trace ring never overflowed; drop accounting untested";
    if (Run.TraceDropped > 0) {
      EXPECT_EQ(Run.Trace.size(), 32u)
          << "events dropped while the ring had room";
    }
    for (size_t E = 1; E < Run.Trace.size(); ++E)
      EXPECT_GE(Run.Trace[E].Cycle, Run.Trace[E - 1].Cycle);
  }

  Stop.store(true, std::memory_order_release);
  Reader.join();

  // The worker really was a second writer.
  std::vector<Span> Spans = SpanTracer::instance().snapshot();
  EXPECT_NE(findSpan(Spans, "prefetch.decode"), nullptr)
      << "no worker span: the drain never raced a second writer";
  // Tracer-side accounting stayed coherent under the concurrent reader.
  EXPECT_EQ(SpanTracer::instance().totalEmitted(),
            Spans.size() + SpanTracer::instance().totalDropped());
  SpanTracer::instance().setRingCapacity(1024);
}
