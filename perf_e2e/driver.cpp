//===- perf_e2e/driver.cpp - End-to-end benchmark measurement driver ------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the end-to-end benchmark; perf_e2e/run.py builds
/// it, runs it and turns its raw records into metrics. The driver measures
/// from outside: it links the squash libraries and times calls into their
/// public entry points only.
///
/// Set-up builds the suite (buildAllWorkloads), then per program compacts
/// (compactProgram), links (layoutProgram) and profiles (profileImage), and
/// on the run workloads squashes once (squashProgram). The timed ops are
/// closed-loop, one caller, the next op issued when the previous returns:
///
///   run workloads   : runSquashed(image, timing input), attach included
///   squash-compile  : squashProgram(program, profile)
///
/// One pass is one op per program, in an order drawn from --seed. Passes
/// repeat until they have taken --seconds; untraced, the set-up is repeated
/// at even intervals among them. A fixed reference kernel is timed before
/// each op (see referenceKernelSeconds).
///
/// Every op is checked. A run must halt with the exit code and output
/// CRC32 that the unsquashed baseline produced (the committed expected
/// file). A squash must succeed, produce the same image every time, and
/// that image must run correctly once per invocation.
///
/// With --trace 1 the span tracer is on for every other pass (the passes
/// between are the untraced reference for the tracing overhead). Each
/// traced unit starts from freshly reset span rings, so no unit can lose a
/// span to ring wrap-around, and its spans are folded into self time per
/// span name. The part of the unit's measured wall that no span covers is
/// reported as unattributed rather than dropped.
///
/// Output: one JSON document on stdout, {"records": [...], ...}; all
/// statistics are computed by run.py.
///
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "huff/Codec.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "squash/Driver.h"
#include "squash/Telemetry.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "support/Span.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace vea;
using namespace squash;

namespace {

/// Per-thread span ring size for traced units. The largest unit (a
/// trap-heavy run) emits about 3 spans per region fill; this leaves a wide
/// margin, and a unit that still overflows fails the run (trace.dropped).
constexpr size_t SpanRingCapacity = size_t(1) << 19;

/// Set-ups per untraced invocation. They are spread evenly over the timed
/// passes, because slow phases of a shared host last seconds; run.py
/// reports their median as setup_s.
constexpr unsigned UntracedSetups = 5;

/// One benchmark workload: which programs, and how they are squashed.
struct WorkloadSpec {
  const char *Name;
  double Theta;
  const char *Codec;
  bool ProfileLayout;
  bool SquashOps; ///< Ops are squashProgram calls (else runSquashed).
  std::vector<std::string> Programs; ///< Empty = all eleven.
};

const std::vector<WorkloadSpec> &workloadSpecs() {
  static const std::vector<WorkloadSpec> Specs = {
      // The paper's headline configuration: theta-mid, Huffman, one buffer.
      {"suite-paper", 0.01, "huffman", false, false, {}},
      // theta = 0.1 compresses per-frame code in these six, so their runs
      // re-decompress on the order of 1e5 times per pass.
      {"trap-heavy", 0.1, "huffman", false, false,
       {"gsm", "jpeg_dec", "jpeg_enc", "mpeg2enc", "pgp", "rasta"}},
      // The offline compressor alone, with every codec and layout on.
      {"squash-compile", 0.01, "auto", true, true, {}},
  };
  return Specs;
}

/// Baseline behaviour of one program on its timing input.
struct ExpectedRow {
  uint32_t Exit = 0;
  uint32_t Crc = 0;
  uint64_t Instrs = 0;
  uint64_t Cycles = 0;
};

/// One measured call (or one pass-level check) in the output.
struct Record {
  Record(std::string Kind, std::string Program, std::string Group,
         bool Op = false)
      : Kind(std::move(Kind)), Program(std::move(Program)),
        Group(std::move(Group)), Op(Op) {}

  std::string Kind;    ///< setup | setup_total | run | squash | baseline.
  std::string Program; ///< Empty for suite-wide set-up steps.
  std::string Group;   ///< setup<k> | pass<k> | verify | baseline.
  bool Op = false;     ///< A timed op of this workload.
  bool Traced = false;
  bool Ok = true;
  std::string Error;
  std::vector<std::pair<std::string, double>> Values;

  /// Adds \p Value to \p Key (a record may span several measured units).
  void add(const std::string &Key, double Value) {
    for (auto &KV : Values)
      if (KV.first == Key) {
        KV.second += Value;
        return;
      }
    Values.emplace_back(Key, Value);
  }
  void fail(const std::string &Why) {
    if (Ok)
      Error = Why;
    Ok = false;
  }
};

struct Prepared {
  workloads::Workload W;
  Image Baseline;
  Profile Prof;
  std::optional<SquashResult> Squashed; ///< Set-up squash (run workloads).
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Folds the spans of one traced unit into \p R: self and total seconds per
/// span name (every codec's decode span counts as "decode") and the part of
/// \p Wall that no span's self time covers.
void foldSpans(Record &R, const std::vector<Span> &Spans, uint64_t Dropped,
               double Wall) {
  std::unordered_map<uint64_t, uint64_t> ChildNanos;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNanos[S.Parent] += S.EndNanos - S.StartNanos;
  std::map<std::string, std::pair<double, double>> ByName; // self, total
  double Attributed = 0.0;
  for (const Span &S : Spans) {
    if (std::strcmp(S.Category, "bench.ring") == 0)
      continue;
    const uint64_t Dur = S.EndNanos - S.StartNanos;
    auto It = ChildNanos.find(S.Id);
    const uint64_t Children = It == ChildNanos.end() ? 0 : It->second;
    const double Self = (Dur > Children ? Dur - Children : 0) * 1e-9;
    auto &Slot = ByName[std::strcmp(S.Category, "decode") == 0 ? "decode"
                                                               : S.Name];
    Slot.first += Self;
    Slot.second += Dur * 1e-9;
    Attributed += Self;
  }
  for (const auto &[Name, Times] : ByName) {
    R.add("trace." + Name + ".self_s", Times.first);
    R.add("trace." + Name + ".total_s", Times.second);
  }
  R.add("trace.unattributed_s", Wall - Attributed);
  R.add("trace.dropped", static_cast<double>(Dropped));
}

/// Keeps the reference kernel's result observable.
volatile uint32_t ReferenceSink;

/// Seconds taken by the reference kernel: a fixed, compute-bound loop of
/// table lookups and data-dependent branches (an interpreter's dispatch in
/// miniature), 13-20 ms on a 4-vCPU Intel Xeon virtual machine. It is timed
/// just before every op, so run.py can state op time in multiples of it: a
/// shared host that slows the whole process slows both alike, while a
/// change to squash moves only the op. It is benchmark code, so no change
/// to squash can move it.
double referenceKernelSeconds() {
  static std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(1 << 14);
    Rng G(7);
    for (uint32_t &V : T)
      V = static_cast<uint32_t>(G.next());
    return T;
  }();
  const uint64_t Start = monotonicNanos();
  uint64_t X = 1;
  uint32_t Acc = 0;
  for (unsigned I = 0; I != 2'000'000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t V = Table[(X >> 40) & 16383];
    Acc = V & 1 ? Acc + V : Acc ^ (V >> 3);
    Table[(X >> 20) & 16383] = Acc;
  }
  ReferenceSink = Acc;
  return (monotonicNanos() - Start) * 1e-9;
}

/// Runs \p F as one measured unit and records its wall seconds under
/// \p WallKey. A traced unit first resets the span rings and opens this
/// thread's fresh ring with a marker span, so ring allocation stays outside
/// the timed interval.
template <typename Fn>
void measure(Record &R, const char *WallKey, bool Traced, Fn &&F) {
  SpanTracer &T = SpanTracer::instance();
  R.Traced = Traced;
  if (Traced) {
    T.reset();
    T.setEnabled(true);
    SpanScope Marker("bench.ring", "bench.ring");
  }
  const uint64_t Start = monotonicNanos();
  F();
  const double Wall = (monotonicNanos() - Start) * 1e-9;
  T.setEnabled(false);
  R.add(WallKey, Wall);
  if (Traced)
    foldSpans(R, T.snapshot(), T.totalDropped(), Wall);
}

/// Squashes \p P into \p Out, recording the call's wall time, the pass
/// trace, encode time, per-codec region counts and the footprint split.
void squashInto(Record &R, const Prepared &P, const Options &Opts, bool Traced,
                std::optional<SquashResult> &Out) {
  Program Copy = P.W.Prog; // squashProgram takes the program by value.
  std::optional<Expected<SquashResult>> SR;
  measure(R, "wall_s", Traced,
          [&] { SR.emplace(squashProgram(std::move(Copy), P.Prof, Opts)); });
  if (!SR->ok()) {
    R.fail("squashProgram: " + SR->status().toString());
    return;
  }
  Out = SR->take();
  for (const PassTraceEntry &E : Out->PassTrace)
    R.add("pass." + E.Name + "_s", E.Seconds);
  R.add("huff.encode_s", Out->Stats.EncodeSeconds);
  const SquashedProgram &SP = Out->SP;
  std::array<double, NumCodecKinds> ByCodec = {};
  for (size_t I = 0; I != SP.Regions.size(); ++I)
    ByCodec[static_cast<unsigned>(SP.regionCodec(I))] += 1;
  for (unsigned K = 0; K != NumCodecKinds; ++K)
    R.add(std::string("codec.regions.") +
              codecKindName(static_cast<CodecKind>(K)),
          ByCodec[K]);
  const FootprintBreakdown &F = SP.Footprint;
  R.add("size.never_compressed_bytes", 4.0 * F.NeverCompressedWords);
  R.add("size.compressed_bytes", F.CompressedBytes);
  R.add("size.runtime_bytes",
        4.0 * (F.EntryStubWords + F.DecompressorWords + F.OffsetTableWords +
               F.StubAreaWords + F.SlotMapWords + F.BufferWords));
  R.add("footprint_bytes", F.totalCodeBytes());
  R.add("original_code_bytes", F.OriginalCodeBytes);
  R.add("image_crc", crc32(SP.Img.Bytes.data(), SP.Img.Bytes.size()));
}

/// Builds, compacts, links and profiles the workload's programs (and, on
/// run workloads, squashes them), appending one record per layer call and
/// one "setup" total. Returns the programs in suite order.
std::vector<Prepared> setUp(const WorkloadSpec &Spec, const Options &Opts,
                            const std::string &Group, bool Traced,
                            std::vector<Record> &Out) {
  const uint64_t Start = monotonicNanos();
  std::vector<Prepared> Progs;

  Record Build{"setup", "", Group};
  std::vector<workloads::Workload> All;
  measure(Build, "workloads.build_s", Traced, [&] {
    SpanScope Sp("workloads.build", "bench");
    All = workloads::buildAllWorkloads();
  });
  Out.push_back(std::move(Build));
  for (auto &W : All) {
    if (!Spec.Programs.empty() &&
        std::find(Spec.Programs.begin(), Spec.Programs.end(), W.Name) ==
            Spec.Programs.end())
      continue;
    Prepared P;
    P.W = std::move(W);
    Progs.push_back(std::move(P));
  }

  for (Prepared &P : Progs) {
    Record R{"setup", P.W.Name, Group};
    std::optional<Expected<CompactStats>> CS;
    measure(R, "compact.s", Traced, [&] {
      SpanScope Sp("compact", "bench");
      CS.emplace(compactProgram(P.W.Prog));
    });
    if (!CS->ok()) {
      R.fail("compactProgram: " + CS->status().toString());
      Out.push_back(std::move(R));
      continue;
    }
    R.add("compact.input_instrs", static_cast<double>((*CS)->InputInstructions));
    R.add("compact.output_instrs",
          static_cast<double>((*CS)->OutputInstructions));

    measure(R, "link.layout_s", Traced, [&] {
      SpanScope Sp("link.layout", "bench");
      P.Baseline = layoutProgram(P.W.Prog);
    });

    std::optional<Expected<Profile>> Prof;
    measure(R, "sim.profile_s", Traced, [&] {
      SpanScope Sp("sim.profile", "bench");
      Prof.emplace(profileImage(P.Baseline, P.W.ProfilingInput));
    });
    if (!Prof->ok()) {
      R.fail("profileImage: " + Prof->status().toString());
      Out.push_back(std::move(R));
      continue;
    }
    P.Prof = Prof->take();
    Out.push_back(std::move(R));
  }

  if (!Spec.SquashOps) {
    for (Prepared &P : Progs) {
      Record R{"squash", P.W.Name, Group};
      squashInto(R, P, Opts, Traced, P.Squashed);
      Out.push_back(std::move(R));
    }
  }

  Record Total{"setup_total", "", Group};
  Total.add("setup_s", (monotonicNanos() - Start) * 1e-9);
  Out.push_back(std::move(Total));
  return Progs;
}

/// Runs the squashed image \p SP of \p P on its timing input and checks the
/// outcome against \p E.
Record runOp(const Prepared &P, const SquashedProgram &SP,
             const ExpectedRow &E, const std::string &Group, bool Op,
             bool Traced) {
  Record R{"run", P.W.Name, Group, Op};
  SquashedRun Run;
  measure(R, "wall_s", Traced, [&] { Run = runSquashed(SP, P.W.TimingInput); });
  const uint32_t Crc = crc32(Run.Output.data(), Run.Output.size());
  if (Run.Run.Status != RunStatus::Halted)
    R.fail("did not halt: " + Run.Run.FaultMessage);
  else if (Run.Run.ExitCode != E.Exit || Crc != E.Crc)
    R.fail("output differs from the expected file");
  const CycleLedger L = buildCycleLedger(Run);
  if (!L.conserves())
    R.fail("cycle ledger does not conserve");

  const RuntimeSystem::Stats &S = Run.Runtime;
  R.add("instrs", static_cast<double>(Run.Run.Instructions));
  R.add("cycles", static_cast<double>(Run.Run.Cycles));
  R.add("base_cycles", static_cast<double>(E.Cycles));
  R.add("runtime.fills", static_cast<double>(S.Decompressions));
  R.add("runtime.requests",
        static_cast<double>(S.Decompressions + S.BufferedHits));
  R.add("runtime.hits", static_cast<double>(S.BufferedHits));
  R.add("runtime.traps",
        static_cast<double>(S.EntryStubCalls + S.RestoreStubCalls +
                            S.StubCreates + S.StubReuses));
  R.add("runtime.decoded_instrs", static_cast<double>(S.DecodedInstructions));
  R.add("runtime.stub_creates", static_cast<double>(S.StubCreates));
  R.add("huff.decode_s", S.HostDecodeNanos * 1e-9);
  R.add("huff.table_build_s", S.FastTableBuildNanos * 1e-9);
  uint64_t Decode = 0;
  for (uint64_t D : L.DecodeByCodec)
    Decode += D;
  R.add("cycles.guest", static_cast<double>(L.GuestExecute));
  R.add("cycles.trap_setup", static_cast<double>(L.TrapSetup));
  R.add("cycles.decode", static_cast<double>(Decode));
  R.add("cycles.icache_flush", static_cast<double>(L.IcacheFlush));
  R.add("cycles.restore_stub", static_cast<double>(L.RestoreStub));
  return R;
}

/// Runs the unsquashed baseline of \p P on its timing input.
RunResult runBaseline(const Prepared &P, std::vector<uint8_t> &Output) {
  Machine M(P.Baseline);
  M.setInput(P.W.TimingInput);
  RunResult RR = M.run();
  Output = M.output();
  return RR;
}

using ExpectedTable = std::map<std::string, ExpectedRow>;

/// Parses the expected-output file: "program exit crc instrs cycles" per
/// line, '#' comments.
bool loadExpected(const std::string &Path, ExpectedTable &Out,
                  std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read expected outputs " + Path;
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Program, Crc;
    ExpectedRow Row;
    if (!(SS >> Program >> Row.Exit >> Crc >> Row.Instrs >> Row.Cycles)) {
      Err = Path + ":" + std::to_string(LineNo) + ": malformed row";
      return false;
    }
    Row.Crc = static_cast<uint32_t>(std::strtoul(Crc.c_str(), nullptr, 16));
    Out[Program] = Row;
  }
  return true;
}

/// Prints the expected-output file from the unsquashed baseline
/// interpreter (never from a squashed image): one row per program.
int generateExpected() {
  std::printf("# Expected outputs of every program on its timing input, from "
              "the unsquashed\n# baseline interpreter. Regenerate with: "
              "python3 perf_e2e/run.py --generate-expected\n"
              "# program exit_code output_crc32 instructions cycles\n");
  for (auto &W : workloads::buildAllWorkloads()) {
    Prepared P;
    P.W = std::move(W);
    compactProgram(P.W.Prog).take();
    P.Baseline = layoutProgram(P.W.Prog);
    std::vector<uint8_t> Output;
    RunResult RR = runBaseline(P, Output);
    if (RR.Status != RunStatus::Halted) {
      std::fprintf(stderr, "perf_e2e: baseline %s did not halt: %s\n",
                   P.W.Name.c_str(), RR.FaultMessage.c_str());
      return 1;
    }
    std::printf("%s %u %08x %llu %llu\n", P.W.Name.c_str(), RR.ExitCode,
                crc32(Output.data(), Output.size()),
                static_cast<unsigned long long>(RR.Instructions),
                static_cast<unsigned long long>(RR.Cycles));
  }
  return 0;
}

struct RunArgs {
  std::string Workload, Expected;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
};

int runBenchmark(const RunArgs &A) {
  const WorkloadSpec *Spec = nullptr;
  for (const WorkloadSpec &S : workloadSpecs())
    if (A.Workload == S.Name)
      Spec = &S;
  if (!Spec) {
    std::fprintf(stderr, "perf_e2e: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  ExpectedTable Expected;
  std::string Err;
  if (!loadExpected(A.Expected, Expected, Err)) {
    std::fprintf(stderr, "perf_e2e: %s\n", Err.c_str());
    return 2;
  }

  Options Opts;
  Opts.Theta = Spec->Theta;
  Opts.Codec = Spec->Codec;
  Opts.ProfileLayout = Spec->ProfileLayout;
  SpanTracer::instance().setRingCapacity(SpanRingCapacity);

  std::vector<Record> Records;
  std::vector<Prepared> Progs;
  const unsigned Setups = A.Trace ? 1 : UntracedSetups;
  unsigned SetupsDone = 0;
  auto setUpNext = [&] {
    Progs.clear(); // Free the previous set-up before building the next.
    Progs = setUp(*Spec, Opts, "setup" + std::to_string(SetupsDone++),
                  A.Trace, Records);
  };
  setUpNext();

  std::vector<const ExpectedRow *> Rows;
  for (const Prepared &P : Progs) {
    auto It = Expected.find(P.W.Name);
    if (It == Expected.end()) {
      std::fprintf(stderr, "perf_e2e: %s has no expected row for %s\n",
                   A.Expected.c_str(), P.W.Name.c_str());
      return 2;
    }
    Rows.push_back(&It->second);
  }

  // The traced invocation also re-derives the expected file's baseline
  // numbers (instructions and cycles included) and times the interpreter
  // on the unsquashed image.
  if (A.Trace) {
    for (size_t I = 0; I != Progs.size(); ++I) {
      Record R{"baseline", Progs[I].W.Name, "baseline"};
      std::vector<uint8_t> Output;
      RunResult RR;
      measure(R, "wall_s", false,
              [&] { RR = runBaseline(Progs[I], Output); });
      const ExpectedRow &E = *Rows[I];
      if (RR.Status != RunStatus::Halted || RR.ExitCode != E.Exit ||
          crc32(Output.data(), Output.size()) != E.Crc ||
          RR.Instructions != E.Instrs || RR.Cycles != E.Cycles)
        R.fail("baseline run differs from the expected file");
      R.add("instrs", static_cast<double>(RR.Instructions));
      Records.push_back(std::move(R));
    }
  }

  // Timed passes. With tracing, odd passes are traced and even passes are
  // the untraced reference; stopping only after a traced pass keeps the
  // two counts equal.
  Rng Gen(A.Seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<size_t> Order(Progs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::vector<std::optional<SquashResult>> Latest(Progs.size());
  double PassSeconds = 0.0;
  for (unsigned Pass = 0;; ++Pass) {
    // Set-up k is due once k/Setups of the pass time has gone by.
    while (SetupsDone < Setups &&
           PassSeconds >= A.Seconds * SetupsDone / Setups)
      setUpNext();
    const uint64_t PassStart = monotonicNanos();
    const bool Traced = A.Trace && Pass % 2 == 1;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Gen.nextBelow(I)]);
    const std::string Group = "pass" + std::to_string(Pass);
    for (size_t I : Order) {
      const Prepared &P = Progs[I];
      const double Reference = referenceKernelSeconds();
      if (Spec->SquashOps) {
        Record R{"squash", P.W.Name, Group, true};
        squashInto(R, P, Opts, Traced, Latest[I]);
        R.add("reference_s", Reference);
        Records.push_back(std::move(R));
      } else if (!P.Squashed) {
        Record R{"run", P.W.Name, Group, true};
        R.fail("set-up squash failed");
        Records.push_back(std::move(R));
      } else {
        Records.push_back(
            runOp(P, P.Squashed->SP, *Rows[I], Group, true, Traced));
        Records.back().add("reference_s", Reference);
      }
    }
    PassSeconds += (monotonicNanos() - PassStart) * 1e-9;
    if (PassSeconds >= A.Seconds && (!A.Trace || Traced))
      break;
  }
  while (SetupsDone < Setups)
    setUpNext();

  // squash-compile: run every image it produced, once, against the same
  // expected outputs (traced along with the rest of a traced invocation).
  if (Spec->SquashOps)
    for (size_t I = 0; I != Progs.size(); ++I) {
      if (!Latest[I]) {
        Record R{"run", Progs[I].W.Name, "verify"};
        R.fail("no image to run: squash failed");
        Records.push_back(std::move(R));
        continue;
      }
      Records.push_back(
          runOp(Progs[I], Latest[I]->SP, *Rows[I], "verify", false, A.Trace));
    }

  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);

  std::string J = "{\"workload\":" + jsonString(Spec->Name) +
                  ",\"seed\":" + std::to_string(A.Seed) +
                  ",\"trace\":" + (A.Trace ? "1" : "0") +
                  ",\"peak_rss_kb\":" + std::to_string(Usage.ru_maxrss) +
                  ",\"records\":[\n";
  for (size_t I = 0; I != Records.size(); ++I) {
    const Record &R = Records[I];
    J += "{\"kind\":" + jsonString(R.Kind) +
         ",\"program\":" + jsonString(R.Program) +
         ",\"group\":" + jsonString(R.Group) + ",\"op\":" +
         (R.Op ? "true" : "false") + ",\"traced\":" +
         (R.Traced ? "true" : "false") + ",\"ok\":" +
         (R.Ok ? "true" : "false") + ",\"error\":" + jsonString(R.Error) +
         ",\"values\":{";
    for (size_t K = 0; K != R.Values.size(); ++K)
      J += (K ? "," : "") + jsonString(R.Values[K].first) + ":" +
           jsonNumber(R.Values[K].second);
    J += I + 1 == Records.size() ? "}}\n" : "}},\n";
  }
  J += "]}\n";
  std::fwrite(J.data(), 1, J.size(), stdout);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: perf_e2e_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected FILE\n"
               "       perf_e2e_driver --generate-expected\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--generate-expected")
      return generateExpected();
    if (I + 1 >= Argc) {
      usage();
      return 2;
    }
    const char *Val = Argv[++I];
    if (Arg == "--workload")
      A.Workload = Val;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Val, nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Val, nullptr);
    else if (Arg == "--trace")
      A.Trace = std::strcmp(Val, "0") != 0;
    else if (Arg == "--expected")
      A.Expected = Val;
    else {
      usage();
      return 2;
    }
  }
  if (A.Workload.empty() || A.Expected.empty()) {
    usage();
    return 2;
  }
  return runBenchmark(A);
}
