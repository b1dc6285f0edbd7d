//===- examples/squash_tool.cpp - Assemble, squash, and inspect -----------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// A command-line front end over the whole pipeline, driven by VEA-32
// assembly source:
//
//   squash_tool [file.s] [--theta X] [--k BYTES] [--disasm]
//               [--codec NAME] [--print-codec-choices]
//               [--layout] [--icache=LINES,SETS,WAYS]
//               [--input BYTES...] [--profile-out FILE] [--profile-in FILE]...
//               [--metrics-json FILE] [--metrics-prom FILE]
//               [--trace-out FILE] [--trace-capacity N]
//               [--span-trace-out FILE] [--flight-record-out FILE]
//               [--attrib-report]
//               [--drift-report FILE] [--live-profile-out FILE]
//               [--resquash]
//               [--print-pipeline] [--stop-after=PASS] [--disable-pass=PASS]...
//               [--help | -h]
//
// --help prints this flag list and exits 0. Numeric flags are parsed
// whole and range-checked (theta in [0, 1], K > 0, counts and input bytes
// non-negative); a bad value or an unknown flag exits 2 with a message
// naming the flag.
//
// Assembles the program (or a built-in demo), compacts it, profiles it on
// the given input bytes (or loads and merges saved profiles), squashes it,
// prints the objdump-style inspection reports, and verifies that original
// and squashed runs agree. --metrics-json dumps every pipeline and runtime
// counter as one JSON object; --metrics-prom dumps the same registry in
// Prometheus text exposition format; --trace-out writes the verification
// run's event trace in Chrome trace format plus a per-region heat report
// to stdout. --drift-report attaches a DriftMonitor to the verification
// run and writes its JSON drift report; --live-profile-out writes the
// monitor's live heat as a loadable profile (merge it with the training
// profile via --profile-in to re-squash against observed behaviour).
// FILE may be "-" for stdout.
//
// Telemetry (DESIGN.md §18): --span-trace-out enables causal span tracing
// for the whole invocation (pipeline passes, runtime traps, prefetch
// flows) and writes the snapshot as Chrome trace JSON with flow arrows;
// --flight-record-out arms the crash flight recorder and writes its
// postmortem dump (triggers + recent events + span snapshot) at exit;
// --attrib-report prints the cycle-attribution ledger of the verification
// run.
//
// --codec forces every region through one coder ("huffman", "pattern")
// or lets the codec-select pass pick per region ("auto");
// --print-codec-choices prints the per-region choice table after the
// squash.
//
// Memory-aware fetch model (DESIGN.md §19): --layout turns on the
// profile-guided function-placement pass and prints the placement table;
// --icache=LINES,SETS,WAYS runs the verification under a simulated
// LINES-byte-line, SETS-set, WAYS-way I-cache (the flat flush charge is
// replaced by modeled fetch misses) and prints the miss counters.
//
// The pipeline surface (squash/Pipeline.h): --print-pipeline lists the
// standard passes in order and exits; --stop-after=PASS runs only the
// pipeline prefix ending at PASS and prints the pass trace plus whatever
// stats that prefix produced; --disable-pass=PASS (repeatable) skips a
// pass via Options::DisabledPasses — each disabled pass substitutes its
// conservative fallback, so the result still runs.
//
// --resquash closes the profile-guided loop offline (DESIGN.md §15): the
// verification run's live heat is merged into the training profile
// (resquashWithLiveHeat), the program is re-squashed under the merged
// profile, and the same input is run again; the trap cycles before and
// after are printed.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "compact/Compact.h"
#include "link/ImageDisasm.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "sim/ProfileIO.h"
#include "squash/DriftMonitor.h"
#include "squash/Driver.h"
#include "squash/Inspect.h"
#include "squash/Observability.h"
#include "squash/Pipeline.h"
#include "squash/Telemetry.h"
#include "support/Span.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace vea;
using namespace squash;

namespace {

/// A demo program with an obvious hot/cold split: a checksum loop over the
/// input plus an error handler and a rarely used transform.
const char *DemoSource = R"(
.program demo
.entry main

.func main
  li r9, 0              ; checksum
  li r10, 0             ; byte count
loop:
  sys getchar
  li r1, -1
  cmpeq r1, r0, r1
  bne r1, eof
  or r16, r0, r31
  bsr r26, mix
  add r9, r9, r0
  addi r10, r10, 1
  br loop
eof:
  li r1, 200
  cmpult r1, r10, r1
  bne r1, small
  bsr r26, rare_report  ; only for long inputs: cold under the profile
small:
  or r16, r9, r31
  sys putword
  andi r16, r9, 255
  sys halt

.func mix
  muli r0, r16, 31
  xori r0, r0, 0x5a
  andi r0, r0, 255
  ret

.func rare_report
  la r1, banner
  li r2, 4
rloop:
  ldb r16, 0(r1)
  sys putchar
  addi r1, r1, 1
  subi r2, r2, 1
  bne r2, rloop
  ret

.data banner
  .ascii "big!"
)";

struct Args {
  std::string SourcePath;
  double Theta = 0.0;
  uint32_t K = 512;
  bool Disasm = false;
  std::string Codec = "huffman";
  bool PrintCodecChoices = false;
  bool ProfileLayout = false;
  IcacheConfig Icache; ///< Enabled by --icache=LINES,SETS,WAYS.
  std::vector<uint8_t> Input;
  std::string ProfileOut;
  std::vector<std::string> ProfileIn; ///< Repeatable; merged when several.
  std::string MetricsJson;
  std::string MetricsProm;
  std::string TraceOut;
  uint32_t TraceCapacity = RuntimeSystem::DefaultTraceCapacity;
  std::string SpanTraceOut;
  std::string FlightRecordOut;
  bool AttribReport = false;
  std::string DriftReportPath;
  std::string LiveProfileOut;
  bool Help = false;
  bool PrintPipeline = false;
  std::string StopAfter;
  std::vector<std::string> DisabledPasses; ///< Repeatable.
  bool Resquash = false;
};

/// The --help text: every flag parseArgs accepts.
const char *UsageText = R"(usage: squash_tool [file.s] [flags]

Assembles file.s (or a built-in demo), profiles, squashes, inspects, and
verifies that the original and squashed runs agree.

squash:
  --theta X                 cold-code fraction theta, 0 <= X <= 1 (default 0)
  --k BYTES                 runtime buffer bound K, > 0 (default 512)
  --codec NAME              huffman, pattern, or auto (default huffman)
  --print-codec-choices     print the per-region codec table
  --layout                  profile-guided function placement
  --icache=LINES,SETS,WAYS  verify under a simulated I-cache
  --disasm                  disassemble the baseline and squashed images
pipeline:
  --print-pipeline          list the standard passes and exit
  --stop-after=PASS         run the pipeline prefix ending at PASS
  --disable-pass=PASS       skip PASS (repeatable)
profiles and input:
  --input BYTES...          guest input bytes, each 0..255
  --profile-out FILE        write the training profile
  --profile-in FILE         load a profile instead of profiling (repeatable;
                            several are merged)
observability (FILE may be "-" for stdout):
  --metrics-json FILE       pipeline and runtime counters as JSON
  --metrics-prom FILE       the same counters in Prometheus text format
  --trace-out FILE          verification-run event trace (Chrome format)
  --trace-capacity N        event-trace ring capacity, >= 0
  --span-trace-out FILE     causal span trace (Chrome format)
  --flight-record-out FILE  crash flight-recorder dump
  --attrib-report           print the cycle-attribution ledger
  --drift-report FILE       profile-drift report (JSON)
  --live-profile-out FILE   live heat as a loadable profile
profile feedback:
  --resquash                merge the verification run's live heat into
                            the profile, re-squash, and run again
  --help, -h                print this text and exit
)";

/// Parses all of \p Text as a number in [\p Lo, \p Hi]; otherwise prints
/// a message naming \p Flag and returns false.
bool parseReal(const char *Flag, const std::string &Text, double Lo,
               double Hi, double &Out) {
  char *End = nullptr;
  double V = Text.empty() || std::isspace(static_cast<unsigned char>(Text[0]))
                 ? NAN
                 : std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || !(V >= Lo && V <= Hi)) {
    std::fprintf(stderr, "%s expects a number in [%g, %g], got '%s'\n", Flag,
                 Lo, Hi, Text.c_str());
    return false;
  }
  Out = V;
  return true;
}

/// Parses all of \p Text as a decimal integer in [\p Lo, \p Hi];
/// otherwise prints a message naming \p Flag and returns false.
template <typename IntT>
bool parseInt(const char *Flag, const std::string &Text, uint64_t Lo,
              uint64_t Hi, IntT &Out) {
  uint64_t V = 0;
  const char *End = Text.c_str() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.c_str(), End, V);
  if (Text.empty() || Ec != std::errc() || Ptr != End || V < Lo || V > Hi) {
    std::fprintf(stderr, "%s expects an integer in [%llu, %llu], got '%s'\n",
                 Flag, (unsigned long long)Lo, (unsigned long long)Hi,
                 Text.c_str());
    return false;
  }
  Out = static_cast<IntT>(V);
  return true;
}

/// Matches "--flag=value" or "--flag value"; fills \p Value on a hit.
bool flagWithValue(const std::string &S, const char *Flag, int Argc,
                   char **Argv, int &I, std::string &Value) {
  std::string F = Flag;
  if (S.rfind(F + "=", 0) == 0) {
    Value = S.substr(F.size() + 1);
    return true;
  }
  if (S == F && I + 1 < Argc) {
    Value = Argv[++I];
    return true;
  }
  return false;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string S = Argv[I];
    std::string V;
    if (S == "--help" || S == "-h") {
      A.Help = true;
    } else if (S == "--print-pipeline") {
      A.PrintPipeline = true;
    } else if (flagWithValue(S, "--stop-after", Argc, Argv, I, V)) {
      A.StopAfter = V;
    } else if (flagWithValue(S, "--disable-pass", Argc, Argv, I, V)) {
      A.DisabledPasses.push_back(V);
    } else if (S == "--theta" && I + 1 < Argc) {
      if (!parseReal("--theta", Argv[++I], 0.0, 1.0, A.Theta))
        return false;
    } else if (S == "--k" && I + 1 < Argc) {
      if (!parseInt("--k", Argv[++I], 1, UINT32_MAX, A.K))
        return false;
    } else if (flagWithValue(S, "--codec", Argc, Argv, I, V)) {
      CodecKind Parsed;
      if (V != "auto" && !codecKindByName(V, Parsed)) {
        std::fprintf(stderr, "unknown codec '%s' (huffman, pattern, auto)\n",
                     V.c_str());
        return false;
      }
      A.Codec = V;
    } else if (S == "--print-codec-choices") {
      A.PrintCodecChoices = true;
    } else if (S == "--layout") {
      A.ProfileLayout = true;
    } else if (flagWithValue(S, "--icache", Argc, Argv, I, V)) {
      unsigned Lines = 0, Sets = 0, Ways = 0;
      if (std::sscanf(V.c_str(), "%u,%u,%u", &Lines, &Sets, &Ways) != 3 ||
          !Lines || !Sets || !Ways) {
        std::fprintf(stderr,
                     "--icache expects LINES,SETS,WAYS (e.g. 32,16,2)\n");
        return false;
      }
      A.Icache.Enabled = true;
      A.Icache.LineBytes = Lines;
      A.Icache.Sets = Sets;
      A.Icache.Ways = Ways;
    } else if (S == "--disasm") {
      A.Disasm = true;
    } else if (S == "--profile-out" && I + 1 < Argc) {
      A.ProfileOut = Argv[++I];
    } else if (S == "--profile-in" && I + 1 < Argc) {
      A.ProfileIn.push_back(Argv[++I]);
    } else if (S == "--metrics-json" && I + 1 < Argc) {
      A.MetricsJson = Argv[++I];
    } else if (S == "--metrics-prom" && I + 1 < Argc) {
      A.MetricsProm = Argv[++I];
    } else if (S == "--drift-report" && I + 1 < Argc) {
      A.DriftReportPath = Argv[++I];
    } else if (S == "--live-profile-out" && I + 1 < Argc) {
      A.LiveProfileOut = Argv[++I];
    } else if (S == "--resquash") {
      A.Resquash = true;
    } else if (S == "--trace-out" && I + 1 < Argc) {
      A.TraceOut = Argv[++I];
    } else if (S == "--trace-capacity" && I + 1 < Argc) {
      if (!parseInt("--trace-capacity", Argv[++I], 0, UINT32_MAX,
                    A.TraceCapacity))
        return false;
    } else if (S == "--span-trace-out" && I + 1 < Argc) {
      A.SpanTraceOut = Argv[++I];
    } else if (S == "--flight-record-out" && I + 1 < Argc) {
      A.FlightRecordOut = Argv[++I];
    } else if (S == "--attrib-report") {
      A.AttribReport = true;
    } else if (S == "--input") {
      while (I + 1 < Argc && std::isdigit(Argv[I + 1][0])) {
        uint8_t Byte = 0;
        if (!parseInt("--input", Argv[++I], 0, 255, Byte))
          return false;
        A.Input.push_back(Byte);
      }
    } else if (S[0] != '-') {
      A.SourcePath = S;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", S.c_str());
      return false;
    }
  }
  return true;
}

/// Writes the span trace and flight-recorder dump that --span-trace-out /
/// --flight-record-out asked for. Called once per exit path, after every
/// run of interest has executed.
bool writeTelemetry(const Args &A);

/// Writes \p Text to \p Path, or to stdout when Path is "-".
bool writeTextFile(const std::string &Path, const std::string &Text) {
  if (Path == "-") {
    std::fputs(Text.c_str(), stdout);
    return true;
  }
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

bool writeTelemetry(const Args &A) {
  if (!A.SpanTraceOut.empty()) {
    std::vector<Span> Spans = SpanTracer::instance().snapshot();
    if (!writeTextFile(A.SpanTraceOut, exportSpansChromeTrace(Spans) + "\n"))
      return false;
    std::printf("span trace: %zu span(s) retained, %llu dropped -> %s\n",
                Spans.size(),
                (unsigned long long)SpanTracer::instance().totalDropped(),
                A.SpanTraceOut.c_str());
  }
  if (!A.FlightRecordOut.empty()) {
    if (!writeTextFile(A.FlightRecordOut,
                       FlightRecorder::instance().dumpJson() + "\n"))
      return false;
    std::printf("flight record: %llu trigger(s) -> %s\n",
                (unsigned long long)FlightRecorder::instance().triggerCount(),
                A.FlightRecordOut.c_str());
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;
  if (A.Help) {
    std::fputs(UsageText, stdout);
    return 0;
  }

  // Telemetry switches flip on before any pipeline or runtime work so the
  // span trace covers the squash itself, not just the verification run.
  if (!A.SpanTraceOut.empty())
    SpanTracer::instance().setEnabled(true);
  if (!A.FlightRecordOut.empty())
    FlightRecorder::instance().arm();

  if (A.PrintPipeline) {
    std::printf("standard squash pipeline (in order):\n");
    for (const std::string &Name : standardPassNames())
      std::printf("  %s\n", Name.c_str());
    return 0;
  }

  std::string Source = DemoSource;
  if (!A.SourcePath.empty()) {
    std::ifstream In(A.SourcePath);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", A.SourcePath.c_str());
      return 2;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  }
  if (A.Input.empty())
    for (int I = 0; I != 64; ++I)
      A.Input.push_back(static_cast<uint8_t>('a' + I % 13));

  ErrorOr<Program> ProgOr = assembleProgram(Source);
  if (!ProgOr) {
    std::fprintf(stderr, "assembly failed: %s\n", ProgOr.message().c_str());
    return 1;
  }
  Program Prog = ProgOr.take();

  CompactStats CS = compactProgram(Prog).take();
  std::printf("assembled %llu instructions (%llu after compaction)\n",
              (unsigned long long)CS.InputInstructions,
              (unsigned long long)CS.OutputInstructions);

  Image Baseline = layoutProgram(Prog);
  if (A.Disasm) {
    std::printf("baseline listing:\n%s\n",
                disassembleImage(Baseline).c_str());
  }
  Profile Prof;
  if (!A.ProfileIn.empty()) {
    std::vector<Profile> Loaded;
    for (const std::string &Path : A.ProfileIn) {
      Expected<Profile> POr = loadProfileFile(Path);
      if (!POr) {
        std::fprintf(stderr, "%s\n", POr.status().toString().c_str());
        return 1;
      }
      Loaded.push_back(std::move(POr.get()));
    }
    Expected<Profile> MOr = mergeProfiles(Loaded);
    if (!MOr) {
      std::fprintf(stderr, "%s\n", MOr.status().toString().c_str());
      return 1;
    }
    Prof = std::move(MOr.get());
    std::printf("profile: %llu instructions merged from %zu file(s)\n\n",
                (unsigned long long)Prof.TotalInstructions,
                A.ProfileIn.size());
  } else {
    Prof = profileImage(Baseline, A.Input).take();
    std::printf("profile: %llu instructions on a %zu-byte input\n\n",
                (unsigned long long)Prof.TotalInstructions, A.Input.size());
  }
  if (!A.ProfileOut.empty()) {
    if (Status St = saveProfileFile(Prof, A.ProfileOut); !St.ok()) {
      std::fprintf(stderr, "%s\n", St.toString().c_str());
      return 1;
    }
    std::printf("profile saved to %s\n", A.ProfileOut.c_str());
  }

  Options Opts;
  Opts.Theta = A.Theta;
  Opts.BufferBoundBytes = A.K;
  Opts.Codec = A.Codec;
  Opts.ProfileLayout = A.ProfileLayout;
  Opts.Icache = A.Icache;
  Opts.DisabledPasses = A.DisabledPasses;

  if (!A.StopAfter.empty()) {
    // Prefix run: drive the pass manager directly and report the state the
    // prefix produced instead of squashing end-to-end.
    if (std::string Err = Prog.verify(); !Err.empty()) {
      std::fprintf(stderr, "program does not verify: %s\n", Err.c_str());
      return 1;
    }
    SquashResult PR;
    PipelineContext Ctx(Prog, Prof, Opts, PR);
    PassManager PM;
    buildStandardPipeline(PM);
    if (Status St = PM.runUntil(Ctx, A.StopAfter); !St.ok()) {
      std::fprintf(stderr, "%s\n", St.toString().c_str());
      return 1;
    }
    std::printf("pipeline stopped after '%s' (%zu of %zu passes)\n\n",
                A.StopAfter.c_str(), PR.PassTrace.size(), PM.size());
    std::fputs(formatPassTrace(PR.PassTrace).c_str(), stdout);
    std::printf("\ncold: %llu of %llu instructions (frequency cutoff %llu)\n",
                (unsigned long long)PR.Cold.ColdInstructions,
                (unsigned long long)PR.Cold.TotalInstructions,
                (unsigned long long)PR.Cold.FrequencyCutoff);
    std::printf("regions: %llu packed (%llu before packing), %llu "
                "compressible instructions\n",
                (unsigned long long)PR.Regions.PackedRegions,
                (unsigned long long)PR.Regions.InitialRegions,
                (unsigned long long)PR.Regions.CompressibleInstructions);
    if (!A.MetricsJson.empty() || !A.MetricsProm.empty()) {
      MetricsRegistry Reg;
      collectSquashMetrics(Reg, PR);
      if (!A.MetricsJson.empty() &&
          !writeTextFile(A.MetricsJson, Reg.toJson() + "\n"))
        return 1;
      if (!A.MetricsProm.empty() &&
          !writeTextFile(A.MetricsProm, Reg.toPrometheus()))
        return 1;
    }
    return writeTelemetry(A) ? 0 : 1;
  }

  Expected<SquashResult> SROr = squashProgram(Prog, Prof, Opts);
  if (!SROr) {
    std::fprintf(stderr, "squash failed: %s\n",
                 SROr.status().toString().c_str());
    return 1;
  }
  SquashResult SR = SROr.take();
  if (SR.Identity) {
    std::printf("nothing profitable to compress at theta=%g\n", A.Theta);
    if (!A.MetricsJson.empty() || !A.MetricsProm.empty()) {
      MetricsRegistry Reg;
      collectSquashMetrics(Reg, SR);
      if (!A.MetricsJson.empty() &&
          !writeTextFile(A.MetricsJson, Reg.toJson() + "\n"))
        return 1;
      if (!A.MetricsProm.empty() &&
          !writeTextFile(A.MetricsProm, Reg.toPrometheus()))
        return 1;
    }
    if (!A.DriftReportPath.empty() || !A.LiveProfileOut.empty()) {
      // No regions means no traps to observe: emit the empty report /
      // profile so downstream consumers still find well-formed files.
      DriftMonitor Mon(SR.SP, Prof);
      if (!A.DriftReportPath.empty() &&
          !writeTextFile(A.DriftReportPath, Mon.reportJson() + "\n"))
        return 1;
      if (!A.LiveProfileOut.empty()) {
        if (Status St = saveProfileFile(Mon.liveProfile(), A.LiveProfileOut);
            !St.ok()) {
          std::fprintf(stderr, "%s\n", St.toString().c_str());
          return 1;
        }
      }
    }
    return writeTelemetry(A) ? 0 : 1;
  }

  std::fputs(formatSegmentMap(SR.SP).c_str(), stdout);
  std::printf("\n");
  std::fputs(formatRegionTable(SR.SP).c_str(), stdout);
  std::printf("\n");
  if (A.PrintCodecChoices) {
    std::printf("codec choices (--codec %s):\n", A.Codec.c_str());
    for (unsigned R = 0; R != SR.SP.Regions.size(); ++R)
      std::printf("  region %-4u %s\n", R,
                  codecKindName(SR.SP.regionCodec(R)));
    std::printf("\n");
  }
  if (A.ProfileLayout) {
    std::fputs(formatFunctionLayout(SR.SP).c_str(), stdout);
    std::printf("\n");
  }
  std::fputs(formatEntryStubs(SR.SP).c_str(), stdout);
  std::printf("\nregion 0 stored code:\n");
  std::fputs(formatRegion(SR.SP, 0).c_str(), stdout);

  // Verify equivalence on a *longer* input, which exercises the cold path.
  std::vector<uint8_t> LongInput;
  for (int I = 0; I != 400; ++I)
    LongInput.push_back(static_cast<uint8_t>('A' + I % 23));
  Machine M1(Baseline);
  M1.setInput(LongInput);
  RunResult R1 = M1.run();
  bool WantTrace = !A.TraceOut.empty();
  bool WantDrift = !A.DriftReportPath.empty() || !A.LiveProfileOut.empty() ||
                   A.Resquash;
  DriftMonitor Mon(SR.SP, Prof);
  SquashedRun R2 = runSquashed(SR.SP, LongInput, 2'000'000'000ull,
                               WantTrace ? A.TraceCapacity : 0,
                               WantDrift ? &Mon : nullptr);
  bool Ok = R1.Status == RunStatus::Halted &&
            R2.Run.Status == RunStatus::Halted &&
            R1.ExitCode == R2.Run.ExitCode;
  std::printf("\nverification on a 400-byte input: original exit %u, "
              "squashed exit %u, %llu decompressions -> %s\n",
              R1.ExitCode, R2.Run.ExitCode,
              (unsigned long long)R2.Runtime.Decompressions,
              Ok ? "OK" : "MISMATCH");
  if (A.Icache.Enabled)
    std::printf("i-cache (%uB x %u sets x %u ways): %llu fetches, %llu "
                "misses (%.2f%%), %llu miss cycles\n",
                A.Icache.LineBytes, A.Icache.Sets, A.Icache.Ways,
                (unsigned long long)R2.Run.IcacheFetches,
                (unsigned long long)R2.Run.IcacheMisses,
                R2.Run.IcacheFetches
                    ? 100.0 * static_cast<double>(R2.Run.IcacheMisses) /
                          static_cast<double>(R2.Run.IcacheFetches)
                    : 0.0,
                (unsigned long long)R2.Run.IcacheMissCycles);

  if (WantTrace) {
    if (!writeTextFile(A.TraceOut,
                       exportChromeTrace(R2.Trace, R2.TraceDropped) + "\n"))
      return 1;
    std::printf("\ntrace: %zu event(s) retained, %llu dropped -> %s\n",
                R2.Trace.size(), (unsigned long long)R2.TraceDropped,
                A.TraceOut.c_str());
    std::printf("region heat:\n%s",
                renderRegionHeatReport(buildRegionHeatReport(R2.Trace))
                    .c_str());
  }
  if (A.AttribReport)
    std::printf("\n%s",
                renderAttributionReport(buildCycleLedger(R2),
                                        "verification run")
                    .c_str());
  if (WantDrift) {
    DriftReport Rep = Mon.report();
    std::printf("\ndrift: score %.3f, top-%u overlap %.3f, %u/%u regions "
                "touched, %zu mispredicted cold\n",
                Rep.DriftScore, DriftConfig{}.TopK, Rep.TopKOverlap,
                Rep.RegionsTouched, Rep.RegionsTotal,
                Rep.MispredictedCold.size());
    if (!A.DriftReportPath.empty() &&
        !writeTextFile(A.DriftReportPath, Mon.reportJson() + "\n"))
      return 1;
    if (!A.LiveProfileOut.empty()) {
      if (Status St = saveProfileFile(Mon.liveProfile(), A.LiveProfileOut);
          !St.ok()) {
        std::fprintf(stderr, "%s\n", St.toString().c_str());
        return 1;
      }
      std::printf("live profile saved to %s\n", A.LiveProfileOut.c_str());
    }
  }
  if (A.Resquash) {
    Expected<SquashResult> SR2Or =
        resquashWithLiveHeat(Prog, Prof, SR, Mon, Opts);
    if (!SR2Or) {
      std::fprintf(stderr, "%s\n", SR2Or.status().toString().c_str());
      return 1;
    }
    SquashedRun R3 = runSquashed(SR2Or.get().SP, LongInput);
    Ok = Ok && R3.Run.Status == RunStatus::Halted &&
         R3.Run.ExitCode == R1.ExitCode;
    std::printf("resquash: trap cycles %llu before, %llu after "
                "(%llu -> %llu decompressions) -> %s\n",
                (unsigned long long)R2.Runtime.TrapCycles.sum(),
                (unsigned long long)R3.Runtime.TrapCycles.sum(),
                (unsigned long long)R2.Runtime.Decompressions,
                (unsigned long long)R3.Runtime.Decompressions,
                Ok ? "OK" : "MISMATCH");
  }
  if (!A.MetricsJson.empty() || !A.MetricsProm.empty()) {
    MetricsRegistry Reg;
    collectSquashMetrics(Reg, SR);
    collectRunMetrics(Reg, R2);
    if (WantDrift)
      Mon.report().exportMetrics(Reg);
    if (!A.MetricsJson.empty() &&
        !writeTextFile(A.MetricsJson, Reg.toJson() + "\n"))
      return 1;
    if (!A.MetricsProm.empty() &&
        !writeTextFile(A.MetricsProm, Reg.toPrometheus()))
      return 1;
  }
  if (!writeTelemetry(A))
    return 1;
  return Ok ? 0 : 1;
}
