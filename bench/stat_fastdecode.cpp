//===- bench/stat_fastdecode.cpp - Table-driven decode throughput ---------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The acceptance bench for the fast-decode subsystem (DESIGN.md §16), on
// two axes:
//
//  1. Host decode throughput. The acceptance number mirrors
//     bench/micro_codec: a profile-shaped synthetic hot region (skewed
//     registers, clustered displacements) decoded bit-serially vs with the
//     table-driven FastDecoder at the default window width (floor: >= 5x
//     over symbol-at-a-time). Alongside it, the full real workload suite
//     is decoded at every probe width — byte-identity checked each time —
//     as an informative table: the paper's workload streams average ~14
//     bits/instruction, so their table hit rates (and speedups, ~4x) sit
//     below the hot-region shape the buffer actually replays.
//  2. Decode-ahead on the alternating-region thrash workload: the same
//     squashed image run with prefetch off and on must produce identical
//     guest behaviour while the on-run's TrapCycles p99 drops (prefetched
//     fills skip the per-instruction decode charge).
//  3. Disabled-spans overhead (DESIGN.md §18): the hot-region decode pass
//     re-timed with the inert SpanScope the runtime opens around each
//     region fill; with tracing off the ratio must stay <= 1.02.
//
// Exits nonzero if any acceptance criterion fails, so CI can gate on it.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "huff/FastDecoder.h"
#include "ir/Builder.h"
#include "support/Span.h"

#include <algorithm>
#include <chrono>

using namespace bench;
using namespace vea;
using namespace squash;

namespace {

/// Probe-window widths for the throughput table (EXPERIMENTS.md).
const std::vector<unsigned> TableBits = {4, 8, 11, 14};

/// Decodes every region of \p SP once with the bit-serial decoder,
/// appending the re-encoded words of each instruction to \p Words. Fatal
/// on a corrupt stream: this bench only sees freshly squashed images.
void decodeAllSlow(const SquashedProgram &SP, const uint8_t *Mem,
                   std::vector<uint32_t> &Words) {
  const RuntimeLayout &L = SP.Layout;
  MInst I;
  for (const RegionImageInfo &RI : SP.Regions) {
    BitReader Reader(Mem + L.BlobBase, L.BlobBytes);
    Reader.seekBit(RI.BitOffset);
    StreamCodecs::RegionDecoder Dec(SP.Codecs, Reader);
    while (Dec.next(I))
      Words.push_back(encode(I));
    if (!Dec.ok()) {
      std::fprintf(stderr, "slow decode reported corrupt stream\n");
      std::exit(1);
    }
  }
}

/// Same, with the fast decoder over \p Tables.
void decodeAllFast(const SquashedProgram &SP, const uint8_t *Mem,
                   const std::shared_ptr<const FastTables> &Tables,
                   std::vector<uint32_t> &Words) {
  const RuntimeLayout &L = SP.Layout;
  MInst I;
  for (const RegionImageInfo &RI : SP.Regions) {
    FastDecoder Dec(SP.Codecs, Tables, Mem + L.BlobBase, L.BlobBytes,
                    RI.BitOffset);
    while (Dec.next(I))
      Words.push_back(encode(I));
    if (!Dec.ok()) {
      std::fprintf(stderr, "fast decode reported corrupt stream\n");
      std::exit(1);
    }
  }
}

/// Decode-only loops for the timed passes: consume every instruction and
/// fold one field into a checksum. The identity passes above re-encode
/// and store every word; that overhead is common to both decoders and
/// would dilute the measured decode ratio, so timing excludes it.
uint64_t countAllSlow(const SquashedProgram &SP, const uint8_t *Mem) {
  const RuntimeLayout &L = SP.Layout;
  MInst I;
  uint64_t Sink = 0;
  for (const RegionImageInfo &RI : SP.Regions) {
    BitReader Reader(Mem + L.BlobBase, L.BlobBytes);
    Reader.seekBit(RI.BitOffset);
    StreamCodecs::RegionDecoder Dec(SP.Codecs, Reader);
    while (Dec.next(I))
      Sink += I.get(FieldKind::Opcode);
  }
  return Sink;
}

uint64_t countAllFast(const SquashedProgram &SP, const uint8_t *Mem,
                      const std::shared_ptr<const FastTables> &Tables) {
  const RuntimeLayout &L = SP.Layout;
  // Chunked batch decode, same as the runtime's region fill loop.
  std::array<MInst, 64> Chunk;
  uint64_t Sink = 0;
  for (const RegionImageInfo &RI : SP.Regions) {
    FastDecoder Dec(SP.Codecs, Tables, Mem + L.BlobBase, L.BlobBytes,
                    RI.BitOffset);
    while (size_t Got = Dec.decodeRun(Chunk.data(), Chunk.size()))
      for (size_t K = 0; K != Got; ++K)
        Sink += Chunk[K].get(FieldKind::Opcode);
  }
  return Sink;
}

/// Times \p Reps full-suite decodes and returns host ns per instruction.
template <typename Fn>
double timeNsPerInstr(Fn &&Decode, uint64_t Reps, uint64_t Instrs) {
  using Clock = std::chrono::steady_clock;
  uint64_t Sink = 0;
  auto T0 = Clock::now();
  for (uint64_t R = 0; R != Reps; ++R)
    Sink += Decode();
  auto T1 = Clock::now();
  static volatile uint64_t Keep;
  Keep = Sink;
  (void)Keep;
  double Ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
          .count());
  return Ns / static_cast<double>(Reps * Instrs);
}

/// The profile-shaped synthetic region of bench/micro_codec's decode
/// benchmarks: a four-opcode mix whose operands follow the skew the
/// paper's premise rests on — a small hot register set, clustered
/// word-aligned displacements, mostly-tiny immediates, short branch hops.
std::vector<MInst> syntheticHotRegion(size_t Len, uint64_t Seed) {
  Rng R(Seed);
  auto PickReg = [&R]() -> unsigned {
    static constexpr unsigned Hot[4] = {1, 2, 3, 29};
    return R.nextBelow(4) ? Hot[R.nextBelow(4)] : R.nextBelow(31);
  };
  std::vector<MInst> Region;
  for (size_t I = 0; I != Len; ++I) {
    switch (R.nextBelow(4)) {
    case 0:
      Region.push_back(makeRRR(Opcode::Add, PickReg(), PickReg(), PickReg()));
      break;
    case 1:
      Region.push_back(makeMem(Opcode::Ldw, PickReg(), 30,
                               static_cast<int32_t>(R.nextBelow(8)) * 4));
      break;
    case 2:
      Region.push_back(
          makeRRI(Opcode::Addi, PickReg(), PickReg(),
                  R.nextBelow(5) ? R.nextBelow(8) : R.nextBelow(256)));
      break;
    default:
      Region.push_back(makeBranch(Opcode::Beq, PickReg(),
                                  static_cast<int32_t>(R.nextBelow(8)) + 1));
      break;
    }
  }
  return Region;
}

/// Measures the acceptance ratio on the synthetic hot region: bit-serial
/// vs table-driven ns/instr at the default width, best-of-\p Trials to
/// shed scheduler noise. Verifies byte-identical decode first.
double syntheticSpeedup(double &SlowNsOut, double &FastNsOut) {
  const size_t Len = 512;
  auto Region = syntheticHotRegion(Len, 7);
  StreamCodecs SC = StreamCodecs::build({Region});
  BitWriter W;
  SC.encodeRegion(Region, W).check();
  std::vector<uint8_t> Blob = W.takeBytes();
  auto Tables = SC.fastTables(FastTables::DefaultBits);

  // Both passes count instructions and read one decoded field per pass
  // (keeping the instruction stores observable), mirroring micro_codec's
  // decode loops so the two benches report the same quantity.
  const auto SlowPass = [&] {
    BitReader Rd(Blob);
    StreamCodecs::RegionDecoder Dec(SC, Rd);
    MInst I;
    uint64_t Sink = 0;
    while (Dec.next(I))
      ++Sink;
    return Sink + I.get(FieldKind::Opcode);
  };
  std::array<MInst, 64> Chunk;
  const auto FastPass = [&] {
    FastDecoder Dec(SC, Tables, Blob.data(), Blob.size(), 0);
    uint64_t Sink = 0;
    while (size_t Got = Dec.decodeRun(Chunk.data(), Chunk.size()))
      Sink += Got;
    return Sink + Chunk[0].get(FieldKind::Opcode);
  };

  // Byte-identity on the acceptance stream.
  {
    std::vector<uint32_t> Ref, Got;
    BitReader Rd(Blob);
    StreamCodecs::RegionDecoder SDec(SC, Rd);
    MInst I;
    while (SDec.next(I))
      Ref.push_back(encode(I));
    FastDecoder FDec(SC, Tables, Blob.data(), Blob.size(), 0);
    while (FDec.next(I))
      Got.push_back(encode(I));
    if (Ref != Got || Ref.size() != Len) {
      std::fprintf(stderr, "synthetic region: fast decode not identical\n");
      std::exit(1);
    }
  }

  const int Trials = 5;
  const uint64_t Reps = 400;
  double SlowNs = 1e30, FastNs = 1e30;
  for (int T = 0; T != Trials; ++T) {
    SlowNs = std::min(SlowNs, timeNsPerInstr(SlowPass, Reps, Len));
    FastNs = std::min(FastNs, timeNsPerInstr(FastPass, Reps, Len));
  }
  SlowNsOut = SlowNs;
  FastNsOut = FastNs;
  return FastNs > 0 ? SlowNs / FastNs : 0.0;
}

/// Measures what the telemetry hooks cost when tracing is off: the same
/// table-driven hot-region pass, plain vs wrapped in the inert SpanScope
/// the runtime opens around each region fill. A disabled scope is one
/// relaxed load plus a dead flag, so the ratio should be indistinguishable
/// from 1; the acceptance bound (DESIGN.md §18) is <= 1.02. Best-of-Trials
/// on both sides, interleaved, to shed scheduler noise.
double disabledSpanOverhead(double &PlainNsOut, double &SpannedNsOut) {
  const size_t Len = 512;
  auto Region = syntheticHotRegion(Len, 7);
  StreamCodecs SC = StreamCodecs::build({Region});
  BitWriter W;
  SC.encodeRegion(Region, W).check();
  std::vector<uint8_t> Blob = W.takeBytes();
  auto Tables = SC.fastTables(FastTables::DefaultBits);

  // The bound only holds for *disabled* tracing; make that state explicit
  // rather than inheriting whatever a previous part left behind.
  SpanTracer::instance().setEnabled(false);

  std::array<MInst, 64> Chunk;
  const auto PlainPass = [&] {
    FastDecoder Dec(SC, Tables, Blob.data(), Blob.size(), 0);
    uint64_t Sink = 0;
    while (size_t Got = Dec.decodeRun(Chunk.data(), Chunk.size()))
      Sink += Got;
    return Sink + Chunk[0].get(FieldKind::Opcode);
  };
  const auto SpannedPass = [&] {
    SpanScope Fill("region.fill", "decode");
    FastDecoder Dec(SC, Tables, Blob.data(), Blob.size(), 0);
    uint64_t Sink = 0;
    while (size_t Got = Dec.decodeRun(Chunk.data(), Chunk.size()))
      Sink += Got;
    return Sink + Chunk[0].get(FieldKind::Opcode) + (Fill.active() ? 1 : 0);
  };

  const int Trials = 9;
  const uint64_t Reps = 400;
  double PlainNs = 1e30, SpannedNs = 1e30;
  for (int T = 0; T != Trials; ++T) {
    PlainNs = std::min(PlainNs, timeNsPerInstr(PlainPass, Reps, Len));
    SpannedNs = std::min(SpannedNs, timeNsPerInstr(SpannedPass, Reps, Len));
  }
  PlainNsOut = PlainNs;
  SpannedNsOut = SpannedNs;
  return PlainNs > 0 ? SpannedNs / PlainNs : 0.0;
}

/// The alternating-region thrash workload from stat_decode_cache: a hot
/// driver loop whose guarded cold body calls three cold leaves in
/// rotation, squashing (PackRegions off) into four regions that overflow
/// the single-slot buffer on every request.
Program thrashProgram(uint32_t Iterations) {
  ProgramBuilder PB("thrash");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.mov(20, 0);
    F.li(21, static_cast<int32_t>(Iterations));
    F.li(22, 0);
    F.label("loop");
    F.beq(20, "next");
    F.label("cold");
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

} // namespace

int main() {
  std::printf("== Table-driven decode statistics ==\n\n");

  // Part 1a: the acceptance measurement, mirroring bench/micro_codec's
  // decode benchmarks.
  double SynSlowNs = 0, SynFastNs = 0;
  const double SynSpeedup = syntheticSpeedup(SynSlowNs, SynFastNs);
  std::printf("-- hot-region decode, bit-serial vs table-driven at %ub --\n\n",
              FastTables::DefaultBits);
  std::printf("slow %.1f ns/instr, fast %.1f ns/instr: %.1fx "
              "(acceptance floor: 5x). %s\n\n",
              SynSlowNs, SynFastNs, SynSpeedup,
              SynSpeedup >= 5.0 ? "PASS" : "FAIL");

  // Part 1b: the disabled-spans overhead bound. The runtime opens a
  // SpanScope around every region fill; with tracing off that scope must
  // be free on the hot loop.
  double PlainNs = 0, SpannedNs = 0;
  const double SpanRatio = disabledSpanOverhead(PlainNs, SpannedNs);
  const bool SpanOk = SpanRatio <= 1.02;
  std::printf("-- disabled-spans overhead on the hot-region decode loop --\n\n");
  std::printf("plain %.2f ns/instr, with inert SpanScope %.2f ns/instr: "
              "x%.4f (acceptance ceiling: x1.02). %s\n\n",
              PlainNs, SpannedNs, SpanRatio, SpanOk ? "PASS" : "FAIL");

  // Part 1c: decode throughput across the real workload suite, table bits
  // x workload, with byte-identity checked at every width.
  auto Suite = prepareSuite();
  const double Theta = 0.1; // Compresses regions on all 11 workloads.
  std::printf("-- host decode ns/instr, slow (bit-serial) vs fast at each "
              "window width (theta = %s) --\n\n",
              thetaLabel(Theta).c_str());
  std::printf("%-10s %8s %8s", "program", "instrs", "slow");
  for (unsigned Bits : TableBits)
    std::printf("  %5ub  (x)", Bits);
  std::printf("\n");

  std::vector<BenchRow> JsonRows;
  std::vector<double> Speedups; // At the default width, one per workload.
  for (auto &P : Suite) {
    Options Opts;
    Opts.Theta = Theta;
    SquashResult SR = squashProgram(P.W.Prog, P.Prof, Opts).take();
    if (SR.Identity) {
      std::fprintf(stderr, "%s unexpectedly squashed to identity\n",
                   P.W.Name.c_str());
      return 1;
    }
    const SquashedProgram &SP = SR.SP;
    Machine M(SP.Img);
    const uint8_t *Mem = M.memData();

    std::vector<uint32_t> Reference;
    decodeAllSlow(SP, Mem, Reference);
    if (Reference.empty()) {
      std::fprintf(stderr, "%s has no stored instructions\n",
                   P.W.Name.c_str());
      return 1;
    }
    const uint64_t Instrs = Reference.size();
    const uint64_t Reps =
        std::max<uint64_t>(8, std::min<uint64_t>(20000, 200000 / Instrs));

    std::vector<uint32_t> Scratch;
    double SlowNs =
        timeNsPerInstr([&] { return countAllSlow(SP, Mem); }, Reps, Instrs);

    vea::MetricsRegistry Reg;
    Reg.setCounter("decode.instructions", Instrs);
    Reg.setGauge("decode.slow_ns_per_instr", SlowNs);
    std::printf("%-10s %8llu %7.1f", P.W.Name.c_str(),
                static_cast<unsigned long long>(Instrs), SlowNs);
    for (unsigned Bits : TableBits) {
      auto Tables = SP.Codecs.fastTables(Bits);
      Scratch.clear();
      decodeAllFast(SP, Mem, Tables, Scratch);
      if (Scratch != Reference) {
        std::fprintf(stderr,
                     "\n%s: fast decode at %u bits is not byte-identical\n",
                     P.W.Name.c_str(), Bits);
        return 1;
      }
      double FastNs = timeNsPerInstr(
          [&] { return countAllFast(SP, Mem, Tables); }, Reps, Instrs);
      double Speedup = FastNs > 0 ? SlowNs / FastNs : 0.0;
      if (Bits == FastTables::DefaultBits)
        Speedups.push_back(Speedup > 0 ? Speedup : 1e-6);
      std::printf(" %5.1f %4.1fx", FastNs, Speedup);
      std::string Tag = "decode.fast" + std::to_string(Bits);
      Reg.setGauge(Tag + "_ns_per_instr", FastNs);
      Reg.setGauge(Tag + "_speedup", Speedup);
    }
    std::printf("\n");
    JsonRows.emplace_back(P.W.Name, Reg.toJson());
  }

  const double Geomean11 = geomean(Speedups);
  std::printf("\ngeomean workload speedup at %u bits: %.1fx "
              "(informative; the workload streams average ~14 bits/instr, "
              "well past the window).\n\n",
              FastTables::DefaultBits, Geomean11);

  // Part 2: decode-ahead on the thrash workload — identical guest
  // behaviour, lower TrapCycles tail.
  constexpr uint32_t Iterations = 200;
  Program Ref = thrashProgram(Iterations);
  Profile Prof;
  {
    Program Prog = Ref;
    Prof = profileImage(layoutProgram(Prog), {0}).take();
  }
  Options Opts;
  Opts.PackRegions = false;
  SquashResult SR = squashProgram(Ref, Prof, Opts).take();
  if (SR.Identity) {
    std::fprintf(stderr, "thrash workload squashed to identity\n");
    return 1;
  }

  auto RunThrash = [&](bool DecodeAhead) {
    SquashedProgram SP = SR.SP;
    SP.Opts.DecodeAhead = DecodeAhead;
    SquashedRun Run = runSquashed(SP, {1});
    if (Run.Run.Status != RunStatus::Halted) {
      std::fprintf(stderr, "thrash run faulted: %s\n",
                   Run.Run.FaultMessage.c_str());
      std::exit(1);
    }
    return Run;
  };
  SquashedRun Off = RunThrash(false);
  SquashedRun On = RunThrash(true);

  const bool SameBehaviour = On.Output == Off.Output &&
                             On.Run.ExitCode == Off.Run.ExitCode &&
                             On.Runtime.Decompressions ==
                                 Off.Runtime.Decompressions;
  const uint64_t OffP99 = Off.Runtime.TrapCycles.percentile(99.0);
  const uint64_t OnP99 = On.Runtime.TrapCycles.percentile(99.0);
  const uint64_t Hits = On.Runtime.PrefetchHits;
  const double HitRate =
      On.Runtime.Decompressions
          ? static_cast<double>(Hits) / On.Runtime.Decompressions
          : 0.0;

  std::printf("-- decode-ahead on the thrash workload (%u iterations) --\n\n",
              Iterations);
  std::printf("%-18s %12s %12s\n", "", "prefetch off", "prefetch on");
  std::printf("%-18s %12llu %12llu\n", "trap p50 cycles",
              static_cast<unsigned long long>(
                  Off.Runtime.TrapCycles.percentile(50.0)),
              static_cast<unsigned long long>(
                  On.Runtime.TrapCycles.percentile(50.0)));
  std::printf("%-18s %12llu %12llu\n", "trap p99 cycles",
              static_cast<unsigned long long>(OffP99),
              static_cast<unsigned long long>(OnP99));
  std::printf("%-18s %12llu %12llu\n", "trap cycles total",
              static_cast<unsigned long long>(Off.Runtime.TrapCycles.sum()),
              static_cast<unsigned long long>(On.Runtime.TrapCycles.sum()));
  std::printf("prefetch: %llu launched, %llu hits (%.0f%% of fills), %llu "
              "wasted, %llu late.\n",
              static_cast<unsigned long long>(On.Runtime.PrefetchLaunches),
              static_cast<unsigned long long>(Hits), 100.0 * HitRate,
              static_cast<unsigned long long>(On.Runtime.PrefetchWasted),
              static_cast<unsigned long long>(On.Runtime.PrefetchLate));

  const bool P99Drop = OnP99 < OffP99;
  std::printf("\nguest behaviour identical: %s; TrapCycles p99 %llu -> %llu "
              "(%s). %s\n",
              SameBehaviour ? "yes" : "NO",
              static_cast<unsigned long long>(OffP99),
              static_cast<unsigned long long>(OnP99),
              P99Drop ? "drop" : "NO DROP",
              SameBehaviour && P99Drop ? "PASS" : "FAIL");

  {
    vea::MetricsRegistry Reg;
    Reg.setCounter("thrash.trap_p99_off", OffP99);
    Reg.setCounter("thrash.trap_p99_on", OnP99);
    Reg.setCounter("thrash.trap_sum_off", Off.Runtime.TrapCycles.sum());
    Reg.setCounter("thrash.trap_sum_on", On.Runtime.TrapCycles.sum());
    Reg.setCounter("thrash.prefetch_launches",
                   On.Runtime.PrefetchLaunches);
    Reg.setCounter("thrash.prefetch_hits", Hits);
    Reg.setCounter("thrash.prefetch_wasted", On.Runtime.PrefetchWasted);
    Reg.setGauge("thrash.prefetch_hit_rate", HitRate);
    Reg.setGauge("thrash.identical", SameBehaviour ? 1.0 : 0.0);
    JsonRows.emplace_back("thrash/decode_ahead", Reg.toJson());
  }
  {
    vea::MetricsRegistry Reg;
    Reg.setGauge("decode.geomean_speedup_11b", Geomean11);
    Reg.setGauge("decode.synthetic_slow_ns", SynSlowNs);
    Reg.setGauge("decode.synthetic_fast_ns", SynFastNs);
    Reg.setGauge("decode.synthetic_speedup_11b", SynSpeedup);
    Reg.setGauge("decode.span_plain_ns", PlainNs);
    Reg.setGauge("decode.span_inert_ns", SpannedNs);
    Reg.setGauge("decode.disabled_span_overhead", SpanRatio);
    JsonRows.emplace_back("suite/summary", Reg.toJson());
  }
  std::string Path = writeBenchJson("fastdecode", JsonRows);
  std::printf("wrote %zu row(s) to %s\n", JsonRows.size(), Path.c_str());

  return (SynSpeedup >= 5.0 && SpanOk && SameBehaviour && P99Drop) ? 0 : 1;
}
