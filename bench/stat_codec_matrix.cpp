//===- bench/stat_codec_matrix.cpp - Per-region codec selection gate ------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The acceptance bench for codec plurality (DESIGN.md §17): squashes every
// workload under each codec configuration — always-Huffman (the paper's
// coder), always-pattern, and per-region "auto" selection — and scores each image on the selection objective
//
//   compressed bytes x modeled decode cycles
//
// (both stored size and re-expansion cost matter: a region pays its bytes
// once and its decode cycles on every buffer miss). Decode cycles come from
// codecDecodeCycles over the DecodeWork each region's cursor reports, the
// same formula the codec-select pass minimizes and the runtime charges, so
// this gate measures exactly what "auto" optimizes.
//
// Acceptance criteria (exit nonzero if either fails, so CI can gate):
//
//  1. "auto" is never worse than always-Huffman on bytes x cycles, for
//     every workload (the safety valve's contract).
//  2. On at least two workloads some region exists where the pattern
//     codec beats Huffman by >= 5% on that region's bits x cycles — i.e.
//     the alternative coder earns its place rather than merely tying.
//
// Behaviour is verified before anything is scored: every squashed run must
// halt with the baseline's exit code, and output bytes must be identical
// across all three codec configurations.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "squash/CodecSelect.h"

#include <array>
#include <memory>

using namespace bench;
using namespace vea;
using namespace squash;

namespace {

const std::array<const char *, 3> Configs = {"huffman", "pattern", "auto"};
constexpr size_t Auto = 2; ///< Index of "auto" in Configs.

/// Per-region measurement of one squashed image: payload bits and the
/// decode work its recorded codec reports.
struct RegionMeasure {
  uint64_t Bits = 0;
  DecodeWork Work;
};

/// Decodes every region of \p SP once through its codec cursor. Fatal on a
/// corrupt stream: this bench only sees freshly squashed images.
std::vector<RegionMeasure> measureRegions(const SquashedProgram &SP,
                                          const uint8_t *Mem) {
  const RuntimeLayout &L = SP.Layout;
  std::vector<RegionMeasure> Out;
  MInst I;
  for (size_t R = 0; R != SP.Regions.size(); ++R) {
    std::unique_ptr<RegionCursor> Cur =
        SP.makeRegionCursor(R, Mem + L.BlobBase, L.BlobBytes);
    while (Cur->next(I))
      ;
    if (!Cur->ok()) {
      std::fprintf(stderr, "region %zu: corrupt stream under codec %s\n", R,
                   codecKindName(SP.regionCodec(R)));
      std::exit(1);
    }
    RegionMeasure M;
    M.Bits = Cur->bitPosition() - SP.Regions[R].BitOffset;
    M.Work = Cur->work();
    Out.push_back(M);
  }
  return Out;
}

/// Modeled decode cycles summed over all regions.
uint64_t totalDecodeCycles(const SquashedProgram &SP,
                           const std::vector<RegionMeasure> &Ms) {
  uint64_t Cycles = 0;
  for (size_t R = 0; R != Ms.size(); ++R)
    Cycles += codecDecodeCycles(SP.Opts.Costs, SP.regionCodec(R), Ms[R].Work);
  return Cycles;
}

/// The whole-image objective: compressed bytes (payload plus every stored
/// side table) times total modeled decode cycles.
double objective(const SquashedProgram &SP,
                 const std::vector<RegionMeasure> &Ms) {
  return static_cast<double>(SP.Footprint.CompressedBytes) *
         static_cast<double>(totalDecodeCycles(SP, Ms));
}

/// A region's own bits x cycles under the codec its image recorded.
double regionObjective(const SquashedProgram &SP, const RegionMeasure &M,
                       size_t R) {
  return static_cast<double>(M.Bits) *
         static_cast<double>(
             codecDecodeCycles(SP.Opts.Costs, SP.regionCodec(R), M.Work));
}

} // namespace

int main() {
  std::printf("== Codec matrix: bytes x decode cycles per configuration ==\n\n");
  auto Suite = prepareSuite();
  const double Theta = 0.1; // Compresses regions on all 11 workloads.

  std::printf("-- objective (compressed bytes x modeled decode cycles, "
              "theta = %s) --\n\n",
              thetaLabel(Theta).c_str());
  std::printf("%-10s", "program");
  for (const char *Name : Configs)
    std::printf(" %12s", Name);
  std::printf("  %9s %6s\n", "auto/huff", "wins");

  std::vector<BenchRow> JsonRows;
  bool AutoNeverWorse = true;
  unsigned WorkloadsWithRegionWin = 0;

  for (auto &P : Suite) {
    RunResult Base = runBaseline(P, P.W.TimingInput);

    std::array<double, Configs.size()> Obj = {};
    std::vector<RegionMeasure> Measures[Configs.size()];
    SquashedProgram Images[Configs.size()];
    SquashedRun Reference;

    for (size_t C = 0; C != Configs.size(); ++C) {
      Options Opts;
      Opts.Theta = Theta;
      Opts.Codec = Configs[C];
      SquashResult SR = squashProgram(P.W.Prog, P.Prof, Opts).take();
      if (SR.Identity) {
        std::fprintf(stderr, "%s unexpectedly squashed to identity\n",
                     P.W.Name.c_str());
        return 1;
      }

      SquashedRun Run = runSquashed(SR.SP, P.W.TimingInput);
      requireHalted(Run, Base, P.W.Name, Configs[C]);
      if (C == 0)
        Reference = Run;
      else
        requireSameBehaviour(Run, Reference, P.W.Name, Configs[C]);

      Machine M(SR.SP.Img);
      Measures[C] = measureRegions(SR.SP, M.memData());
      Obj[C] = objective(SR.SP, Measures[C]);
      Images[C] = std::move(SR.SP);
    }

    // Gate 2's raw material: regions are formed before codec selection, so
    // the forced images cover identical region lists and compare per-slot.
    unsigned RegionWins = 0;
    const size_t NumRegions = Measures[0].size();
    if (Measures[1].size() == NumRegions) {
      for (size_t R = 0; R != NumRegions; ++R) {
        const double Huff = regionObjective(Images[0], Measures[0][R], R);
        const double Alt = regionObjective(Images[1], Measures[1][R], R);
        if (Alt <= 0.95 * Huff)
          ++RegionWins;
      }
    } else {
      std::fprintf(stderr, "%s: forced configs disagree on region count\n",
                   P.W.Name.c_str());
      return 1;
    }
    if (RegionWins)
      ++WorkloadsWithRegionWin;

    const double Ratio = Obj[0] > 0 ? Obj[Auto] / Obj[0] : 1.0;
    if (Obj[Auto] > Obj[0])
      AutoNeverWorse = false;

    std::printf("%-10s", P.W.Name.c_str());
    for (size_t C = 0; C != Configs.size(); ++C)
      std::printf(" %12.4g", Obj[C]);
    std::printf("  %9.4f %6u\n", Ratio, RegionWins);

    MetricsRegistry Reg;
    for (size_t C = 0; C != Configs.size(); ++C) {
      std::string Tag = std::string("codec.") + Configs[C];
      Reg.setGauge(Tag + ".objective", Obj[C]);
      Reg.setCounter(Tag + ".compressed_bytes",
                     Images[C].Footprint.CompressedBytes);
      Reg.setCounter(Tag + ".decode_cycles",
                     totalDecodeCycles(Images[C], Measures[C]));
    }
    uint64_t AutoByKind[NumCodecKinds] = {};
    for (size_t R = 0; R != Images[Auto].Regions.size(); ++R)
      ++AutoByKind[static_cast<unsigned>(Images[Auto].regionCodec(R))];
    for (unsigned K = 0; K != NumCodecKinds; ++K)
      Reg.setCounter("codec.auto.regions_" +
                         std::string(codecKindName(static_cast<CodecKind>(K))),
                     AutoByKind[K]);
    Reg.setGauge("codec.auto_vs_huffman", Ratio);
    Reg.setCounter("codec.region_wins", RegionWins);
    JsonRows.emplace_back(P.W.Name, Reg.toJson());
  }

  {
    MetricsRegistry Reg;
    Reg.setGauge("codec.auto_never_worse", AutoNeverWorse ? 1.0 : 0.0);
    Reg.setCounter("codec.workloads_with_region_win", WorkloadsWithRegionWin);
    JsonRows.emplace_back("suite/summary", Reg.toJson());
  }
  const bool WinsOk = WorkloadsWithRegionWin >= 2;
  char Verdict[160];
  std::snprintf(Verdict, sizeof(Verdict),
                "auto never worse than always-huffman: %s; workloads with a "
                ">=5%% per-region pattern win: %u (floor: 2)",
                AutoNeverWorse ? "yes" : "NO", WorkloadsWithRegionWin);
  return finishBench("codec_matrix", JsonRows, AutoNeverWorse && WinsOk,
                     Verdict);
}
