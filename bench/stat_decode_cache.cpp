//===- bench/stat_decode_cache.cpp - Decode-cache effectiveness -----------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The paper's runtime keeps exactly one decompressed region resident, so a
// loop that alternates between regions re-decodes on every entry (the
// "always-thrash" behaviour of Section 2.2). This bench measures what the
// N-slot decode cache buys back, on two axes:
//
//  1. An alternating-region thrash microworkload (one more region than the
//     paper's single buffer can hold): region decodes, buffered hits, LRU
//     evictions, and the thrash ratio at 1..4 slots, against the paper
//     single-buffer baseline. The headline number is the decode-count
//     reduction at 4 slots (acceptance floor: >= 5x).
//  2. The real workload suite at theta-mid: thrash ratio paper-mode vs.
//     4-slot cache, plus the squash pipeline's per-stage wall times.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Builder.h"

using namespace bench;
using namespace vea;
using namespace squash;

namespace {

/// A hot driver loop whose guarded cold body calls three cold leaf
/// functions in rotation. With PackRegions off this squashes into exactly
/// four regions — the call block M and the leaves f0..f2 — and each
/// iteration produces the request stream M f0 M f1 M f2 M (the caller
/// re-enters through a restore stub after every callee return). Four
/// regions against the paper's one-region buffer is the worst case: every
/// single request misses.
Program thrashProgram(uint32_t Iterations) {
  ProgramBuilder PB("thrash");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.sys(SysFunc::GetChar);
    F.mov(20, 0); // Guard: 0 = profile run (cold body skipped).
    F.li(21, static_cast<int32_t>(Iterations));
    F.li(22, 0);
    F.label("loop");
    F.beq(20, "next");
    F.label("cold"); // Isolates the guarded body in its own (cold) block.
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

struct CacheRow {
  std::string Label;
  uint64_t Decodes;
  uint64_t Hits;
  uint64_t Evictions;
  double Thrash;
};

CacheRow measureThrash(std::string Label, const Program &Ref,
                       const Profile &Prof, uint32_t Slots, bool Reuse) {
  Program Prog = Ref; // squashProgram rewrites in place; keep Ref pristine.
  Options Opts;
  Opts.PackRegions = false;
  Opts.CacheSlots = Slots;
  Opts.ReuseBufferedRegion = Reuse;
  Opts.DirectResidentStubs = Reuse;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();
  if (SR.Identity) {
    std::fprintf(stderr, "thrash workload unexpectedly squashed to "
                         "identity\n");
    std::exit(1);
  }
  SquashedRun Run = runSquashed(SR.SP, {1});
  if (Run.Run.Status != RunStatus::Halted) {
    std::fprintf(stderr, "thrash run faulted: %s\n",
                 Run.Run.FaultMessage.c_str());
    std::exit(1);
  }
  return {std::move(Label), Run.Runtime.Decompressions,
          Run.Runtime.BufferedHits, Run.Runtime.Evictions,
          Run.Runtime.thrashRatio()};
}

} // namespace

int main() {
  std::printf("== Decode-cache statistics ==\n\n");

  // Part 1: the alternating-region thrash microworkload.
  constexpr uint32_t Iterations = 200;
  Program Ref = thrashProgram(Iterations);
  Profile Prof;
  {
    Program Prog = Ref;
    Prof = profileImage(layoutProgram(Prog), {0}).take();
  }

  std::printf("-- alternating-region thrash workload (4 regions, %u "
              "iterations) --\n\n",
              Iterations);
  std::vector<CacheRow> Rows;
  Rows.push_back(
      measureThrash("paper (1 buf)", Ref, Prof, 1, /*Reuse=*/false));
  for (uint32_t Slots : {1u, 2u, 3u, 4u})
    Rows.push_back(measureThrash("cache " + std::to_string(Slots) +
                                     " slot" + (Slots > 1 ? "s" : ""),
                                 Ref, Prof, Slots, true));

  const uint64_t BaseDecodes = Rows.front().Decodes;
  std::printf("%-16s %10s %10s %10s %8s %10s\n", "config", "decodes",
              "hits", "evictions", "thrash", "reduction");
  for (const CacheRow &R : Rows)
    std::printf("%-16s %10llu %10llu %10llu %7.1f%% %9.1fx\n",
                R.Label.c_str(),
                static_cast<unsigned long long>(R.Decodes),
                static_cast<unsigned long long>(R.Hits),
                static_cast<unsigned long long>(R.Evictions),
                100.0 * R.Thrash,
                R.Decodes ? static_cast<double>(BaseDecodes) / R.Decodes
                          : 0.0);

  const CacheRow &Four = Rows.back();
  double Reduction =
      Four.Decodes ? static_cast<double>(BaseDecodes) / Four.Decodes : 0.0;
  std::printf("\n4-slot cache decodes %.1fx fewer regions than the paper's "
              "single buffer (acceptance floor: 5x). %s\n\n",
              Reduction, Reduction >= 5.0 ? "PASS" : "FAIL");

  // Part 2: the real suite — thrash ratio and encoder wall time.
  auto Suite = prepareSuite();
  std::printf("-- workload suite at theta = %s --\n\n",
              thetaLabel(ThetaMid).c_str());
  std::printf("%-10s %10s %10s %10s %12s\n", "program", "thrash@1buf",
              "thrash@4", "evict@4", "encode(s)");
  std::vector<double> Paper, Cached;
  std::vector<BenchRow> JsonRows;
  for (const CacheRow &R : Rows) {
    vea::MetricsRegistry Reg;
    Reg.setCounter("cache.decodes", R.Decodes);
    Reg.setCounter("cache.hits", R.Hits);
    Reg.setCounter("cache.evictions", R.Evictions);
    Reg.setGauge("cache.thrash_ratio", R.Thrash);
    JsonRows.emplace_back("thrash/" + R.Label, Reg.toJson());
  }
  double EncodeTotal = 0.0;
  for (auto &P : Suite) {
    Options Base;
    Base.Theta = ThetaMid;
    SquashResult PaperSR = squashProgram(P.W.Prog, P.Prof, Base).take();

    Options CacheOpts = Base;
    CacheOpts.CacheSlots = 4;
    CacheOpts.ReuseBufferedRegion = true;
    CacheOpts.DirectResidentStubs = true;
    SquashResult CacheSR = squashProgram(P.W.Prog, P.Prof, CacheOpts).take();

    double PR = 1.0, CR = 0.0;
    uint64_t Evict = 0;
    if (!PaperSR.Identity) {
      SquashedRun R = runSquashed(PaperSR.SP, P.W.TimingInput);
      PR = R.Runtime.thrashRatio();
      Paper.push_back(PR > 0 ? PR : 1e-6);
    }
    if (!CacheSR.Identity) {
      SquashedRun R = runSquashed(CacheSR.SP, P.W.TimingInput);
      CR = R.Runtime.thrashRatio();
      Evict = R.Runtime.Evictions;
      Cached.push_back(CR > 0 ? CR : 1e-6);
    }
    EncodeTotal += PaperSR.Stats.EncodeSeconds;
    std::printf("%-10s %9.1f%% %9.1f%% %10llu %12.4f\n", P.W.Name.c_str(),
                100.0 * PR, 100.0 * CR, static_cast<unsigned long long>(Evict),
                PaperSR.Stats.EncodeSeconds);
    vea::MetricsRegistry Reg;
    Reg.setGauge("cache.thrash_ratio_paper", PR);
    Reg.setGauge("cache.thrash_ratio_4slots", CR);
    Reg.setCounter("cache.evictions_4slots", Evict);
    PaperSR.Stats.exportMetrics(Reg, "squash.time.");
    JsonRows.emplace_back(P.W.Name, Reg.toJson());
  }
  std::printf("\nsuite geomean thrash ratio: %.1f%% (paper mode) vs %.1f%% "
              "(4 slots); total encode wall time %.4fs.\n",
              100.0 * geomean(Paper), 100.0 * geomean(Cached), EncodeTotal);
  std::string Path = writeBenchJson("decode_cache", JsonRows);
  std::printf("wrote %zu row(s) to %s\n", JsonRows.size(), Path.c_str());
  return 0;
}
