//===- bench/ablation_options.cpp - Design-choice ablations ---------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// Ablates the design choices DESIGN.md calls out, at the overhead-visible
// threshold: region packing (Section 4), buffer-safe calls (Section 6.1),
// unswitching vs exclusion (Section 6.2), whole-function regions, and the
// buffer-reuse extension the paper leaves on the table.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

using namespace bench;
using namespace squash;

int main() {
  std::printf("== Ablations at theta = %s ==\n\n",
              thetaLabel(ThetaMid).c_str());
  auto Suite = prepareSuite();

  struct Config {
    const char *Name;
    Options Opts;
  };
  Options Base;
  Base.Theta = ThetaMid;
  std::vector<Config> Configs;
  Configs.push_back({"default", Base});
  {
    Options O = Base;
    O.PackRegions = false;
    Configs.push_back({"no-packing", O});
  }
  // Whole-stage ablations skip the pass itself (its conservative fallback
  // runs instead) rather than flipping a bespoke option.
  {
    Options O = Base;
    O.DisabledPasses = {"buffer-safe"};
    Configs.push_back({"no-buffer-safe", O});
  }
  {
    Options O = Base;
    O.DisabledPasses = {"unswitch"};
    Configs.push_back({"no-unswitch", O});
  }
  {
    Options O = Base;
    O.ReuseBufferedRegion = true;
    Configs.push_back({"reuse-buffer", O});
  }
  {
    Options O = Base;
    O.WholeFunctionRegions = true;
    Configs.push_back({"whole-function", O});
  }

  std::printf("%-16s %10s %10s %16s %10s\n", "config", "size", "time",
              "decompressions", "regions");
  for (const auto &C : Configs) {
    std::vector<double> Sizes, Times;
    uint64_t Decomps = 0, Regions = 0;
    for (auto &P : Suite) {
      vea::RunResult BaseRun = runBaseline(P, P.W.TimingInput);
      SquashResult SR = squashProgram(P.W.Prog, P.Prof, C.Opts).take();
      Sizes.push_back(1.0 - SR.SP.Footprint.reduction());
      SquashedRun Run = runSquashed(SR.SP, P.W.TimingInput);
      if (Run.Run.Status != vea::RunStatus::Halted) {
        std::printf("%s: RUN FAILED (%s)\n", C.Name,
                    Run.Run.FaultMessage.c_str());
        return 1;
      }
      Times.push_back(static_cast<double>(Run.Run.Cycles) /
                      static_cast<double>(BaseRun.Cycles));
      Decomps += Run.Runtime.Decompressions;
      Regions += SR.Regions.PackedRegions;
    }
    std::printf("%-16s %10.4f %10.4f %16llu %10llu\n", C.Name,
                geomean(Sizes), geomean(Times),
                (unsigned long long)Decomps, (unsigned long long)Regions);
  }

  std::printf("\nreading: packing shrinks the offset table and stub count; "
              "buffer-safety trims stub traffic;\nunswitching admits "
              "cold switch code;\nbuffer reuse (not in the paper) removes "
              "re-decompression of the resident region;\n"
              "whole-function regions are Section 4's strawman — fewer "
              "compressible blocks and a larger buffer.\n");
  return 0;
}
