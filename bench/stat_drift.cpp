//===- bench/stat_drift.cpp - Train-on-A / run-on-B drift matrix ----------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// Quantifies the paper's §4.3 robustness claim with the DriftMonitor.
// Every workload is squashed under its training profile (input A), then
// run twice under a drift monitor: once on A again (matched — the drift
// score should be near zero) and once on the timing input B (cross — the
// deliberately profile-cold codec modes show up as drift). The cross
// monitor's live heat is then merged back into the training profile and
// the workload re-squashed (resquashWithLiveHeat, the recipe squash_tool
// --resquash runs); rerunning on B measures how many charged trap cycles
// the profile-feedback loop recovers. One metrics row per workload goes
// to BENCH_drift.json.
//
// A gate: exits nonzero unless every workload's matched run scores exactly
// 0 and its re-squash recovers trap cycles (recovered > 0).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "squash/DriftMonitor.h"

using namespace bench;
using namespace squash;
using namespace vea;

namespace {

/// Squashes, runs on \p Input under a monitor, and returns the run.
SquashedRun monitoredRun(const SquashedProgram &SP,
                         const std::vector<uint8_t> &Input,
                         DriftMonitor &Mon) {
  return runSquashed(SP, Input, 2'000'000'000ull, 0, &Mon);
}

} // namespace

int main() {
  std::printf("== Drift: train on A, run on B, re-squash on merged ==\n\n");
  auto Suite = prepareSuite();
  std::printf("%-10s %10s %10s %8s %14s %14s %10s\n", "program", "sameScore",
              "crossScore", "overlap", "trapCycBefore", "trapCycAfter",
              "recovered");

  std::vector<BenchRow> Rows;
  bool GateOk = true;
  for (auto &P : Suite) {
    Options Opts;
    Opts.Theta = ThetaMid;
    SquashResult SR = squashProgram(P.W.Prog, P.Prof, Opts).take();

    // Matched run: same input the profile was trained on.
    DriftMonitor SameMon(SR.SP, P.Prof);
    SquashedRun SameRun = monitoredRun(SR.SP, P.W.ProfilingInput, SameMon);
    DriftReport Same = SameMon.report();

    // Cross run: the timing input, which exercises profile-cold paths.
    DriftMonitor CrossMon(SR.SP, P.Prof);
    SquashedRun CrossRun = monitoredRun(SR.SP, P.W.TimingInput, CrossMon);
    DriftReport Cross = CrossMon.report();
    const uint64_t TrapCyclesBefore = CrossRun.Runtime.TrapCycles.sum();

    // Profile feedback: the shared offline re-squash recipe merges the
    // cross run's live heat into the training profile and re-squashes.
    Profile Merged;
    SquashResult SR2 =
        resquashWithLiveHeat(P.W.Prog, P.Prof, SR, CrossMon, Opts, &Merged)
            .take();
    DriftMonitor AfterMon(SR2.SP, Merged);
    SquashedRun AfterRun = monitoredRun(SR2.SP, P.W.TimingInput, AfterMon);
    const uint64_t TrapCyclesAfter = AfterRun.Runtime.TrapCycles.sum();
    const int64_t Recovered = static_cast<int64_t>(TrapCyclesBefore) -
                              static_cast<int64_t>(TrapCyclesAfter);

    const bool Ok = SameRun.Run.Status == RunStatus::Halted &&
                    CrossRun.Run.Status == RunStatus::Halted &&
                    AfterRun.Run.Status == RunStatus::Halted &&
                    CrossRun.Run.ExitCode == AfterRun.Run.ExitCode;
    if (!Ok) {
      std::fprintf(stderr, "stat_drift: %s did not run cleanly\n",
                   P.W.Name.c_str());
      return 1;
    }

    MetricsRegistry Reg;
    Same.exportMetrics(Reg, "drift.same.");
    Cross.exportMetrics(Reg, "drift.cross.");
    AfterMon.report().exportMetrics(Reg, "drift.after.");
    Reg.setCounter("drift.trap_cycles_before", TrapCyclesBefore);
    Reg.setCounter("drift.trap_cycles_after", TrapCyclesAfter);
    Reg.setGauge("drift.recovered_cycles", static_cast<double>(Recovered));
    Reg.setHistogram("drift.cross.trap_cycles_hist",
                     CrossRun.Runtime.TrapCycles);
    Rows.emplace_back(P.W.Name, Reg.toJson());

    std::printf("%-10s %10.4f %10.4f %8.3f %14llu %14llu %10lld\n",
                P.W.Name.c_str(), Same.DriftScore, Cross.DriftScore,
                Cross.TopKOverlap, (unsigned long long)TrapCyclesBefore,
                (unsigned long long)TrapCyclesAfter, (long long)Recovered);
    if (Same.DriftScore != 0.0 || Recovered <= 0) {
      std::fprintf(stderr,
                   "stat_drift: %s: sameScore %g (want 0), recovered %lld "
                   "(want > 0)\n",
                   P.W.Name.c_str(), Same.DriftScore, (long long)Recovered);
      GateOk = false;
    }
  }

  std::string Path = writeBenchJson("drift", Rows);
  std::printf("\nwrote %zu row(s) to %s\n", Rows.size(), Path.c_str());
  if (!GateOk) {
    std::fprintf(stderr, "stat_drift: gate failed\n");
    return 1;
  }
  return 0;
}
