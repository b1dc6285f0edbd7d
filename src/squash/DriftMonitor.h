//===- squash/DriftMonitor.h - Online profile-drift monitor ----*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's premise is that a *training* profile predicts which code
/// stays cold in production (§4.3: "results are relatively insensitive to
/// differences between training and production inputs"). This monitor
/// turns that claim into a live, quantitative signal: it rides the
/// runtime's trap path as a TrapObserver, accumulates per-region heat
/// (entries, fills, charged cycles) online, and compares the live heat
/// distribution against the heat the training profile predicted for the
/// same regions.
///
/// Three drift metrics (DESIGN.md §13):
///  - drift score: the share of live region entries in excess of the
///    training prediction, after scaling the prediction up (never down)
///    to the live volume. Entry-block counts bound entry-trap counts
///    from above on the training input, so a matched run scores exactly
///    0 (as does a longer run with proportionally identical behaviour);
///    1 means the live mass landed entirely on regions the profile
///    called dead. A run with no traps scores 0.
///  - top-K overlap: fraction of the K live-hottest regions that are also
///    among the K training-hottest.
///  - normalized cross-entropy: H(live, training-smoothed) / log2(regions),
///    the coding penalty of describing live behaviour with the trained
///    model.
///
/// Beyond the report, the monitor exports its heat as a block-level
/// sim::Profile (each region entry credits every block of the region with
/// one execution). resquashWithLiveHeat merges that profile with the
/// training profile and re-squashes under the result, de-compressing the
/// mispredicted-cold code — closing the paper's profile-guided loop
/// offline, end to end (bench/stat_drift measures the recovered trap
/// cycles; squash_tool --resquash runs it from the command line).
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_DRIFTMONITOR_H
#define SQUASH_SQUASH_DRIFTMONITOR_H

#include "sim/Machine.h"
#include "squash/Driver.h"
#include "squash/Runtime.h"
#include "support/Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace squash {

struct DriftConfig {
  /// K for the top-K heat-overlap metric (clamped to the region count).
  uint32_t TopK = 8;
  /// A region is reported "mispredicted cold" when its share of live
  /// entries reaches this fraction while exceeding its smoothed training
  /// share (i.e., it is materially hotter than the profile predicted).
  double MispredictShare = 0.01;
};

/// One region whose live trap rate exceeded the misprediction threshold.
struct MispredictedRegion {
  uint32_t Region = 0;
  uint64_t LiveEntries = 0;
  uint64_t LiveChargedCycles = 0;
  double LiveShare = 0.0;     ///< Fraction of all live entries.
  uint64_t TrainingHeat = 0;  ///< Sum of training counts over its blocks.
};

/// Snapshot of the drift metrics at report time.
struct DriftReport {
  uint64_t LiveEntries = 0;       ///< Entry-stub traps (fresh entries).
  uint64_t LiveRestores = 0;      ///< Restore-stub traps (cache pressure).
  uint64_t LiveFills = 0;         ///< Traps that re-decoded the region.
  uint64_t LiveChargedCycles = 0; ///< Cycles the observed traps charged.
  uint32_t RegionsTotal = 0;
  uint32_t RegionsTouched = 0; ///< Regions with at least one live entry.
  double DriftScore = 0.0;     ///< Excess live-entry share, [0, 1].
  double TopKOverlap = 1.0;    ///< [0, 1]; 1 when no traps occurred.
  double NormalizedCrossEntropy = 0.0;
  std::vector<MispredictedRegion> MispredictedCold; ///< Ranked by entries.

  /// Registers every scalar (plus the misprediction count) under
  /// \p Prefix, for bench rows and the --metrics surfaces.
  void exportMetrics(vea::MetricsRegistry &R,
                     const std::string &Prefix = "drift.") const;
};

class DriftMonitor : public TrapObserver {
public:
  /// Observes runs of \p SP, comparing against \p Training — the profile
  /// \p SP was squashed under (same block numbering). A profile whose
  /// block count disagrees with SP.ProfileBlockCount yields all-zero
  /// training heat (everything live then reads as drift). \p SP must
  /// outlive the monitor.
  DriftMonitor(const SquashedProgram &SP, const vea::Profile &Training,
               DriftConfig C = {});

  /// TrapObserver: accumulates live heat. Called on the trap path — a few
  /// array increments against preallocated vectors, no allocation. Only
  /// entry-stub traps count toward the drift distribution; restore-stub
  /// re-entries are tallied (and charged) separately, since they measure
  /// decode-cache pressure rather than mispredicted heat.
  void onRegionEntry(uint32_t Region, bool Filled, bool ViaRestore,
                     uint64_t ChargedCycles) override;

  /// Forgets all accumulated live heat (training heat is kept).
  void reset();

  DriftReport report() const;

  /// The report as one deterministic JSON object: identical inputs produce
  /// byte-identical text (fields in fixed order, regions in id order).
  std::string reportJson() const;

  /// Projects the live heat onto a block-level profile compatible with
  /// mergeProfiles(training, live): each of region R's blocks (with a
  /// profile slot) is credited entries(R) * Weight executions. Weight > 1
  /// lets a short monitored run stand in for a long production run when
  /// merged against a heavyweight training profile.
  vea::Profile liveProfile(double Weight = 1.0) const;

  /// Per-region training heat: the sum of training counts over each
  /// region's entry blocks (the profile's prediction of how often the
  /// region would be entered, i.e. trap).
  const std::vector<uint64_t> &trainingHeat() const { return Training; }
  uint64_t liveEntries(uint32_t Region) const {
    return Region < Entries.size() ? Entries[Region] : 0;
  }

private:
  const SquashedProgram &SP;
  DriftConfig Cfg;
  std::vector<uint64_t> Training; ///< Per region: predicted heat.
  std::vector<uint64_t> Entries;  ///< Per region: live entry traps.
  std::vector<uint64_t> Fills;    ///< Per region: live fills.
  std::vector<uint64_t> Cycles;   ///< Per region: live charged cycles.
  uint64_t TotalEntries = 0;
  uint64_t TotalRestores = 0;
  uint64_t TotalFills = 0;
  uint64_t TotalCycles = 0;
};

/// The offline re-squash recipe (DESIGN.md §15): re-squashes \p Pristine
/// (the compacted program \p Prior was built from) under \p Training —
/// the profile \p Prior was squashed under — merged with the live heat
/// \p Mon observed on runs of Prior.SP. The live heat is weighted to the
/// training profile's instruction total (via the hardened scaleProfile),
/// enough to flip every monitored region decisively hot without inflating
/// the merged total past recognition. Theta is rescaled so the absolute
/// cold budget theta * (training total) of \p Opts is kept, and the cold
/// frequency cutoff is pinned to Prior's: live heat flips mispredicted
/// regions hot and never reclassifies hot blocks as cold. \p MergedOut,
/// when non-null, receives the merged profile (the one a DriftMonitor over
/// the new image compares against). Fails with InvalidArgument when \p Mon
/// saw no region entry, and with the scale, merge or pipeline error
/// otherwise.
vea::Expected<SquashResult>
resquashWithLiveHeat(const vea::Program &Pristine, const vea::Profile &Training,
                     const SquashResult &Prior, const DriftMonitor &Mon,
                     const Options &Opts, vea::Profile *MergedOut = nullptr);

} // namespace squash

#endif // SQUASH_SQUASH_DRIFTMONITOR_H
