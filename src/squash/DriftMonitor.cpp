//===- squash/DriftMonitor.cpp - Online profile-drift monitor -------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/DriftMonitor.h"

#include "sim/ProfileIO.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

using namespace squash;
using namespace vea;

DriftMonitor::DriftMonitor(const SquashedProgram &SP, const Profile &Training,
                           DriftConfig C)
    : SP(SP), Cfg(C) {
  const size_t R = SP.Regions.size();
  this->Training.assign(R, 0);
  Entries.assign(R, 0);
  Fills.assign(R, 0);
  Cycles.assign(R, 0);
  // Predicted heat: the training execution counts of each region's *entry*
  // blocks. The monitor observes one trap per region entry, and an entry
  // block executes (approximately) once per entry, so entry-block counts
  // are the profile's prediction in the same unit the monitor measures.
  // Summing all blocks instead would inflate looping regions by their
  // iteration counts and make even a perfectly-matched run read as drift.
  // A profile for a different program (block count mismatch) predicts
  // nothing; all live activity then reads as drift.
  if (Training.BlockCounts.size() == SP.ProfileBlockCount)
    for (size_t I = 0; I != SP.RegionBlocks.size() && I != R; ++I) {
      uint64_t EntrySum = 0, AllSum = 0;
      bool HasEntry = false;
      for (const RegionBlockRef &B : SP.RegionBlocks[I]) {
        if (B.Block >= Training.BlockCounts.size())
          continue;
        AllSum += Training.BlockCounts[B.Block];
        if (B.IsEntry) {
          HasEntry = true;
          EntrySum += Training.BlockCounts[B.Block];
        }
      }
      this->Training[I] = HasEntry ? EntrySum : AllSum;
    }
}

void DriftMonitor::onRegionEntry(uint32_t Region, bool Filled,
                                 bool ViaRestore, uint64_t ChargedCycles) {
  if (Region >= Entries.size())
    return; // Corrupt-tag traps fault before reaching the observer.
  if (ViaRestore) {
    // Returns into an evicted region measure cache pressure, not heat the
    // profile could have predicted: cost is charged, drift is not.
    ++TotalRestores;
  } else {
    ++Entries[Region];
    ++TotalEntries;
  }
  if (Filled) {
    ++Fills[Region];
    ++TotalFills;
  }
  Cycles[Region] += ChargedCycles;
  TotalCycles += ChargedCycles;
}

void DriftMonitor::reset() {
  std::fill(Entries.begin(), Entries.end(), 0);
  std::fill(Fills.begin(), Fills.end(), 0);
  std::fill(Cycles.begin(), Cycles.end(), 0);
  TotalEntries = TotalRestores = TotalFills = TotalCycles = 0;
}

namespace {
/// Region ids ordered by \p Heat descending, id ascending (deterministic).
std::vector<uint32_t> rankByHeat(const std::vector<uint64_t> &Heat) {
  std::vector<uint32_t> Order(Heat.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](uint32_t A, uint32_t B) { return Heat[A] > Heat[B]; });
  return Order;
}
} // namespace

DriftReport DriftMonitor::report() const {
  DriftReport Rep;
  const size_t R = Entries.size();
  Rep.RegionsTotal = static_cast<uint32_t>(R);
  Rep.LiveEntries = TotalEntries;
  Rep.LiveRestores = TotalRestores;
  Rep.LiveFills = TotalFills;
  Rep.LiveChargedCycles = TotalCycles;
  for (uint64_t E : Entries)
    Rep.RegionsTouched += E > 0;

  // A run that never trapped produced no evidence of drift: the profile's
  // cold predictions held exactly.
  if (TotalEntries == 0 || R == 0)
    return Rep;

  const uint64_t TrainTotal =
      std::accumulate(Training.begin(), Training.end(), uint64_t{0});

  // Drift score: the share of live entries in excess of the training
  // prediction, after scaling the prediction up (never down) to the live
  // volume: s = max(1, ΣE/ΣT), score = Σ_r max(0, E_r − s·T_r) / ΣE.
  // Every trap into region r executes one of r's entry blocks, so on the
  // training input E_r ≤ T_r exactly and the score is 0; a longer run
  // with the *same* behaviour scales all regions by ΣE/ΣT and still
  // scores 0; only regions entered disproportionately more than trained
  // — drifted behaviour — contribute.
  double Excess = 0.0;
  const double Scale =
      TrainTotal ? std::max(1.0, static_cast<double>(TotalEntries) /
                                     static_cast<double>(TrainTotal))
                 : 0.0;
  for (size_t I = 0; I != R; ++I)
    Excess += std::max(0.0, static_cast<double>(Entries[I]) -
                                Scale * static_cast<double>(Training[I]));
  Rep.DriftScore = TrainTotal
                       ? Excess / static_cast<double>(TotalEntries)
                       : 1.0; // Nothing predicted, something happened.

  // Cross-entropy of the live entry distribution P under the ε-smoothed
  // training distribution Q (ε keeps regions the profile called dead at
  // nonzero probability, so the penalty stays finite), normalized by the
  // uniform-model cost log2(R).
  const double Eps = 1.0 / 256.0;
  const double QDen =
      static_cast<double>(TrainTotal) + Eps * static_cast<double>(R);
  double Xent = 0.0;
  for (size_t I = 0; I != R; ++I) {
    const double P =
        static_cast<double>(Entries[I]) / static_cast<double>(TotalEntries);
    if (P > 0.0)
      Xent -= P * std::log2((static_cast<double>(Training[I]) + Eps) / QDen);
  }
  Rep.NormalizedCrossEntropy =
      Xent / std::log2(static_cast<double>(std::max<size_t>(R, 2)));

  // Top-K overlap: the K live-hottest regions vs the K training-hottest
  // (only regions the profile actually predicted heat for count as
  // training-hot; if it predicted none, nothing live was foreseen).
  const uint32_t K = std::min<uint32_t>(std::max<uint32_t>(Cfg.TopK, 1),
                                        static_cast<uint32_t>(R));
  std::vector<uint32_t> LiveOrder = rankByHeat(Entries);
  std::vector<uint32_t> TrainOrder = rankByHeat(Training);
  std::vector<uint8_t> InTrainTop(R, 0);
  for (uint32_t I = 0; I != K; ++I)
    if (Training[TrainOrder[I]] > 0)
      InTrainTop[TrainOrder[I]] = 1;
  uint32_t Overlap = 0;
  for (uint32_t I = 0; I != K; ++I)
    if (Entries[LiveOrder[I]] > 0 && InTrainTop[LiveOrder[I]])
      ++Overlap;
  Rep.TopKOverlap = static_cast<double>(Overlap) / static_cast<double>(K);

  // Mispredicted cold: materially hot live regions whose entries exceed
  // even the scaled training prediction, ranked hottest first.
  for (size_t I = 0; I != R; ++I) {
    const double P =
        static_cast<double>(Entries[I]) / static_cast<double>(TotalEntries);
    const bool Underpredicted =
        !TrainTotal || static_cast<double>(Entries[I]) >
                           Scale * static_cast<double>(Training[I]);
    if (P >= Cfg.MispredictShare && Underpredicted)
      Rep.MispredictedCold.push_back({static_cast<uint32_t>(I), Entries[I],
                                      Cycles[I], P, Training[I]});
  }
  std::stable_sort(Rep.MispredictedCold.begin(), Rep.MispredictedCold.end(),
                   [](const MispredictedRegion &A, const MispredictedRegion &B) {
                     return A.LiveEntries > B.LiveEntries;
                   });
  return Rep;
}

std::string DriftMonitor::reportJson() const {
  const DriftReport Rep = report();
  char Buf[256];
  std::string Out = "{";
  std::snprintf(Buf, sizeof(Buf),
                "\"live_entries\":%llu,\"live_restores\":%llu,"
                "\"live_fills\":%llu,"
                "\"live_charged_cycles\":%llu,\"regions_total\":%u,"
                "\"regions_touched\":%u,",
                static_cast<unsigned long long>(Rep.LiveEntries),
                static_cast<unsigned long long>(Rep.LiveRestores),
                static_cast<unsigned long long>(Rep.LiveFills),
                static_cast<unsigned long long>(Rep.LiveChargedCycles),
                Rep.RegionsTotal, Rep.RegionsTouched);
  Out += Buf;
  Out += "\"drift_score\":" + formatGauge(Rep.DriftScore) + ",";
  Out += "\"top_k_overlap\":" + formatGauge(Rep.TopKOverlap) + ",";
  Out += "\"normalized_cross_entropy\":" +
         formatGauge(Rep.NormalizedCrossEntropy) + ",";
  Out += "\"mispredicted_cold\":[";
  for (size_t I = 0; I != Rep.MispredictedCold.size(); ++I) {
    const MispredictedRegion &M = Rep.MispredictedCold[I];
    if (I)
      Out += ',';
    std::snprintf(Buf, sizeof(Buf),
                  "{\"region\":%u,\"live_entries\":%llu,"
                  "\"live_charged_cycles\":%llu,\"training_heat\":%llu,"
                  "\"live_share\":",
                  M.Region, static_cast<unsigned long long>(M.LiveEntries),
                  static_cast<unsigned long long>(M.LiveChargedCycles),
                  static_cast<unsigned long long>(M.TrainingHeat));
    Out += Buf;
    Out += formatGauge(M.LiveShare) + "}";
  }
  Out += "]}";
  return Out;
}

Profile DriftMonitor::liveProfile(double Weight) const {
  Profile P;
  P.BlockCounts.assign(SP.ProfileBlockCount, 0);
  if (Weight <= 0.0)
    Weight = 1.0;
  for (size_t R = 0; R != Entries.size() && R != SP.RegionBlocks.size();
       ++R) {
    if (!Entries[R])
      continue;
    uint64_t Count = static_cast<uint64_t>(
        std::llround(static_cast<double>(Entries[R]) * Weight));
    Count = std::max<uint64_t>(Count, 1);
    for (const RegionBlockRef &B : SP.RegionBlocks[R]) {
      // Unswitch-created blocks (id at or past the profile) have no
      // profile slot; their heat is attributed to the original blocks.
      if (B.Block >= P.BlockCounts.size())
        continue;
      P.BlockCounts[B.Block] += Count;
      P.TotalInstructions += Count * B.Instructions;
    }
  }
  return P;
}

void DriftReport::exportMetrics(MetricsRegistry &R,
                                const std::string &Prefix) const {
  R.setCounter(Prefix + "live_entries", LiveEntries);
  R.setCounter(Prefix + "live_restores", LiveRestores);
  R.setCounter(Prefix + "live_fills", LiveFills);
  R.setCounter(Prefix + "live_charged_cycles", LiveChargedCycles);
  R.setCounter(Prefix + "regions_total", RegionsTotal);
  R.setCounter(Prefix + "regions_touched", RegionsTouched);
  R.setCounter(Prefix + "mispredicted_cold", MispredictedCold.size());
  R.setGauge(Prefix + "score", DriftScore);
  R.setGauge(Prefix + "top_k_overlap", TopKOverlap);
  R.setGauge(Prefix + "normalized_cross_entropy", NormalizedCrossEntropy);
}

Expected<SquashResult>
squash::resquashWithLiveHeat(const Program &Pristine, const Profile &Training,
                             const SquashResult &Prior, const DriftMonitor &Mon,
                             const Options &Opts, Profile *MergedOut) {
  const Profile LiveUnit = Mon.liveProfile(1.0);
  if (LiveUnit.TotalInstructions == 0)
    return Status::error(StatusCode::InvalidArgument,
                         "resquash: no live heat to merge");
  const double TrainTotal =
      static_cast<double>(std::max<uint64_t>(Training.TotalInstructions, 1));
  Expected<Profile> ScaledOr = scaleProfile(
      LiveUnit, TrainTotal / static_cast<double>(LiveUnit.TotalInstructions));
  if (!ScaledOr)
    return Status(ScaledOr.status()).context("resquash: scale live profile");
  Expected<Profile> MergedOr = mergeProfiles({Training, ScaledOr.get()});
  if (!MergedOr)
    return Status(MergedOr.status()).context("resquash: merge profiles");
  Profile Merged = std::move(MergedOr.get());

  Options Resquash = Opts;
  Resquash.Theta =
      (Opts.Theta * TrainTotal) /
      static_cast<double>(std::max<uint64_t>(Merged.TotalInstructions, 1));
  Resquash.ColdCutoffCap = Prior.Cold.FrequencyCutoff;
  Expected<SquashResult> SROr = squashProgram(Pristine, Merged, Resquash);
  if (!SROr)
    return Status(SROr.status()).context("resquash: pipeline");
  if (MergedOut)
    *MergedOut = std::move(Merged);
  return SROr;
}
