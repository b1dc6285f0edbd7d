//===- squash/Adaptive.cpp - Online re-squash with hot-swap ---------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/Adaptive.h"

#include "sim/ProfileIO.h"
#include "support/Checksum.h"
#include "support/Span.h"

#include <algorithm>
#include <cmath>

using namespace squash;
using namespace vea;

const char *squash::versionStateName(VersionState S) {
  switch (S) {
  case VersionState::Probation:
    return "probation";
  case VersionState::Committed:
    return "committed";
  case VersionState::Standby:
    return "standby";
  case VersionState::Retired:
    return "retired";
  case VersionState::RolledBack:
    return "rolled-back";
  case VersionState::Freed:
    return "freed";
  }
  return "unknown";
}

const char *squash::adaptiveEventKindName(AdaptiveEvent::Kind K) {
  switch (K) {
  case AdaptiveEvent::Kind::Trigger:
    return "trigger";
  case AdaptiveEvent::Kind::Staged:
    return "staged";
  case AdaptiveEvent::Kind::StagingRejected:
    return "staging-rejected";
  case AdaptiveEvent::Kind::Converged:
    return "converged";
  case AdaptiveEvent::Kind::Published:
    return "published";
  case AdaptiveEvent::Kind::PublishRejected:
    return "publish-rejected";
  case AdaptiveEvent::Kind::Committed:
    return "committed";
  case AdaptiveEvent::Kind::RolledBack:
    return "rolled-back";
  case AdaptiveEvent::Kind::Retired:
    return "retired";
  case AdaptiveEvent::Kind::TimedOut:
    return "timed-out";
  case AdaptiveEvent::Kind::Failed:
    return "failed";
  case AdaptiveEvent::Kind::PinLeaked:
    return "pin-leaked";
  case AdaptiveEvent::Kind::Wedged:
    return "wedged";
  }
  return "unknown";
}

void AdaptiveStats::exportMetrics(MetricsRegistry &R,
                                  const std::string &Prefix) const {
  R.setCounter(Prefix + "attempts", Attempts);
  R.setCounter(Prefix + "successes", Successes);
  R.setCounter(Prefix + "rollbacks", Rollbacks);
  R.setCounter(Prefix + "failures", Failures);
  R.setCounter(Prefix + "staging_rejects", StagingRejects);
  R.setCounter(Prefix + "publish_rejects", PublishRejects);
  R.setCounter(Prefix + "converged_attempts", ConvergedAttempts);
  R.setCounter(Prefix + "timeouts", Timeouts);
  R.setCounter(Prefix + "publications", Publications);
  R.setCounter(Prefix + "retired_versions", RetiredVersions);
  R.setCounter(Prefix + "wedged_retirements", WedgedRetirements);
  R.setCounter(Prefix + "pin_leaks", PinLeaks);
  R.setCounter(Prefix + "served_runs", ServedRuns);
  R.setCounter(Prefix + "served_during_resquash", ServedDuringResquash);
  R.setCounter(Prefix + "swap_pause_ns", SwapPauseNsTotal);
  R.setGauge(Prefix + "swap_pause_ns_max",
             static_cast<double>(SwapPauseNsMax));
  R.setGauge(Prefix + "last_resquash_seconds", LastResquashSeconds);
  R.setGauge(Prefix + "last_drift_score", LastDriftScore);
  R.setGauge(Prefix + "active_version", ActiveVersion);
  R.setGauge(Prefix + "versions", VersionsCreated);
  R.setGauge(Prefix + "probation_pending", ProbationPending ? 1.0 : 0.0);
}

namespace {

/// Serve-time observer fanout: the per-request scratch DriftMonitor plus
/// an optional caller observer (the concurrency stress test publishes
/// from the latter at exact trap indices).
struct FanoutObserver final : TrapObserver {
  TrapObserver *A = nullptr;
  TrapObserver *B = nullptr;
  void onRegionEntry(uint32_t Region, bool Filled, bool ViaRestore,
                     uint64_t ChargedCycles) override {
    if (A)
      A->onRegionEntry(Region, Filled, ViaRestore, ChargedCycles);
    if (B)
      B->onRegionEntry(Region, Filled, ViaRestore, ChargedCycles);
  }
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Staging gate: pure integrity. The image prefix and blob must match
/// their recorded CRCs before the image is allowed anywhere near
/// publication — a staged re-squash damaged in flight dies here.
Status validateStaging(const SquashedProgram &SP) {
  const RuntimeLayout &L = SP.Layout;
  const Image &Img = SP.Img;
  if (L.DecompEnd == L.DecompBase)
    return Status::success(); // Identity image: no runtime machinery.
  if (L.StubAreaBase < Img.Base ||
      L.StubAreaBase - Img.Base > Img.Bytes.size())
    return Status::error(StatusCode::MalformedImage,
                         "staging: image prefix out of bounds");
  const uint32_t Prefix = L.StubAreaBase - Img.Base;
  if (crc32(Img.Bytes.data(), Prefix) != L.ImageCrc32)
    return Status::error(StatusCode::MalformedImage,
                         "staging: image CRC32 mismatch");
  if (L.BlobBase < Img.Base ||
      static_cast<uint64_t>(L.BlobBase - Img.Base) + L.BlobBytes >
          Img.Bytes.size())
    return Status::error(StatusCode::MalformedImage,
                         "staging: blob out of bounds");
  if (crc32(&Img.Bytes[L.BlobBase - Img.Base], L.BlobBytes) != L.BlobCrc32)
    return Status::error(StatusCode::CorruptBlob,
                         "staging: blob CRC32 mismatch");
  return Status::success();
}

/// Publication gate: semantic coherence between the image's offset table
/// and the host-side region metadata the runtime will trust. Catches
/// faults that forged consistent checksums (PublishOffsetSkew).
Status validatePublication(const SquashedProgram &SP) {
  const RuntimeLayout &L = SP.Layout;
  const Image &Img = SP.Img;
  if (L.DecompEnd == L.DecompBase)
    return Status::success();
  uint32_t Prev = 0;
  for (size_t R = 0; R != SP.Regions.size(); ++R) {
    const RegionImageInfo &RI = SP.Regions[R];
    const uint32_t Addr = L.OffsetTableBase + 4 * static_cast<uint32_t>(R);
    if (Addr < Img.Base || Addr + 4 > Img.limit())
      return Status::error(StatusCode::CorruptOffsetTable,
                           "publish: offset table entry " +
                               std::to_string(R) + " out of image bounds");
    const uint32_t W = Img.word(Addr);
    if (W != RI.BitOffset)
      return Status::error(StatusCode::CorruptOffsetTable,
                           "publish: offset table entry " +
                               std::to_string(R) + " (" + std::to_string(W) +
                               ") disagrees with region metadata (" +
                               std::to_string(RI.BitOffset) + ")");
    if (static_cast<uint64_t>(RI.BitOffset) >= 8ull * L.BlobBytes)
      return Status::error(StatusCode::CorruptOffsetTable,
                           "publish: region " + std::to_string(R) +
                               " bit offset outside the blob");
    if (R && RI.BitOffset <= Prev)
      return Status::error(StatusCode::MalformedImage,
                           "publish: offset table not strictly increasing "
                           "at region " +
                               std::to_string(R));
    if (RI.ExpandedWords + 1 > L.SlotWords)
      return Status::error(StatusCode::MalformedImage,
                           "publish: region " + std::to_string(R) +
                               " larger than a cache slot");
    Prev = RI.BitOffset;
  }
  return Status::success();
}

} // namespace

Expected<std::unique_ptr<ResquashController>>
ResquashController::create(Program Prog, Profile Training, Options Opts,
                           AdaptiveConfig Cfg) {
  Expected<SquashResult> SROr = squashProgram(Prog, Training, Opts);
  if (!SROr) {
    Status S = SROr.status();
    return S.context("adaptive: initial squash");
  }
  std::unique_ptr<ResquashController> C(new ResquashController());
  C->Pristine = std::move(Prog);
  C->BaseOpts = Opts;
  C->Cfg = std::move(Cfg);
  C->AbsColdBudget =
      Opts.Theta *
      static_cast<double>(std::max<uint64_t>(Training.TotalInstructions, 1));
  C->EventCap = std::max<uint32_t>(C->Cfg.EventCapacity, 1);
  C->Pool = std::make_unique<ThreadPool>(
      std::max<unsigned>(C->Cfg.WorkerThreads, 1));
  auto V = std::make_unique<Version>();
  V->Id = 0;
  V->State = VersionState::Committed;
  V->Result = std::move(SROr.get());
  V->Guiding = std::move(Training);
  V->Monitor = std::make_unique<DriftMonitor>(V->Result.SP, V->Guiding);
  C->Versions.push_back(std::move(V));
  C->St.ActiveVersion = 0;
  C->St.VersionsCreated = 1;
  return C;
}

ResquashController::~ResquashController() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Generation; // Any in-flight attempt discards its result.
  }
  Pool.reset(); // Joins the workers (pending tasks drain first).
}

SquashedRun ResquashController::serve(const std::vector<uint8_t> &Input,
                                      uint64_t MaxInstructions,
                                      TrapObserver *Extra) {
  poll();
  Version *V = nullptr;
  {
    std::lock_guard<std::mutex> L(Mu);
    V = Versions[Active].get();
    ++V->Pins; // Epoch pin: V's memory is untouchable until we unpin.
    ++St.ServedRuns;
    if (InFlight)
      ++St.ServedDuringResquash;
  }

  // The run itself holds no lock: concurrent serves and a concurrent
  // publication proceed freely while this request executes against its
  // pinned — hence coherent — version.
  DriftMonitor RunMon(V->Result.SP, V->Guiding);
  FanoutObserver Obs;
  Obs.A = &RunMon;
  Obs.B = Extra;
  SpanScope Serve("resquash.serve", "adaptive");
  SquashedRun Run = runSquashed(V->Result.SP, Input, MaxInstructions,
                                Cfg.TraceCapacity, &Obs);
  Serve.setEndCycles(Run.Run.Cycles);
  Serve.setArgs(V->Id, Run.Runtime.Decompressions);

  {
    std::lock_guard<std::mutex> L(Mu);
    if (PinLeakArmed) {
      // Injected retirement fault: this request "dies" without releasing
      // its epoch. The version can now never drain; the reaper must
      // report the wedge instead of freeing pinned memory.
      PinLeakArmed = false;
      ++St.PinLeaks;
      recordEventLocked(AdaptiveEvent::Kind::PinLeaked, V->Id);
    } else {
      --V->Pins;
    }
    if (V->Monitor)
      V->Monitor->absorb(RunMon);
    V->TrapCycles.merge(Run.Runtime.TrapCycles);
    V->Instructions += Run.Run.Instructions;
    ++V->Runs;
    if (!V->WarmupSet) {
      V->WarmupDecodeCycles = Run.Runtime.DecodeCycles.sum();
      V->WarmupSet = true;
    }
    if (V->Id == Active) {
      if (V->State == VersionState::Probation)
        probationVerdictLocked(*V);
      else if (V->State == VersionState::Committed)
        maybeTriggerLocked(*V);
    }
  }
  poll();
  return Run;
}

void ResquashController::poll() {
  std::lock_guard<std::mutex> L(Mu);
  watchdogLocked();
  if (Staged && !InProbation && Cfg.AutoPublish)
    (void)publishStagedLocked(); // Outcome recorded in counters/events.
  reapRetiredLocked();
}

Status ResquashController::drain(double TimeoutSeconds) {
  double Limit =
      TimeoutSeconds < 0.0 ? Cfg.ResquashTimeoutSeconds : TimeoutSeconds;
  const bool Settled = Pool->waitFor(Limit);
  poll();
  if (!Settled)
    return Status::error(StatusCode::DeadlineExceeded,
                         "drain: background re-squash still running after " +
                             std::to_string(Limit) + "s");
  return Status::success();
}

Status ResquashController::resquashNow() {
  AttemptInput In;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (InFlight)
      return Status::error(StatusCode::InvalidArgument,
                           "resquashNow: an attempt is already in flight");
    if (Staged)
      return Status::error(StatusCode::InvalidArgument,
                           "resquashNow: a staged image is pending");
    Version &V = *Versions[Active];
    ++V.Attempts;
    ++St.Attempts;
    In.Guiding = V.Guiding;
    In.LiveUnit = V.Monitor ? V.Monitor->liveProfile(1.0) : Profile();
    In.ColdCutoff = V.Result.Cold.FrequencyCutoff;
    In.FromVersion = V.Id;
    In.Gen = Generation;
    In.Flow = SpanTracer::enabled() ? SpanTracer::instance().nextId() : 0;
    InFlight = true;
    InFlightFrom = V.Id;
    AttemptStart = Clock::now();
    recordEventLocked(AdaptiveEvent::Kind::Trigger, V.Id);
    SpanScope Trigger("resquash.trigger", "adaptive");
    Trigger.setFlow(0, In.Flow);
    Trigger.setArgs(V.Id, St.Attempts);
  }
  return runAttempt(std::move(In));
}

Status ResquashController::publishStaged() {
  std::lock_guard<std::mutex> L(Mu);
  return publishStagedLocked();
}

bool ResquashController::hasStaged() const {
  std::lock_guard<std::mutex> L(Mu);
  return Staged.has_value();
}

void ResquashController::armEpochPinLeak() {
  std::lock_guard<std::mutex> L(Mu);
  PinLeakArmed = true;
}

uint32_t ResquashController::activeVersion() const {
  std::lock_guard<std::mutex> L(Mu);
  return Active;
}

uint32_t ResquashController::versionCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return static_cast<uint32_t>(Versions.size());
}

VersionState ResquashController::versionState(uint32_t Id) const {
  std::lock_guard<std::mutex> L(Mu);
  return Id < Versions.size() ? Versions[Id]->State : VersionState::Freed;
}

const SquashResult &ResquashController::versionResult(uint32_t Id) const {
  std::lock_guard<std::mutex> L(Mu);
  return Versions.at(Id)->Result;
}

uint64_t ResquashController::versionWarmupDecodeCycles(uint32_t Id) const {
  std::lock_guard<std::mutex> L(Mu);
  return Id < Versions.size() ? Versions[Id]->WarmupDecodeCycles : 0;
}

AdaptiveStats ResquashController::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return St;
}

Status ResquashController::lastError() const {
  std::lock_guard<std::mutex> L(Mu);
  return LastError;
}

std::vector<AdaptiveEvent> ResquashController::events() const {
  std::lock_guard<std::mutex> L(Mu);
  if (Events.size() < EventCap)
    return Events;
  std::vector<AdaptiveEvent> Out;
  Out.reserve(Events.size());
  for (size_t I = 0; I != Events.size(); ++I)
    Out.push_back(Events[(EventNext + I) % Events.size()]);
  return Out;
}

uint64_t ResquashController::droppedEvents() const {
  std::lock_guard<std::mutex> L(Mu);
  return EventDropped;
}

void ResquashController::exportMetrics(MetricsRegistry &R,
                                       const std::string &Prefix) const {
  AdaptiveStats Snapshot;
  uint64_t Dropped = 0;
  bool StagedPending = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    Snapshot = St;
    Dropped = EventDropped;
    StagedPending = Staged.has_value();
  }
  Snapshot.exportMetrics(R, Prefix);
  R.setCounter(Prefix + "events_dropped", Dropped);
  R.setGauge(Prefix + "staged_pending", StagedPending ? 1.0 : 0.0);
}

Expected<ResquashController::StagedImage>
ResquashController::buildCandidate(const AttemptInput &In) const {
  if (In.LiveUnit.TotalInstructions == 0)
    return Status::error(StatusCode::InvalidArgument,
                         "resquash: no live heat to merge");
  // Mirror the offline recipe (bench/stat_drift): weight the live heat so
  // its instruction total matches the guiding profile's — enough to flip
  // every monitored region decisively hot without inflating the merged
  // total (and with it the θ cold budget) past recognition.
  const double Weight =
      static_cast<double>(
          std::max<uint64_t>(In.Guiding.TotalInstructions, 1)) /
      static_cast<double>(In.LiveUnit.TotalInstructions);
  Expected<Profile> ScaledOr = scaleProfile(In.LiveUnit, Weight);
  if (!ScaledOr)
    return Status(ScaledOr.status()).context("resquash: scale live profile");
  Expected<Profile> MergedOr = mergeProfiles({In.Guiding, ScaledOr.get()});
  if (!MergedOr)
    return Status(MergedOr.status()).context("resquash: merge profiles");
  Profile Merged = std::move(MergedOr.get());

  // Keep the absolute cold budget θ·(initial training total) and pin the
  // frequency cutoff to the triggering version's: live heat should flip
  // mispredicted regions hot, never reclassify hot blocks as cold.
  Options Opts2 = BaseOpts;
  Opts2.Theta =
      AbsColdBudget /
      static_cast<double>(std::max<uint64_t>(Merged.TotalInstructions, 1));
  Opts2.ColdCutoffCap = In.ColdCutoff;

  Expected<SquashResult> SROr =
      Cfg.PipelineOverride ? Cfg.PipelineOverride(Pristine, Merged, Opts2)
                           : squashProgram(Pristine, Merged, Opts2);
  if (!SROr)
    return Status(SROr.status()).context("resquash: pipeline");

  StagedImage SI;
  SI.Result = std::move(SROr.get());
  SI.Guiding = std::move(Merged);
  SI.FromVersion = In.FromVersion;
  if (Cfg.StageHook)
    Cfg.StageHook(SI.Result.SP);
  if (Status S = validateStaging(SI.Result.SP); !S.ok())
    return S;
  return SI;
}

Status ResquashController::runAttempt(AttemptInput In) {
  // The build span runs on whichever thread executes the attempt (the
  // pool worker in the background case), flow-linked from the trigger.
  SpanScope Build("resquash.build", "adaptive");
  Build.setFlow(In.Flow, In.Flow);
  Build.setArgs(In.FromVersion, 0);
  const auto T0 = Clock::now();
  Expected<StagedImage> CandOr = buildCandidate(In);
  const double Seconds = secondsSince(T0);

  std::lock_guard<std::mutex> L(Mu);
  if (In.Gen != Generation)
    // The watchdog invalidated this attempt (and recorded the timeout);
    // its result is stale and must not be staged.
    return Status::error(StatusCode::DeadlineExceeded,
                         "resquash: attempt invalidated by watchdog");
  InFlight = false;
  St.LastResquashSeconds = Seconds;

  if (!CandOr) {
    Status S = CandOr.status();
    // CRC/structure failures of the *staged image* are staging
    // rejections; everything else is a pipeline/merge failure. Either
    // way the active version is untouched.
    if (S.code() == StatusCode::CorruptBlob ||
        S.code() == StatusCode::MalformedImage) {
      ++St.StagingRejects;
      recordEventLocked(AdaptiveEvent::Kind::StagingRejected, In.FromVersion);
    } else {
      ++St.Failures;
      recordEventLocked(AdaptiveEvent::Kind::Failed, In.FromVersion);
    }
    LastError = S;
    return S;
  }

  StagedImage Cand = std::move(CandOr.get());
  Cand.Flow = In.Flow;
  // Convergence: re-squashing under the merged profile reproduced the
  // active image byte for byte — nothing to swap, and no reason to keep
  // re-attempting while the (already predicted) drift signal persists.
  const Version &A = *Versions[Active];
  if (Cand.Result.SP.Img.Bytes == A.Result.SP.Img.Bytes) {
    ++St.ConvergedAttempts;
    recordEventLocked(AdaptiveEvent::Kind::Converged, In.FromVersion);
    return Status::success();
  }
  Staged = std::move(Cand);
  recordEventLocked(AdaptiveEvent::Kind::Staged, In.FromVersion);
  return Status::success();
}

void ResquashController::startAttemptLocked(Version &V) {
  ++V.Attempts;
  ++St.Attempts;
  auto In = std::make_shared<AttemptInput>();
  In->Guiding = V.Guiding;
  In->LiveUnit = V.Monitor ? V.Monitor->liveProfile(1.0) : Profile();
  In->ColdCutoff = V.Result.Cold.FrequencyCutoff;
  In->FromVersion = V.Id;
  In->Gen = Generation;
  In->Flow = SpanTracer::enabled() ? SpanTracer::instance().nextId() : 0;
  InFlight = true;
  InFlightFrom = V.Id;
  AttemptStart = Clock::now();
  recordEventLocked(AdaptiveEvent::Kind::Trigger, V.Id);
  {
    SpanScope Trigger("resquash.trigger", "adaptive");
    Trigger.setFlow(0, In->Flow);
    Trigger.setArgs(V.Id, St.Attempts);
  }
  Pool->enqueue([this, In] { (void)runAttempt(std::move(*In)); });
}

void ResquashController::maybeTriggerLocked(Version &V) {
  if (InFlight || Staged || InProbation)
    return;
  if (Cfg.MaxAttempts && St.Attempts >= Cfg.MaxAttempts)
    return;
  if (V.Attempts >= Cfg.MaxAttemptsPerVersion)
    return;
  if (!V.Monitor)
    return;
  const DriftReport Rep = V.Monitor->report();
  St.LastDriftScore = Rep.DriftScore;
  if (Rep.LiveEntries < Cfg.MinEntriesForTrigger)
    return;
  if (Rep.DriftScore < Cfg.DriftThreshold)
    return;
  startAttemptLocked(V);
}

Status ResquashController::publishStagedLocked() {
  if (!Staged)
    return Status::error(StatusCode::InvalidArgument,
                         "publish: no staged image");
  if (InProbation)
    return Status::error(StatusCode::InvalidArgument,
                         "publish: probation still pending");
  const auto T0 = Clock::now();
  if (Status S = validatePublication(Staged->Result.SP); !S.ok()) {
    ++St.PublishRejects;
    LastError = S;
    recordEventLocked(AdaptiveEvent::Kind::PublishRejected,
                      Staged->FromVersion);
    Staged.reset();
    return S;
  }

  SpanScope Publish("resquash.publish", "adaptive");
  Publish.setFlow(Staged->Flow, Staged->Flow);

  auto V = std::make_unique<Version>();
  V->Id = static_cast<uint32_t>(Versions.size());
  V->State = VersionState::Probation;
  V->Result = std::move(Staged->Result);
  V->Guiding = std::move(Staged->Guiding);
  V->Monitor = std::make_unique<DriftMonitor>(V->Result.SP, V->Guiding);
  V->Flow = Staged->Flow;
  Publish.setArgs(V->Id, Staged->FromVersion);
  Staged.reset();

  Version &Prior = *Versions[Active];
  Prior.State = VersionState::Standby; // Rollback target; never freed now.
  ProbationPrior = Active;
  InProbation = true;
  Active = V->Id;
  Versions.push_back(std::move(V));

  ++St.Publications;
  St.ActiveVersion = Active;
  St.VersionsCreated = static_cast<uint32_t>(Versions.size());
  St.ProbationPending = true;
  const uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
  St.SwapPauseNsTotal += Ns;
  St.SwapPauseNsMax = std::max(St.SwapPauseNsMax, Ns);
  recordEventLocked(AdaptiveEvent::Kind::Published, Active);
  return Status::success();
}

double ResquashController::rateOfLocked(const Version &V) const {
  return static_cast<double>(V.TrapCycles.sum()) /
         static_cast<double>(std::max<uint64_t>(V.Instructions, 1));
}

void ResquashController::probationVerdictLocked(Version &V) {
  if (V.TrapCycles.count() < Cfg.ProbationTraps &&
      V.Runs < Cfg.ProbationRuns)
    return;
  Version &Prior = *Versions[ProbationPrior];
  const double NewRate = rateOfLocked(V);
  const double PriorRate = rateOfLocked(Prior);
  const bool Regressed = NewRate > PriorRate * Cfg.RegressionTolerance + 1e-12;
  SpanScope Verdict(Regressed ? "resquash.rollback" : "resquash.commit",
                    "adaptive");
  Verdict.setFlow(V.Flow, 0);
  Verdict.setArgs(V.Id, Prior.Id);
  if (Regressed) {
    // Regression: reinstate the prior version atomically. The regressed
    // version drains its pins and is then freed like any retiree.
    Active = Prior.Id;
    Prior.State = VersionState::Committed;
    V.State = VersionState::RolledBack;
    V.RetiredAt = Clock::now();
    ++St.Rollbacks;
    St.ActiveVersion = Active;
    recordEventLocked(AdaptiveEvent::Kind::RolledBack, V.Id);
  } else {
    V.State = VersionState::Committed;
    Prior.State = VersionState::Retired;
    Prior.RetiredAt = Clock::now();
    ++St.Successes;
    recordEventLocked(AdaptiveEvent::Kind::Committed, V.Id);
  }
  InProbation = false;
  St.ProbationPending = false;
}

void ResquashController::reapRetiredLocked() {
  for (auto &VP : Versions) {
    Version &V = *VP;
    if (V.State != VersionState::Retired &&
        V.State != VersionState::RolledBack)
      continue;
    if (V.Pins == 0) {
      // Epoch drained: no request can reference this version's memory.
      V.Result = SquashResult();
      V.Monitor.reset();
      V.State = VersionState::Freed;
      ++St.RetiredVersions;
      recordEventLocked(AdaptiveEvent::Kind::Retired, V.Id);
    } else if (!V.WedgeReported &&
               secondsSince(V.RetiredAt) > Cfg.RetireTimeoutSeconds) {
      // Pins that never drain (a leaked epoch) wedge retirement. The
      // memory is deliberately NOT freed — a use-after-free under a live
      // run would be strictly worse than the leak — but the condition is
      // surfaced loudly.
      V.WedgeReported = true;
      ++St.WedgedRetirements;
      LastError = Status::error(
          StatusCode::DeadlineExceeded,
          "epoch retirement wedged: version " + std::to_string(V.Id) +
              " still holds " + std::to_string(V.Pins) + " pin(s)");
      recordEventLocked(AdaptiveEvent::Kind::Wedged, V.Id);
    }
  }
}

void ResquashController::watchdogLocked() {
  if (!InFlight || secondsSince(AttemptStart) <= Cfg.ResquashTimeoutSeconds)
    return;
  // The worker overran its deadline: invalidate the attempt (a late
  // completion sees the bumped generation and discards itself) and
  // degrade to the current version.
  ++Generation;
  InFlight = false;
  ++St.Timeouts;
  LastError = Status::error(StatusCode::DeadlineExceeded,
                            "resquash: background attempt from version " +
                                std::to_string(InFlightFrom) +
                                " exceeded its watchdog deadline");
  recordEventLocked(AdaptiveEvent::Kind::TimedOut, InFlightFrom);
}

void ResquashController::recordEventLocked(AdaptiveEvent::Kind K,
                                           uint32_t VersionId) {
  AdaptiveEvent E{K, VersionId, EventSeq++};
  if (Events.size() < EventCap) {
    Events.push_back(E);
  } else {
    Events[EventNext] = E;
    EventNext = (EventNext + 1) % EventCap;
    ++EventDropped;
  }
}
