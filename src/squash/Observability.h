//===- squash/Observability.h - Trace export & run reporting ---*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the runtime's bounded event trace and the pipeline's stats
/// structures into things a human (or a plotting script) can consume:
///
///  - exportChromeTrace: the trace as Chrome trace format JSON — instant
///    events with machine-cycle timestamps, loadable in chrome://tracing
///    or Perfetto.
///  - buildRegionHeatReport / renderRegionHeatReport: per-region
///    decompression and hit counts plus cache-slot residency derived from
///    the trace.
///  - collectSquashMetrics / collectRunMetrics: one-call registration of
///    every pipeline / runtime counter into a MetricsRegistry, the single
///    JSON surface DESIGN.md §12 describes.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_OBSERVABILITY_H
#define SQUASH_SQUASH_OBSERVABILITY_H

#include "squash/Driver.h"
#include "support/Metrics.h"
#include "support/Span.h"

#include <string>
#include <vector>

namespace squash {

/// Stable lowercase name of a trace event kind ("decompress", "evict", ...)
/// used as the Chrome-trace event name and in the heat report.
const char *eventKindName(RuntimeSystem::Event::Kind K);

/// Renders \p Events (oldest first, as SquashedRun::Trace provides) as
/// Chrome trace format JSON: one instant event per trace entry with the
/// machine cycle count as its timestamp and the region / addr / count
/// payload in args. \p Dropped, when nonzero, is recorded in the trace
/// metadata so a truncated trace is recognizable.
std::string exportChromeTrace(const std::vector<RuntimeSystem::Event> &Events,
                              uint64_t Dropped = 0);

/// Renders a SpanTracer snapshot as Chrome trace format JSON: one complete
/// ("X") duration event per span — ts/dur in microseconds of wall clock,
/// start/end simulated cycles and the span args in the args payload — plus
/// flow ("s"/"f") events binding cross-thread producer/consumer pairs
/// (prefetch launch → worker → consuming fill; re-squash trigger → build →
/// publish → verdict) so Perfetto draws the arrows. Timestamps are
/// rebased to the earliest span.
std::string exportSpansChromeTrace(const std::vector<vea::Span> &Spans);

/// Per-region activity aggregated from a trace.
struct RegionHeat {
  uint32_t Region = 0;
  uint64_t Decompressions = 0; ///< Fills (incl. recovery refills).
  uint64_t BufferedHits = 0;   ///< Entries that found it resident.
  uint64_t Evictions = 0;      ///< Times it was displaced from its slot.
  uint64_t StubCalls = 0;      ///< Entry-stub + restore-stub entries.
  uint64_t FirstCycle = 0;     ///< Cycle of its first traced event.
  uint64_t LastCycle = 0;      ///< Cycle of its last traced event.
};

/// Aggregates \p Events into one RegionHeat per region seen, sorted by
/// decompression count (descending) then region id. Regions never touched
/// in the trace do not appear.
std::vector<RegionHeat>
buildRegionHeatReport(const std::vector<RuntimeSystem::Event> &Events);

/// Renders the heat report as an aligned text table (one region per row)
/// for terminal consumption.
std::string renderRegionHeatReport(const std::vector<RegionHeat> &Report);

/// Registers every squash-time stats structure carried by \p R — stage
/// times, cold-code/region/buffer-safety/unswitch counters, and the
/// footprint breakdown — into \p Reg.
void collectSquashMetrics(vea::MetricsRegistry &Reg, const SquashResult &R);

/// Registers a squashed run's machine counters, runtime-system counters,
/// and trace accounting (events retained/dropped) into \p Reg.
void collectRunMetrics(vea::MetricsRegistry &Reg, const SquashedRun &Run);

/// Pre-seeds a decode-ahead predictor from a prior run's trace: replays
/// the decompressor-entry events (EnterViaStub / EnterViaRestore) in
/// order, so the predictor starts with the previous run's transition
/// model instead of learning from scratch.
void seedPredictorFromEvents(RegionPredictor &P,
                             const std::vector<RuntimeSystem::Event> &Events);

/// Pre-seeds the predictor's global-heat fallback from a region heat
/// report (fills + hits per region).
void seedPredictorFromHeat(RegionPredictor &P,
                           const std::vector<RegionHeat> &Report);

} // namespace squash

#endif // SQUASH_SQUASH_OBSERVABILITY_H
