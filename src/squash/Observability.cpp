//===- squash/Observability.cpp - Trace export & run reporting ------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/Observability.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace squash;

const char *squash::eventKindName(RuntimeSystem::Event::Kind K) {
  switch (K) {
  case RuntimeSystem::Event::Kind::Decompress:
    return "decompress";
  case RuntimeSystem::Event::Kind::BufferedHit:
    return "buffered_hit";
  case RuntimeSystem::Event::Kind::EnterViaStub:
    return "enter_via_stub";
  case RuntimeSystem::Event::Kind::EnterViaRestore:
    return "enter_via_restore";
  case RuntimeSystem::Event::Kind::StubCreate:
    return "stub_create";
  case RuntimeSystem::Event::Kind::StubReuse:
    return "stub_reuse";
  case RuntimeSystem::Event::Kind::StubRelease:
    return "stub_release";
  case RuntimeSystem::Event::Kind::RecoverFill:
    return "recover_fill";
  case RuntimeSystem::Event::Kind::Evict:
    return "evict";
  case RuntimeSystem::Event::Kind::SlotMapRepair:
    return "slot_map_repair";
  case RuntimeSystem::Event::Kind::PrefetchLaunch:
    return "prefetch_launch";
  case RuntimeSystem::Event::Kind::PrefetchHit:
    return "prefetch_hit";
  case RuntimeSystem::Event::Kind::PrefetchDrop:
    return "prefetch_drop";
  }
  return "unknown";
}

std::string
squash::exportChromeTrace(const std::vector<RuntimeSystem::Event> &Events,
                          uint64_t Dropped) {
  // Chrome trace format, JSON-object flavor: {"traceEvents":[...]}. Each
  // runtime event becomes an instant event ("ph":"i") with the machine
  // cycle count as its microsecond timestamp — cycles are what the
  // simulator measures, so the tracing UI's time axis reads in cycles.
  std::string Out = "{\"traceEvents\":[";
  char Buf[256];
  bool First = true;
  for (const RuntimeSystem::Event &E : Events) {
    if (!First)
      Out += ',';
    First = false;
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"name\":\"%s\",\"cat\":\"squash\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":%llu,\"pid\":1,\"tid\":1,\"args\":{\"region\":%u,"
        "\"addr\":%u,\"count\":%u}}",
        eventKindName(E.K), static_cast<unsigned long long>(E.Cycle),
        E.Region, E.Addr, E.Count);
    Out += Buf;
  }
  Out += "],\"displayTimeUnit\":\"ns\"";
  std::snprintf(Buf, sizeof(Buf),
                ",\"otherData\":{\"dropped_events\":\"%llu\"}}",
                static_cast<unsigned long long>(Dropped));
  Out += Buf;
  return Out;
}

std::string squash::exportSpansChromeTrace(const std::vector<vea::Span> &Spans) {
  // Complete-event ("X") flavor: ts/dur in microseconds of host wall
  // clock, rebased to the earliest span so the numbers stay small. Flow
  // events ("s" at the producer's end, "f" at the consumer's start, bound
  // by the flow id) give Perfetto its cross-thread arrows.
  uint64_t Base = ~uint64_t{0};
  for (const vea::Span &S : Spans)
    Base = std::min(Base, S.StartNanos);
  if (Spans.empty())
    Base = 0;
  auto Us = [Base](uint64_t Nanos) {
    return (Nanos - Base) / 1000.0;
  };
  std::string Out = "{\"traceEvents\":[";
  char Buf[512];
  bool First = true;
  auto Emit = [&](const char *Fmt, auto... Args) {
    if (!First)
      Out += ',';
    First = false;
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Out += Buf;
  };
  for (const vea::Span &S : Spans) {
    const uint64_t End = std::max(S.EndNanos, S.StartNanos);
    Emit("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
         "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
         "\"parent\":%llu,\"start_cycles\":%llu,\"end_cycles\":%llu,"
         "\"arg_a\":%llu,\"arg_b\":%llu}}",
         S.Name ? S.Name : "", S.Category ? S.Category : "", Us(S.StartNanos),
         (End - S.StartNanos) / 1000.0, S.ThreadId,
         static_cast<unsigned long long>(S.Id),
         static_cast<unsigned long long>(S.Parent),
         static_cast<unsigned long long>(S.StartCycles),
         static_cast<unsigned long long>(S.EndCycles),
         static_cast<unsigned long long>(S.ArgA),
         static_cast<unsigned long long>(S.ArgB));
    if (S.FlowOut)
      Emit("{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%llu,"
           "\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
           static_cast<unsigned long long>(S.FlowOut), Us(End), S.ThreadId);
    if (S.FlowIn)
      Emit("{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
           "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
           static_cast<unsigned long long>(S.FlowIn), Us(S.StartNanos),
           S.ThreadId);
  }
  std::snprintf(Buf, sizeof(Buf),
                "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":"
                "\"%zu\"}}",
                Spans.size());
  Out += Buf;
  return Out;
}

std::vector<RegionHeat> squash::buildRegionHeatReport(
    const std::vector<RuntimeSystem::Event> &Events) {
  std::map<uint32_t, RegionHeat> ByRegion;
  for (const RuntimeSystem::Event &E : Events) {
    // Stub lifecycle events carry a stub address, not a region; they are
    // per-call-site bookkeeping and do not attribute to region heat.
    // Prefetch events describe predictions about regions, not entries into
    // them, so they do not attribute either.
    using Kind = RuntimeSystem::Event::Kind;
    if (E.K == Kind::StubCreate || E.K == Kind::StubReuse ||
        E.K == Kind::StubRelease || E.K == Kind::SlotMapRepair ||
        E.K == Kind::PrefetchLaunch || E.K == Kind::PrefetchHit ||
        E.K == Kind::PrefetchDrop)
      continue;
    auto It = ByRegion.find(E.Region);
    if (It == ByRegion.end()) {
      RegionHeat H;
      H.Region = E.Region;
      H.FirstCycle = E.Cycle;
      It = ByRegion.emplace(E.Region, H).first;
    }
    RegionHeat &H = It->second;
    H.LastCycle = E.Cycle;
    switch (E.K) {
    case Kind::Decompress:
    case Kind::RecoverFill:
      ++H.Decompressions;
      break;
    case Kind::BufferedHit:
      ++H.BufferedHits;
      break;
    case Kind::Evict:
      ++H.Evictions;
      break;
    case Kind::EnterViaStub:
    case Kind::EnterViaRestore:
      ++H.StubCalls;
      break;
    default:
      break;
    }
  }
  std::vector<RegionHeat> Report;
  Report.reserve(ByRegion.size());
  for (const auto &KV : ByRegion)
    Report.push_back(KV.second);
  std::sort(Report.begin(), Report.end(),
            [](const RegionHeat &A, const RegionHeat &B) {
              if (A.Decompressions != B.Decompressions)
                return A.Decompressions > B.Decompressions;
              return A.Region < B.Region;
            });
  return Report;
}

std::string
squash::renderRegionHeatReport(const std::vector<RegionHeat> &Report) {
  std::string Out =
      "region  decompressions  hits  evictions  stub-calls  resident-cycles\n";
  char Buf[160];
  for (const RegionHeat &H : Report) {
    std::snprintf(Buf, sizeof(Buf), "%6u  %14llu  %4llu  %9llu  %10llu  %15llu\n",
                  H.Region,
                  static_cast<unsigned long long>(H.Decompressions),
                  static_cast<unsigned long long>(H.BufferedHits),
                  static_cast<unsigned long long>(H.Evictions),
                  static_cast<unsigned long long>(H.StubCalls),
                  static_cast<unsigned long long>(H.LastCycle - H.FirstCycle));
    Out += Buf;
  }
  return Out;
}

void squash::collectSquashMetrics(vea::MetricsRegistry &Reg,
                                  const SquashResult &R) {
  R.Stats.exportMetrics(Reg);
  Reg.setCounter("squash.cold.frequency_cutoff", R.Cold.FrequencyCutoff);
  Reg.setCounter("squash.cold.cold_instructions", R.Cold.ColdInstructions);
  Reg.setCounter("squash.cold.total_instructions", R.Cold.TotalInstructions);
  Reg.setGauge("squash.cold.cold_fraction", R.Cold.coldFraction());
  R.Regions.exportMetrics(Reg);
  R.BufferSafe.exportMetrics(Reg);
  R.Unswitch.exportMetrics(Reg);
  R.SP.Footprint.exportMetrics(Reg);
  Reg.setCounter("squash.identity", R.Identity ? 1 : 0);
  Reg.setCounter("squash.cache_slots", R.SP.Layout.CacheSlots);
  uint64_t ByCodec[NumCodecKinds] = {};
  for (const RegionImageInfo &RI : R.SP.Regions)
    if (RI.Codec < NumCodecKinds)
      ++ByCodec[RI.Codec];
  for (unsigned K = 0; K != NumCodecKinds; ++K)
    Reg.setCounter("squash.regions.codec_" +
                       std::string(codecKindName(static_cast<CodecKind>(K))),
                   ByCodec[K]);
}

void squash::collectRunMetrics(vea::MetricsRegistry &Reg,
                               const SquashedRun &Run) {
  vea::exportRunMetrics(Reg, Run.Run);
  Run.Runtime.exportMetrics(Reg);
  Reg.setCounter("runtime.trace_events", Run.Trace.size());
  Reg.setCounter("runtime.trace_dropped", Run.TraceDropped);
}

//===----------------------------------------------------------------------===//
// Predictor seeding
//===----------------------------------------------------------------------===//

void squash::seedPredictorFromEvents(
    RegionPredictor &P, const std::vector<RuntimeSystem::Event> &Events) {
  // Replaying the entry stream through observe() populates the pair and
  // single contexts exactly as the prior run's runtime would have.
  using Kind = RuntimeSystem::Event::Kind;
  for (const RuntimeSystem::Event &E : Events)
    if (E.K == Kind::EnterViaStub || E.K == Kind::EnterViaRestore)
      P.observe(E.Region);
}

void squash::seedPredictorFromHeat(RegionPredictor &P,
                                   const std::vector<RegionHeat> &Report) {
  for (const RegionHeat &H : Report)
    P.seedHeat(H.Region, H.Decompressions + H.BufferedHits);
}
