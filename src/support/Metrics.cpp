//===- support/Metrics.cpp - Named counter/gauge/histogram registry -------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <cassert>
#include <cmath>
#include <cstdio>

using namespace vea;

bool vea::validMetricName(const std::string &Name) {
  if (Name.empty())
    return false;
  for (char C : Name) {
    const unsigned char U = static_cast<unsigned char>(C);
    // Control characters would corrupt both exposition formats (newlines
    // split samples, \0 truncates); quotes and backslashes would need
    // escaping the Prometheus *name* grammar does not allow at all.
    if (U < 0x20 || U == 0x7f || C == '"' || C == '\\')
      return false;
  }
  return true;
}

MetricsRegistry::Entry *MetricsRegistry::entry(const std::string &Name,
                                               Kind K) {
  // Reject rather than sanitize: a sanitized name would silently collide
  // with a legitimate one ("a\nb" and "a_b" must not share storage). The
  // setters return false, the same contract as a kind conflict.
  if (!validMetricName(Name))
    return nullptr;
  auto It = Index.find(Name);
  if (It != Index.end()) {
    Entry &E = Entries[It->second];
    // The kind is fixed at creation: a counter never becomes a gauge (or a
    // histogram) because some later caller reused the name. Surfacing the
    // conflict beats silently reinterpreting the shared storage.
    assert(E.K == K && "metric re-registered with a different kind");
    return E.K == K ? &E : nullptr;
  }
  Index.emplace(Name, Entries.size());
  Entries.push_back(Entry{Name, K, 0, 0.0, nullptr});
  return &Entries.back();
}

const MetricsRegistry::Entry *
MetricsRegistry::find(const std::string &Name) const {
  auto It = Index.find(Name);
  return It == Index.end() ? nullptr : &Entries[It->second];
}

bool MetricsRegistry::setCounter(const std::string &Name, uint64_t Value) {
  Entry *E = entry(Name, Kind::Counter);
  if (!E)
    return false;
  E->U64 = Value;
  return true;
}

bool MetricsRegistry::addCounter(const std::string &Name, uint64_t Delta) {
  Entry *E = entry(Name, Kind::Counter);
  if (!E)
    return false;
  E->U64 += Delta;
  return true;
}

bool MetricsRegistry::setGauge(const std::string &Name, double Value) {
  Entry *E = entry(Name, Kind::Gauge);
  if (!E)
    return false;
  E->Dbl = Value;
  return true;
}

bool MetricsRegistry::setHistogram(const std::string &Name,
                                   const Histogram &H) {
  Entry *E = entry(Name, Kind::Histogram);
  if (!E)
    return false;
  if (E->Hist)
    *E->Hist = H;
  else
    E->Hist = std::make_unique<Histogram>(H);
  return true;
}

bool MetricsRegistry::has(const std::string &Name) const {
  return find(Name) != nullptr;
}

MetricsRegistry::Kind MetricsRegistry::kind(const std::string &Name) const {
  const Entry *E = find(Name);
  return E ? E->K : Kind::Counter;
}

uint64_t MetricsRegistry::counter(const std::string &Name) const {
  const Entry *E = find(Name);
  return E && E->K == Kind::Counter ? E->U64 : 0;
}

double MetricsRegistry::gauge(const std::string &Name) const {
  const Entry *E = find(Name);
  return E && E->K == Kind::Gauge ? E->Dbl : 0.0;
}

const Histogram *MetricsRegistry::histogram(const std::string &Name) const {
  const Entry *E = find(Name);
  return E && E->K == Kind::Histogram ? E->Hist.get() : nullptr;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Entries.size());
  for (const Entry &E : Entries)
    Out.push_back(E.Name);
  return Out;
}

std::string vea::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string vea::formatGauge(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[48];
  // %.17g round-trips every double; %g may print a bare integer, which is
  // still a valid JSON number and a valid Prometheus sample value.
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string vea::prometheusName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size() + 1);
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out += Ok ? C : '_';
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::string MetricsRegistry::toJson() const {
  std::string Out = "{";
  bool First = true;
  for (const Entry &E : Entries) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\"";
    Out += jsonEscape(E.Name);
    Out += "\":";
    switch (E.K) {
    case Kind::Counter: {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    static_cast<unsigned long long>(E.U64));
      Out += Buf;
      break;
    }
    case Kind::Gauge:
      Out += formatGauge(E.Dbl);
      break;
    case Kind::Histogram:
      Out += E.Hist->toJson();
      break;
    }
  }
  Out += "}";
  return Out;
}

/// Escapes a HELP docstring per the exposition format: backslash and
/// newline are the only characters the format requires escaping.
static std::string helpEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string MetricsRegistry::toPrometheus() const {
  std::string Out;
  char Buf[96];
  for (const Entry &E : Entries) {
    const std::string N = prometheusName(E.Name);
    // Every metric gets a HELP line before its TYPE line; the registry
    // name (dots intact) is the docstring, so the mangled Prometheus name
    // stays traceable to its JSON twin.
    Out += "# HELP " + N + " squash metric " + helpEscape(E.Name) + "\n";
    switch (E.K) {
    case Kind::Counter:
      std::snprintf(Buf, sizeof(Buf), " %llu\n",
                    static_cast<unsigned long long>(E.U64));
      Out += "# TYPE " + N + " counter\n" + N + Buf;
      break;
    case Kind::Gauge:
      Out += "# TYPE " + N + " gauge\n" + N + " " + formatGauge(E.Dbl) +
             "\n";
      break;
    case Kind::Histogram: {
      const Histogram &H = *E.Hist;
      Out += "# TYPE " + N + " histogram\n";
      uint64_t Cum = 0;
      for (unsigned I = 0; I != Histogram::NumBuckets; ++I) {
        if (!H.bucketCount(I))
          continue;
        Cum += H.bucketCount(I);
        std::snprintf(Buf, sizeof(Buf), "_bucket{le=\"%llu\"} %llu\n",
                      static_cast<unsigned long long>(
                          Histogram::bucketUpperBound(I)),
                      static_cast<unsigned long long>(Cum));
        Out += N + Buf;
      }
      std::snprintf(Buf, sizeof(Buf), "_bucket{le=\"+Inf\"} %llu\n",
                    static_cast<unsigned long long>(H.count()));
      Out += N + Buf;
      std::snprintf(Buf, sizeof(Buf), "_sum %llu\n",
                    static_cast<unsigned long long>(H.sum()));
      Out += N + Buf;
      std::snprintf(Buf, sizeof(Buf), "_count %llu\n",
                    static_cast<unsigned long long>(H.count()));
      Out += N + Buf;
      break;
    }
    }
  }
  return Out;
}
