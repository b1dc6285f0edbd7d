//===- support/Span.h - Causal span tracing + flight recorder --*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Causal span tracing for every layer of the squash stack, and the
/// always-on crash/fault flight recorder built on top of it.
///
/// A Span is a named interval with a parent (same-thread causality), an
/// optional flow id (cross-thread causality: the decode-ahead worker), and
/// dual timestamps — wall-clock nanoseconds for host-side work and
/// simulated Machine cycles for guest-side work. Spans are pushed
/// into per-thread single-producer rings whose slots are seqlocks: the
/// writer never blocks, concurrent snapshot readers detect and skip torn
/// slots, and every access is an atomic load/store so the scheme is clean
/// under ThreadSanitizer.
///
/// Instrumentation sites guard on SpanTracer::enabled(), a single relaxed
/// atomic load, so the compiled-in-but-disabled cost is one predictable
/// branch per site (the acceptance bar is <= 2% on the hot decode loop).
///
/// The FlightRecorder is independent of tracer enablement: when armed it
/// snapshots the calling thread's *live* span stack plus recent runtime
/// events each time a non-OK Status is minted, a Machine faults, or a
/// FaultInjector fault fires — the spans covering the failure are still
/// open (unemitted) at that moment, so the ring alone cannot name them.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SUPPORT_SPAN_H
#define SQUASH_SUPPORT_SPAN_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vea {

/// One completed interval of work. Name and Category must be pointers to
/// storage with static lifetime (string literals): spans cross threads and
/// outlive the scopes that emit them.
struct Span {
  uint64_t Id = 0;        ///< Unique nonzero id.
  uint64_t Parent = 0;    ///< Enclosing span on the same thread (0 = root).
  uint64_t FlowIn = 0;    ///< Incoming cross-thread flow id (0 = none).
  uint64_t FlowOut = 0;   ///< Outgoing cross-thread flow id (0 = none).
  const char *Name = "";  ///< Static-lifetime site name, e.g. "trap.decompress".
  const char *Category = ""; ///< Static-lifetime group, e.g. "runtime".
  uint32_t ThreadId = 0;  ///< Small dense id of the emitting thread.
  uint64_t StartNanos = 0;
  uint64_t EndNanos = 0;
  uint64_t StartCycles = 0; ///< Simulated cycles at entry (0 if host-only).
  uint64_t EndCycles = 0;   ///< Simulated cycles at exit.
  uint64_t ArgA = 0;      ///< Site-defined payload (region, counts, ...).
  uint64_t ArgB = 0;
};

/// Monotonic wall clock in nanoseconds (steady_clock).
uint64_t monotonicNanos();

namespace detail {

/// Number of 64-bit payload words a Span packs into a ring slot.
constexpr size_t SpanWords = 13;

/// A seqlock-protected slot. The single producer bumps Seq to odd, fills
/// the payload, then publishes an even Seq; readers retry/skip on odd or
/// changed Seq. All words are atomics accessed relaxed inside the
/// fence-based protocol, so TSan sees no data race and torn reads are
/// rejected by the Seq recheck rather than silently returned.
struct SpanSlot {
  std::atomic<uint64_t> Seq{0};
  std::atomic<uint64_t> Words[SpanWords];
};

/// Fixed-capacity single-producer span ring owned by the tracer (so it
/// survives the producing thread). Capacity is rounded up to a power of
/// two; once full the oldest slots are overwritten and counted as dropped.
class SpanRing {
public:
  explicit SpanRing(size_t Capacity);

  void push(const Span &S);                ///< Producer thread only.
  bool readSlot(size_t Index, Span &Out) const; ///< Any thread; false = torn.

  size_t capacity() const { return Cap; }
  uint64_t pushed() const { return Pushed.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    uint64_t P = pushed();
    return P > Cap ? P - Cap : 0;
  }

  uint32_t ThreadId = 0;

private:
  size_t Cap;
  size_t Mask;
  std::unique_ptr<SpanSlot[]> Slots;
  std::atomic<uint64_t> Pushed{0};
};

} // namespace detail

/// Process-wide tracer: owns every thread's ring, allocates span/flow ids,
/// and tracks the per-thread stack of open spans (used for parenting and
/// for flight-recorder snapshots of in-flight work).
class SpanTracer {
public:
  static SpanTracer &instance();

  /// The global fast-path gate; a single relaxed load per site.
  static bool enabled() { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Capacity (per thread ring) for rings created after this call. Existing
  /// rings keep their size. Rounded up to a power of two, min 16.
  void setRingCapacity(size_t Capacity);

  /// Allocates a fresh span or flow id (never 0).
  uint64_t nextId() { return NextId.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Id of the innermost open span on this thread (0 = none).
  uint64_t currentSpan() const;

  /// Names + ids of this thread's open spans, outermost first. Used by the
  /// flight recorder to capture in-flight (not-yet-emitted) work.
  std::vector<std::pair<uint64_t, const char *>> liveStack() const;

  /// Pushes/pops the open-span stack; called by SpanScope.
  void pushOpen(uint64_t Id, const char *Name);
  void popOpen();

  /// Emits a completed span into the calling thread's ring (creating and
  /// registering the ring on first use).
  void emit(const Span &S);

  /// Non-destructive merge of every ring, torn slots skipped, sorted by
  /// StartNanos. Safe to call while producers are pushing.
  std::vector<Span> snapshot() const;

  /// Total spans pushed / overwritten-before-read across all rings.
  uint64_t totalEmitted() const;
  uint64_t totalDropped() const;

  /// Drops all rings and resets counters (tests only; no producer may be
  /// mid-push). Thread-local ring handles are invalidated lazily via a
  /// registry epoch, so reuse from surviving threads is safe.
  void reset();

private:
  SpanTracer() = default;

  struct ThreadState;
  ThreadState &threadState();

  static std::atomic<bool> Enabled;

  std::atomic<uint64_t> NextId{0};
  mutable std::mutex RegistryMutex;
  std::vector<std::unique_ptr<detail::SpanRing>> Rings;
  std::atomic<uint64_t> RegistryEpoch{0};
  std::atomic<uint64_t> RingCapacity{1024};
  std::atomic<uint32_t> NextThreadId{0};
};

/// RAII span. Captures enablement at construction: a scope created while
/// tracing is off stays inert even if tracing flips on mid-flight.
class SpanScope {
public:
  SpanScope(const char *Name, const char *Category, uint64_t StartCycles = 0);
  ~SpanScope();

  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  bool active() const { return Active; }
  uint64_t id() const { return S.Id; }

  void setFlow(uint64_t In, uint64_t Out) {
    S.FlowIn = In;
    S.FlowOut = Out;
  }
  void setArgs(uint64_t A, uint64_t B) {
    S.ArgA = A;
    S.ArgB = B;
  }
  void setEndCycles(uint64_t Cycles) { S.EndCycles = Cycles; }

private:
  Span S;
  bool Active = false;
};

/// A single flight-recorder trigger: what fired, plus the calling thread's
/// open-span stack at that instant.
struct FlightTrigger {
  uint64_t Seq = 0;
  uint64_t Nanos = 0;
  std::string Source;  ///< "status" | "machine" | "fault-injector".
  std::string Detail;  ///< Code name / fault description / message.
  std::vector<std::pair<uint64_t, std::string>> LiveSpans; ///< Outermost first.
};

/// Always-on postmortem recorder. Arm it before running suspect work; every
/// non-OK Status, Machine fault, or injected fault then snapshots the live
/// span stack and the last few runtime events into a bounded trigger ring,
/// and dumpJson() renders triggers + a span-ring snapshot as one document.
class FlightRecorder {
public:
  static FlightRecorder &instance();

  static bool armed() { return Armed.load(std::memory_order_relaxed); }
  void arm(size_t MaxTriggers = 64, size_t MaxEvents = 256);
  void disarm();

  /// Trigger hooks (no-ops unless armed).
  void noteStatus(const char *CodeName, const std::string &Message);
  void noteFault(const char *Source, const std::string &Description);

  /// Background feed: recent runtime events (kind/region/addr/cycle) shown
  /// alongside triggers in the dump. No-op unless armed.
  void noteEvent(const char *Kind, uint64_t Region, uint64_t Addr,
                 uint64_t Cycle);

  uint64_t triggerCount() const;

  /// Renders {"triggers":[...],"events":[...],"spans":[...]}; "spans" is a
  /// tracer snapshot taken at dump time.
  std::string dumpJson() const;

  void clear();

private:
  FlightRecorder() = default;

  void record(const char *Source, std::string Detail);

  struct RecordedEvent {
    std::string Kind;
    uint64_t Region, Addr, Cycle;
  };

  static std::atomic<bool> Armed;

  mutable std::mutex Mutex;
  std::vector<FlightTrigger> Triggers; ///< Bounded ring, newest kept.
  std::vector<RecordedEvent> Events;   ///< Bounded ring, newest kept.
  size_t MaxTriggers = 64;
  size_t MaxEvents = 256;
  uint64_t NextSeq = 0;
  uint64_t DroppedTriggers = 0;
};

} // namespace vea

#endif // SQUASH_SUPPORT_SPAN_H
