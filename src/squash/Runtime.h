//===- squash/Runtime.h - Decompressor runtime service ---------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime half of squash: the decompressor with its per-register entry
/// points, and CreateStub with its reference-counted restore stubs
/// (Sections 2.2 and 2.3). It is implemented as a simulator trap service
/// occupying the reserved decompressor region of the squashed image; all of
/// its *state* (restore stubs, the runtime buffer, the function offset
/// table, the compressed blob) lives in simulated memory and is executed /
/// read by the simulated program for real — only the decoder logic runs
/// natively, with its work charged to the cycle counter through the cost
/// model.
///
/// Entry points (mirroring "multiple entry points, one per possible return
/// address register"):
///   DecompBase + 4*r        : Decompress, return address in register r
///   DecompBase + 4*(32+r)   : CreateStub, return address in register r
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_RUNTIME_H
#define SQUASH_SQUASH_RUNTIME_H

#include "sim/Machine.h"
#include "squash/Rewriter.h"
#include "support/Histogram.h"
#include "support/Metrics.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace squash {

/// Online region-transition predictor feeding the decode-ahead prefetcher
/// (Options::DecodeAhead, DESIGN.md §16). Second-order Markov model over
/// the decompressor's trap stream: the pair context (prev2, prev1) is
/// consulted first — it disambiguates hub-and-spoke patterns like the
/// thrash workload's M→{f0,f1,f2} rotation, where first-order counts tie —
/// then the first-order context, then global heat. All counts are
/// maintained with an incremental argmax (ties break toward the lowest
/// region id), so predict() is O(1) and fully deterministic.
///
/// The maps can be pre-seeded before any trap fires: from a prior run's
/// trace or heat report, or from a DriftMonitor's live counts
/// (squash/Observability.h's seedPredictor* helpers).
class RegionPredictor {
public:
  /// Feeds one observed decompressor entry into every context.
  void observe(uint32_t Region) {
    Heat.add(Region, 1);
    if (Prev1 >= 0)
      Single[static_cast<uint32_t>(Prev1)].add(Region, 1);
    if (Prev2 >= 0)
      Pair[pairKey(static_cast<uint32_t>(Prev2),
                   static_cast<uint32_t>(Prev1))]
          .add(Region, 1);
    Prev2 = Prev1;
    Prev1 = static_cast<int32_t>(Region);
  }

  /// Most likely next region given the current context, or -1 when no
  /// context has any counts yet.
  int32_t predict() const {
    if (Prev2 >= 0) {
      auto It = Pair.find(pairKey(static_cast<uint32_t>(Prev2),
                                  static_cast<uint32_t>(Prev1)));
      if (It != Pair.end() && It->second.Best >= 0)
        return It->second.Best;
    }
    if (Prev1 >= 0) {
      auto It = Single.find(static_cast<uint32_t>(Prev1));
      if (It != Single.end() && It->second.Best >= 0)
        return It->second.Best;
    }
    return Heat.Best;
  }

  /// Seeds the first-order context (e.g. from a prior run's trace).
  void seedTransition(uint32_t From, uint32_t To, uint64_t Weight = 1) {
    if (Weight)
      Single[From].add(To, Weight);
  }
  /// Seeds the global-heat fallback (e.g. from a heat report or a
  /// DriftMonitor's live entry counts).
  void seedHeat(uint32_t Region, uint64_t Weight) {
    if (Weight)
      Heat.add(Region, Weight);
  }

private:
  struct Context {
    std::unordered_map<uint32_t, uint64_t> Counts;
    int32_t Best = -1;
    uint64_t BestCount = 0;
    void add(uint32_t To, uint64_t Weight) {
      uint64_t C = Counts[To] += Weight;
      if (C > BestCount ||
          (C == BestCount && To < static_cast<uint32_t>(Best)))
        Best = static_cast<int32_t>(To), BestCount = C;
    }
  };
  static uint64_t pairKey(uint32_t A, uint32_t B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  }
  std::unordered_map<uint64_t, Context> Pair;
  std::unordered_map<uint32_t, Context> Single;
  Context Heat;
  int32_t Prev1 = -1, Prev2 = -1;
};

/// Observer of the runtime's Decompress traps, invoked synchronously from
/// the trap path (so implementations must stay allocation-free and cheap).
/// squash/DriftMonitor uses this to accumulate live region heat online,
/// without waiting for the bounded trace ring — which drops old events —
/// to be drained after the run.
class TrapObserver {
public:
  virtual ~TrapObserver();

  /// Called once per Decompress-entry trap, after \p Region became
  /// resident. \p Filled is false when the decode cache served the entry
  /// without re-decoding; \p ViaRestore is true when the trap came through
  /// a restore stub (a call returning into an evicted region) rather than
  /// an entry stub — a cache-pressure artifact, not a fresh region entry;
  /// \p ChargedCycles is the simulated cycle cost the entry added (fill +
  /// setup, or the hit's setup charge).
  virtual void onRegionEntry(uint32_t Region, bool Filled, bool ViaRestore,
                             uint64_t ChargedCycles) = 0;
};

class RuntimeSystem : public vea::TrapHandler {
public:
  struct Stats {
    uint64_t Decompressions = 0;       ///< Region fills.
    uint64_t RegionDecodes = 0; ///< Host decodes actually run: demand
                                ///< decodes plus consumed worker decodes
                                ///< (decode-memo hits and memo-staged
                                ///< prefetches run none).
    uint64_t DecodedInstructions = 0;  ///< Instructions decoded into buffer.
    uint64_t EntryStubCalls = 0;       ///< Decompress from an entry stub.
    uint64_t RestoreStubCalls = 0;     ///< Decompress from a restore stub.
    uint64_t StubCreates = 0;
    uint64_t StubReuses = 0;
    uint64_t BufferedHits = 0; ///< Fills skipped: region was resident.
    uint64_t Evictions = 0;    ///< Resident regions displaced by a fill
                               ///< while the decode cache was active.
    uint64_t SlotMapRepairs = 0; ///< Guest slot-map words that disagreed
                                 ///< with the host resident table and were
                                 ///< invalidated (fill repeated).
    uint64_t ResidentCrcMismatches = 0; ///< Resident slots that failed
                                        ///< re-validation and were refilled.
    uint64_t DirectStubRewrites = 0; ///< Entry stubs turned into direct
                                     ///< branches on residency.
    uint64_t DirectStubRestores = 0; ///< ... restored to bsr on eviction.
    uint64_t CorruptRegionRecoveries = 0; ///< Fills served from the
                                          ///< recovery copy after a failed
                                          ///< integrity check.
    uint32_t MaxLiveStubs = 0;
    uint32_t LiveStubs = 0;

    /// Decode-ahead accounting (Options::DecodeAhead; all zero when off).
    uint64_t PrefetchLaunches = 0; ///< Predictions staged on the worker.
    uint64_t PrefetchHits = 0;     ///< Fills served from a staged decode.
    uint64_t PrefetchMisses = 0;   ///< Fills that had to demand-decode.
    uint64_t PrefetchWasted = 0;   ///< Staged decodes for the wrong region
                                   ///< (or that failed in-flight).
    uint64_t PrefetchLate = 0;     ///< Fills that had to wait for the
                                   ///< in-flight worker (host timing only;
                                   ///< never asserted by tests).
    uint64_t PrefetchCorruptDiscards = 0; ///< Staged decodes discarded by
                                          ///< the consume-time CRC check.

    /// Per-codec fill accounting (indexed by CodecKind): how many region
    /// fills each coder served and the total decode cycles charged for
    /// them. With the default all-Huffman image only index 0 moves.
    std::array<uint64_t, NumCodecKinds> FillsByCodec = {};
    std::array<uint64_t, NumCodecKinds> DecodeCyclesByCodec = {};

    /// Cycle-attribution ledger counters (squash/Telemetry.h). Each counter
    /// is incremented adjacent to the M.addCycles() call it mirrors, so the
    /// conservation identity
    ///   Machine cycles == retired instructions
    ///                     + TrapSetupCyclesTotal
    ///                     + sum(DecodeOnlyCyclesByCodec)
    ///                     + IcacheFlushCyclesTotal
    ///                     + CreateStubCyclesTotal
    /// holds for every run outcome, faults included.
    uint64_t TrapSetupCyclesTotal = 0; ///< DecompSetupCycles per entry (hit
                                       ///< or fill alike).
    std::array<uint64_t, NumCodecKinds> DecodeOnlyCyclesByCodec = {};
                                       ///< Pure decode work, net of setup
                                       ///< and flush (0 on prefetch hits).
    uint64_t IcacheFlushCyclesTotal = 0; ///< Post-fill flush charges.
    uint64_t CreateStubCyclesTotal = 0;  ///< CreateStub trap charges.

    /// Host wall-clock spent building the fast-decode tables at attach
    /// (one-time, memoized across attaches of the same program).
    uint64_t FastTableBuildNanos = 0;
    /// Host wall-clock spent decoding regions (demand fills plus consumed
    /// prefetch work) — the measured-time companion of DecodeCycles.
    uint64_t HostDecodeNanos = 0;

    /// Latency distributions (DESIGN.md §13). Histograms are fixed-size
    /// members — preallocated with the Stats object when the runtime is
    /// constructed — so hot-path recording is a couple of arithmetic ops
    /// and never allocates.
    vea::Histogram TrapCycles;   ///< Charged cycles per decompressor trap.
    vea::Histogram DecodeCycles; ///< Charged decode cycles per region fill.
    vea::Histogram HitStreaks;   ///< Resident (no-decode) entries served
                                 ///< between consecutive fills; recorded at
                                 ///< each fill, so 0 means the fill had no
                                 ///< cache hits before it.

    /// Fills as a fraction of decompression requests: 1.0 means every
    /// entry re-decoded (the paper's always-thrash behaviour), lower means
    /// the decode cache absorbed re-entries.
    double thrashRatio() const {
      uint64_t Requests = Decompressions + BufferedHits;
      return Requests ? static_cast<double>(Decompressions) / Requests : 0.0;
    }

    /// Registers every counter under \p Prefix (DESIGN.md §12).
    void exportMetrics(vea::MetricsRegistry &R,
                       const std::string &Prefix = "runtime.") const;
  };

  /// One runtime event, recorded when tracing is enabled: the observable
  /// protocol of Sections 2.2/2.3 (used by tests and the inspector).
  struct Event {
    enum class Kind : uint8_t {
      Decompress,   ///< Region filled into the buffer.
      BufferedHit,  ///< Fill skipped: region already resident.
      EnterViaStub, ///< Decompress entered from an entry stub.
      EnterViaRestore, ///< ... from a restore stub (refcount dropped).
      StubCreate,   ///< New restore stub allocated.
      StubReuse,    ///< Existing restore stub's count incremented.
      StubRelease,  ///< Count reached zero; slot freed.
      RecoverFill,  ///< Region failed its integrity check; buffer was
                    ///< refilled from the retained recovery copy.
      Evict,        ///< A resident region was displaced from its cache
                    ///< slot (decode cache active only).
      SlotMapRepair, ///< Guest slot-map word contradicted the host table;
                     ///< the slot was invalidated and refilled.
      PrefetchLaunch, ///< Decode-ahead staged a predicted region.
      PrefetchHit,    ///< A fill consumed the staged decode.
      PrefetchDrop,   ///< The staged decode was discarded (mispredicted,
                      ///< failed in-flight, or failed the consume-time
                      ///< CRC check).
    };
    Kind K;
    uint32_t Region = 0; ///< Region involved (Decompress/Enter kinds).
    uint32_t Addr = 0;   ///< Stub/tag address or cache-slot index.
    uint32_t Count = 0;  ///< Refcount after the operation (Stub kinds).
    uint64_t Cycle = 0;  ///< Machine cycle count when recorded (timestamp
                         ///< for the Chrome-trace exporter).
  };

  /// Default trace ring capacity (events, not bytes).
  static constexpr uint32_t DefaultTraceCapacity = 1u << 16;

  explicit RuntimeSystem(const SquashedProgram &SP);

  /// Joins any in-flight decode-ahead work before the members it reads
  /// (the machine's memory is captured by pointer at launch) can go away.
  /// Callers keep the usual order — runtime declared after the machine —
  /// so this drain always precedes the machine's destruction.
  ~RuntimeSystem() override;

  /// Starts recording events into a bounded ring of \p Capacity events.
  /// When the ring is full the oldest event is overwritten (the newest
  /// events are always retained) and droppedEvents() counts the loss, so
  /// host memory for the trace is O(Capacity) no matter how long the
  /// workload runs.
  void enableTrace(uint32_t Capacity = DefaultTraceCapacity) {
    Tracing = true;
    TraceCap = std::max(1u, Capacity);
    Trace.clear();
    Trace.reserve(std::min<uint32_t>(TraceCap, 1024));
    TraceNext = 0;
    TraceDropped = 0;
  }

  /// The retained events, oldest first. With overflow this is the newest
  /// traceCapacity() events of the run.
  std::vector<Event> events() const;

  /// Events overwritten because the ring was full.
  uint64_t droppedEvents() const { return TraceDropped; }
  uint32_t traceCapacity() const { return TraceCap; }
  /// Total events recorded, including overwritten ones.
  uint64_t totalEvents() const { return Trace.size() + TraceDropped; }

  /// Validates the squashed image inside \p M — segment ordering and
  /// bounds, offset-table consistency, and (when Options::ChecksumAtAttach
  /// is set) the image and blob CRC32s — then registers this service's trap
  /// range. Call before running. On failure nothing is registered, so
  /// entry-stub calls land on the decompressor region's zero sentinel words
  /// and fault cleanly instead of executing a corrupt image.
  vea::Status attach(vea::Machine &M);

  bool handleTrap(vea::Machine &M, uint32_t PC) override;

  /// Registers \p O to be called on every Decompress-entry trap (nullptr
  /// detaches). The observer is invoked synchronously on the trap path.
  void setTrapObserver(TrapObserver *O) { Observer = O; }

  const Stats &stats() const { return St; }

  /// The decode-ahead region predictor. Exposed for pre-seeding (see
  /// squash/Observability.h's seedPredictor* helpers) and for tests that
  /// steer the prediction deliberately; the runtime feeds it every
  /// decompressor entry whether or not DecodeAhead is on.
  RegionPredictor &predictor() { return Predictor; }
  const RegionPredictor &predictor() const { return Predictor; }

  /// Region most recently entered through the decompressor (-1 before the
  /// first decompression). With a multi-slot cache this is the MRU
  /// resident region, not the only one.
  int32_t currentRegion() const { return CurrentRegion; }

  /// Region resident in cache slot \p Slot, or -1 when the slot is empty.
  int32_t residentRegion(uint32_t Slot) const {
    return Slot < Cache.size() ? Cache[Slot].Region : -1;
  }

private:
  bool decompress(vea::Machine &M, unsigned Reg);
  bool createStub(vea::Machine &M, unsigned Reg);
  /// Makes \p Region resident (serving it from its slot when possible) and
  /// reports the slot it occupies through \p SlotOut.
  bool fillBuffer(vea::Machine &M, uint32_t Region, uint32_t &SlotOut);
  bool evictSlot(vea::Machine &M, uint32_t Slot);
  bool rewriteEntryStubs(vea::Machine &M, uint32_t Region, uint32_t Slot);
  bool restoreEntryStubs(vea::Machine &M, uint32_t Region);

  /// Decodes region \p Region from the blob in \p Mem into \p Words
  /// (slot-0-relative expanded words), dispatching through the region's
  /// recorded codec — the table-driven fast decoder for Huffman regions
  /// when enabled, the codec's streaming cursor otherwise. Shared by the
  /// demand fill path and the decode-ahead worker. \p WorkOut, when
  /// non-null, receives the decode-work breakdown the cost model prices;
  /// \p EndBitOut, when non-null, the blob bit just past the last one the
  /// decode consumed.
  enum class DecodeOutcome { Ok, BadStream, BadCrc };
  DecodeOutcome decodeRegionWords(uint32_t Region, const uint8_t *Mem,
                                  std::vector<uint32_t> &Words,
                                  uint64_t &Decoded,
                                  DecodeWork *WorkOut = nullptr,
                                  size_t *EndBitOut = nullptr) const;
  struct MemoEntry;
  /// The memo entry of \p Region when the blob bytes its decode consumed
  /// are still byte-identical in \p M; null otherwise.
  const MemoEntry *memoLookup(const vea::Machine &M, uint32_t Region) const;
  /// Serves a demand fill of \p Region from the decode memo (memoLookup).
  bool memoHit(const vea::Machine &M, uint32_t Region,
               std::vector<uint32_t> &Words, uint64_t &Decoded,
               DecodeWork &Work) const;
  /// Hands the staged decode-ahead result to a fill of \p Region. Returns
  /// true only when the staged region matches and re-passes the
  /// expanded-words CRC check; any failure consumes (discards) the staging
  /// so the caller demand-decodes — prefetch can therefore never change
  /// what the guest observes.
  bool consumePrefetch(vea::Machine &M, uint32_t Region,
                       std::vector<uint32_t> &Words, uint64_t &Decoded);
  /// Predicts the next region and stages its decode: a copy of its memo
  /// entry when that still matches the blob, a decode on the worker thread
  /// otherwise (no-op when DecodeAhead is off, a staging is pending, or the
  /// prediction is already resident).
  void launchPrefetch(vea::Machine &M);

  /// The decode cache serves resident regions without re-decoding only in
  /// these configurations; at the defaults (one slot, no reuse) every
  /// request re-decodes, reproducing the paper's protocol exactly.
  bool cacheActive() const {
    return SP.Opts.ReuseBufferedRegion || SP.Layout.CacheSlots > 1;
  }

  const SquashedProgram &SP;
  Stats St;

  /// The decode memo (DESIGN.md §3): per region, the last demand decode
  /// that passed every check, keyed by a copy of the blob bytes it
  /// consumed. Host time only — a fill served from it is charged the same
  /// DecodeWork as the decode it replays. Reset at every attach.
  struct MemoEntry {
    std::vector<uint8_t> Bits; ///< Blob bytes [BitOffset/8, ceil(end/8)).
    std::vector<uint32_t> Words; ///< Slot-0 expanded words.
    uint64_t Decoded = 0;
    DecodeWork Work;
  };
  std::vector<MemoEntry> Memo; ///< Indexed by region; empty Bits = none.
  int32_t CurrentRegion = -1;
  TrapObserver *Observer = nullptr;
  uint64_t HitStreak = 0; ///< Resident hits since the last fill.

  /// Memoized fast-decode tables (built once at attach when FastDecode or
  /// DecodeAhead is on; immutable, shared with the prefetch worker).
  std::shared_ptr<const FastTables> Tables;

  RegionPredictor Predictor;
  /// Decode-ahead staging. The worker thread owns every field except Ready
  /// from launch until it stores Ready with release order; the trap thread
  /// reads them only after acquiring Ready (or after ThreadPool::wait(),
  /// which also synchronizes), so there is no lock on the fill path.
  struct PrefetchState {
    int32_t Region = -1; ///< Staged region; -1 when idle (trap thread's
                         ///< view — set at launch, cleared at consume).
    std::vector<uint32_t> Words;
    uint64_t Decoded = 0;
    uint64_t Nanos = 0; ///< Host wall-clock the staged decode took.
    bool Ran = false;   ///< A worker decode ran (false: a memo copy).
    uint64_t FlowId = 0; ///< Span flow id linking launch → worker →
                         ///< consume (written by the trap thread before
                         ///< the worker is enqueued).
    bool Ok = false;    ///< Decode succeeded and passed the words CRC.
    std::atomic<bool> Ready{false};
  };
  PrefetchState PF;
  /// Single-threaded pool running the staged decodes; created lazily on
  /// the first launch so runs without DecodeAhead never spawn a thread.
  std::unique_ptr<vea::ThreadPool> PFPool;
  /// Countdown to the armed prefetch corruption (copied from
  /// SquashedProgram::ArmPrefetchCorrupt at attach).
  uint32_t ArmPrefetchCorrupt = 0;

  /// Host mirror of the decode cache: per slot, the resident region, an
  /// LRU tick, and the CRC of the slot-relocated words written at fill
  /// time (re-checked before a hit is served; computed only while the
  /// cache is active, since nothing else reads it).
  struct CacheSlotState {
    int32_t Region = -1;
    uint64_t LastUse = 0;
    uint32_t Crc = 0;
    bool StubsRewritten = false;
  };
  std::vector<CacheSlotState> Cache;
  std::vector<int32_t> SlotOfRegion; ///< Per region: its slot, or -1.
  uint64_t UseTick = 0;

  struct StubSlot {
    bool Live = false;
    uint32_t Key = 0;   ///< (region << 16) | call-site buffer word offset.
    uint32_t Count = 0; ///< Reference count (mirrored in memory word 2).
    uint32_t Tag = 0;   ///< Tag written to memory word 1; the in-memory
                        ///< copy is cross-checked against this on reentry.
  };
  std::vector<StubSlot> Slots;

  /// Appends to the trace ring, stamping the machine's cycle counter.
  /// Overwrites the oldest event (counting the drop) once the ring holds
  /// traceCapacity() events. Out of line because it also feeds an armed
  /// flight recorder (which wants events even with tracing off).
  void record(const vea::Machine &M, Event::Kind K, uint32_t Region,
              uint32_t Addr = 0, uint32_t Count = 0);
  bool Tracing = false;
  uint32_t TraceCap = DefaultTraceCapacity;
  size_t TraceNext = 0;      ///< Oldest element once the ring wrapped.
  uint64_t TraceDropped = 0; ///< Events overwritten after overflow.
  std::vector<Event> Trace;  ///< Ring storage (append until TraceCap).
};

} // namespace squash

#endif // SQUASH_SQUASH_RUNTIME_H
