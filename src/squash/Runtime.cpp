//===- squash/Runtime.cpp - Decompressor runtime service ------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/Runtime.h"

#include "huff/FastDecoder.h"
#include "squash/CodecSelect.h"
#include "squash/CostModel.h"
#include "squash/Observability.h"
#include "support/Checksum.h"
#include "support/Span.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace squash;
using namespace vea;

/// Elapsed host nanoseconds since \p T0.
static uint64_t nanosSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

TrapObserver::~TrapObserver() = default;

RuntimeSystem::RuntimeSystem(const SquashedProgram &SP) : SP(SP) {
  Slots.resize(SP.Layout.StubSlots);
  Cache.resize(std::max(1u, SP.Layout.CacheSlots));
  SlotOfRegion.assign(SP.Regions.size(), -1);
}

RuntimeSystem::~RuntimeSystem() {
  if (PFPool)
    PFPool->wait();
}

void RuntimeSystem::record(const Machine &M, Event::Kind K, uint32_t Region,
                           uint32_t Addr, uint32_t Count) {
  // An armed flight recorder gets the event feed even with tracing off, so
  // a postmortem dump always has the protocol tail leading to the fault.
  if (FlightRecorder::armed())
    FlightRecorder::instance().noteEvent(eventKindName(K), Region, Addr,
                                         M.cycles());
  if (!Tracing)
    return;
  Event E{K, Region, Addr, Count, M.cycles()};
  if (Trace.size() < TraceCap) {
    Trace.push_back(E);
  } else {
    Trace[TraceNext] = E;
    TraceNext = (TraceNext + 1) % TraceCap;
    ++TraceDropped;
  }
}

std::vector<RuntimeSystem::Event> RuntimeSystem::events() const {
  // Before the ring wraps, Trace is already oldest-first; after, the
  // oldest retained event sits at TraceNext.
  std::vector<Event> Out;
  Out.reserve(Trace.size());
  for (size_t I = 0; I != Trace.size(); ++I)
    Out.push_back(Trace[(TraceNext + I) % Trace.size()]);
  return Out;
}

void RuntimeSystem::Stats::exportMetrics(vea::MetricsRegistry &R,
                                         const std::string &Prefix) const {
  R.setCounter(Prefix + "decompressions", Decompressions);
  R.setCounter(Prefix + "region_decodes", RegionDecodes);
  R.setCounter(Prefix + "decoded_instructions", DecodedInstructions);
  R.setCounter(Prefix + "entry_stub_calls", EntryStubCalls);
  R.setCounter(Prefix + "restore_stub_calls", RestoreStubCalls);
  R.setCounter(Prefix + "stub_creates", StubCreates);
  R.setCounter(Prefix + "stub_reuses", StubReuses);
  R.setCounter(Prefix + "buffered_hits", BufferedHits);
  R.setCounter(Prefix + "evictions", Evictions);
  R.setCounter(Prefix + "slot_map_repairs", SlotMapRepairs);
  R.setCounter(Prefix + "resident_crc_mismatches", ResidentCrcMismatches);
  R.setCounter(Prefix + "direct_stub_rewrites", DirectStubRewrites);
  R.setCounter(Prefix + "direct_stub_restores", DirectStubRestores);
  R.setCounter(Prefix + "corrupt_region_recoveries", CorruptRegionRecoveries);
  R.setCounter(Prefix + "max_live_stubs", MaxLiveStubs);
  R.setCounter(Prefix + "live_stubs", LiveStubs);
  R.setCounter(Prefix + "prefetch_launches", PrefetchLaunches);
  R.setCounter(Prefix + "prefetch_hits", PrefetchHits);
  R.setCounter(Prefix + "prefetch_misses", PrefetchMisses);
  R.setCounter(Prefix + "prefetch_wasted", PrefetchWasted);
  R.setCounter(Prefix + "prefetch_late", PrefetchLate);
  R.setCounter(Prefix + "prefetch_corrupt_discards", PrefetchCorruptDiscards);
  for (unsigned K = 0; K != NumCodecKinds; ++K) {
    const std::string Name = codecKindName(static_cast<CodecKind>(K));
    R.setCounter(Prefix + "fills_" + Name, FillsByCodec[K]);
    R.setCounter(Prefix + "decode_cycles_" + Name, DecodeCyclesByCodec[K]);
  }
  R.setCounter(Prefix + "trap_setup_cycles", TrapSetupCyclesTotal);
  for (unsigned K = 0; K != NumCodecKinds; ++K)
    R.setCounter(Prefix + "decode_only_cycles_" +
                     codecKindName(static_cast<CodecKind>(K)),
                 DecodeOnlyCyclesByCodec[K]);
  R.setCounter(Prefix + "icache_flush_cycles", IcacheFlushCyclesTotal);
  R.setCounter(Prefix + "create_stub_cycles", CreateStubCyclesTotal);
  R.setCounter(Prefix + "fast_table_build_ns", FastTableBuildNanos);
  R.setCounter(Prefix + "host_decode_ns", HostDecodeNanos);
  R.setGauge(Prefix + "thrash_ratio", thrashRatio());
  R.setHistogram(Prefix + "trap_cycles", TrapCycles);
  R.setHistogram(Prefix + "decode_cycles", DecodeCycles);
  R.setHistogram(Prefix + "hit_streaks", HitStreaks);
}

Status RuntimeSystem::attach(Machine &M) {
  const RuntimeLayout &L = SP.Layout;

  // Identity images carry no runtime machinery: nothing to validate or
  // register.
  if (L.DecompEnd == L.DecompBase)
    return Status::success();

  // A machine that failed to load the image reports its own fault when
  // run; attaching is a no-op rather than a second error.
  if (M.faulted())
    return Status::success();

  auto Bad = [](const std::string &What) {
    return Status::error(StatusCode::MalformedImage, "attach: " + What);
  };

  // An image from a different format generation would be decoded with the
  // wrong table layout; refuse it outright.
  if (L.FormatVersion != RuntimeLayout::CurrentFormatVersion)
    return Bad("image format version " + std::to_string(L.FormatVersion) +
               " (runtime speaks " +
               std::to_string(RuntimeLayout::CurrentFormatVersion) + ")");

  // Segment ordering and bounds. These checks are cheap and always on.
  const uint32_t Base = SP.Img.Base;
  const uint64_t Limit = SP.Img.limit();
  const uint64_t OffsetTableEnd =
      static_cast<uint64_t>(L.OffsetTableBase) + 4ull * SP.Regions.size();
  const uint64_t StubAreaEnd =
      static_cast<uint64_t>(L.StubAreaBase) +
      4ull * RuntimeLayout::StubSlotWords * L.StubSlots;
  const uint64_t BufferEnd =
      static_cast<uint64_t>(L.BufferBase) + 4ull * L.BufferWords;
  if (L.DecompBase < Base || L.DecompBase % 4 != 0)
    return Bad("decompressor region outside the image");
  if (L.DecompEnd - L.DecompBase < 4 * RuntimeLayout::NumEntryPoints)
    return Bad("decompressor region smaller than its entry points");
  if (L.OffsetTableBase < L.DecompEnd)
    return Bad("offset table overlaps the decompressor");
  if (OffsetTableEnd > L.StubAreaBase)
    return Bad("offset table shorter than the region count");
  if (StubAreaEnd > L.BufferBase)
    return Bad("restore-stub area overlaps the runtime buffer");
  if (L.BufferWords == 0)
    return Bad("runtime buffer has no jump slot");
  if (L.CacheSlots == 0 || L.SlotWords == 0)
    return Bad("decode cache has no slots");
  if (4ull * L.CacheSlots * L.SlotWords != 4ull * L.BufferWords)
    return Bad("runtime buffer inconsistent with its cache slots");
  const uint64_t SlotMapEnd =
      static_cast<uint64_t>(L.SlotMapBase) + 4ull * L.CacheSlots;
  if (L.SlotMapBase < StubAreaEnd)
    return Bad("slot map overlaps the restore-stub area");
  if (SlotMapEnd > L.BufferBase)
    return Bad("slot map overlaps the runtime buffer");
  if (BufferEnd > L.DataBase)
    return Bad("runtime buffer overlaps the data segment");
  if (L.DataBase > L.BlobBase)
    return Bad("data segment overlaps the compressed blob");
  if (static_cast<uint64_t>(L.BlobBase) + L.BlobBytes > Limit)
    return Bad("compressed blob extends past the image");
  if (Limit > M.memBytes())
    return Bad("image extends past simulated memory");

  // Per-region host-side metadata. Cheap and always on.
  uint32_t PrevOffset = 0;
  bool UsesCodec[NumCodecKinds] = {};
  for (size_t R = 0; R != SP.Regions.size(); ++R) {
    const RegionImageInfo &RI = SP.Regions[R];
    if (RI.ExpandedWords + 1 > L.SlotWords)
      return Bad("cache slot too small for region " + std::to_string(R));
    if (RI.BitOffset >= 8ull * L.BlobBytes)
      return Bad("region " + std::to_string(R) +
                 " starts past the end of the blob");
    if (R != 0 && RI.BitOffset <= PrevOffset)
      return Bad("region bit offsets are not strictly increasing");
    PrevOffset = RI.BitOffset;
    if (RI.Codec >= NumCodecKinds)
      return Bad("region " + std::to_string(R) +
                 " names an unknown codec");
    UsesCodec[RI.Codec] = true;
  }

  // The host mirrors of every referenced codec's tables. A truncated or
  // inconsistent table would otherwise surface as a puzzling per-region
  // decode failure at trap time (and, with recovery copies retained, be
  // silently masked). Codecs no region references are not required to be
  // present.
  if (UsesCodec[static_cast<unsigned>(CodecKind::Huffman)])
    if (Status CS = SP.Codecs.validate(); !CS.ok())
      return CS;
  if (UsesCodec[static_cast<unsigned>(CodecKind::Pattern)])
    if (Status CS = SP.Pattern.validate(); !CS.ok())
      return CS;

  // Build (or reuse) the fast-decode tables while we are off the trap
  // path; fastTables() memoizes per codec, so repeat attaches of the same
  // squashed program share one immutable table set. Only Huffman regions
  // have a table-driven path; the other coders decode through their own
  // cursors.
  if (UsesCodec[static_cast<unsigned>(CodecKind::Huffman)] &&
      (SP.Opts.FastDecode || SP.Opts.DecodeAhead)) {
    Tables = SP.Codecs.fastTables(SP.Opts.DecodeTableBits);
    St.FastTableBuildNanos = Tables->buildNanos();
  }
  ArmPrefetchCorrupt = SP.ArmPrefetchCorrupt;
  Memo.assign(SP.Regions.size(), MemoEntry{});

  // Full-content scans of guest memory (optional; the offset table and
  // each region are re-checked lazily on every fill regardless).
  if (SP.Opts.ChecksumAtAttach) {
    for (size_t R = 0; R != SP.Regions.size(); ++R) {
      uint32_t Addr = L.OffsetTableBase + 4 * static_cast<uint32_t>(R);
      uint32_t Word = static_cast<uint32_t>(M.memData()[Addr]) |
                      (static_cast<uint32_t>(M.memData()[Addr + 1]) << 8) |
                      (static_cast<uint32_t>(M.memData()[Addr + 2]) << 16) |
                      (static_cast<uint32_t>(M.memData()[Addr + 3]) << 24);
      if (Word != SP.Regions[R].BitOffset)
        return Status::error(StatusCode::CorruptOffsetTable,
                             "attach: offset table entry " +
                                 std::to_string(R) +
                                 " does not match the region metadata");
    }
    if (crc32(M.memData() + Base, L.StubAreaBase - Base) != L.ImageCrc32)
      return Status::error(StatusCode::MalformedImage,
                           "attach: image checksum mismatch");
    if (crc32(M.memData() + L.BlobBase, L.BlobBytes) != L.BlobCrc32)
      return Status::error(StatusCode::CorruptBlob,
                           "attach: blob checksum mismatch");
  }

  M.registerTrapRange(L.DecompBase, L.DecompEnd, this);
  return Status::success();
}

bool RuntimeSystem::handleTrap(Machine &M, uint32_t PC) {
  // Per-trap charged-cycle latency: no guest instruction retires while a
  // trap is being serviced, so the cycle delta across the dispatch is
  // exactly the work this trap charged. Recording is a bit-width plus an
  // array increment on a preallocated histogram — no allocation, no added
  // simulated cycles (DESIGN.md §13).
  const uint64_t Before = M.cycles();
  uint32_t Index = (PC - SP.Layout.DecompBase) / 4;
  bool Ok;
  if (Index < RuntimeLayout::NumDecompressEntries) {
    SpanScope Sp("trap.decompress", "runtime", Before);
    Ok = decompress(M, Index);
    Sp.setEndCycles(M.cycles());
    Sp.setArgs(CurrentRegion < 0 ? 0 : static_cast<uint64_t>(CurrentRegion),
               Ok);
  } else if (Index < RuntimeLayout::NumEntryPoints) {
    SpanScope Sp("trap.create_stub", "runtime", Before);
    Ok = createStub(M, Index - RuntimeLayout::NumDecompressEntries);
    Sp.setEndCycles(M.cycles());
  } else {
    M.fault("jump into the middle of the decompressor");
    return false;
  }
  if (Ok)
    St.TrapCycles.record(M.cycles() - Before);
  return Ok;
}

/// Computes a branch-format displacement from instruction address \p From
/// to \p Target.
static int32_t dispTo(uint32_t From, uint32_t Target) {
  return (static_cast<int32_t>(Target) - static_cast<int32_t>(From) - 4) / 4;
}

bool RuntimeSystem::evictSlot(Machine &M, uint32_t Slot) {
  CacheSlotState &CS = Cache[Slot];
  if (CS.Region < 0)
    return true;
  if (CS.StubsRewritten && !restoreEntryStubs(M, static_cast<uint32_t>(CS.Region)))
    return false;
  SlotOfRegion[CS.Region] = -1;
  ++St.Evictions;
  record(M, Event::Kind::Evict, static_cast<uint32_t>(CS.Region), Slot);
  if (!M.storeWord(SP.Layout.SlotMapBase + 4 * Slot,
                   RuntimeLayout::SlotMapEmpty))
    return false;
  CS = CacheSlotState{};
  return true;
}

bool RuntimeSystem::rewriteEntryStubs(Machine &M, uint32_t Region,
                                      uint32_t Slot) {
  if (Region >= SP.RegionEntryStubs.size())
    return true;
  const RuntimeLayout &L = SP.Layout;
  bool Any = false;
  for (const EntryStubSite &S : SP.RegionEntryStubs[Region]) {
    uint32_t Target = L.slotDataBase(Slot) + 4 * ((S.Tag & 0xFFFFu) - 1);
    int64_t D = (static_cast<int64_t>(Target) -
                 static_cast<int64_t>(S.Addr) - 4) /
                4;
    if (D < -(1 << 20) || D >= (1 << 20))
      continue; // Too far for a direct branch; this stub keeps trapping.
    if (!M.storeWord(S.Addr, encode(makeBranch(Opcode::Br, RegZero,
                                               static_cast<int32_t>(D)))))
      return false;
    M.icacheFlushRange(S.Addr, 4);
    ++St.DirectStubRewrites;
    Any = true;
  }
  Cache[Slot].StubsRewritten = Any;
  return true;
}

bool RuntimeSystem::restoreEntryStubs(Machine &M, uint32_t Region) {
  if (Region >= SP.RegionEntryStubs.size())
    return true;
  const RuntimeLayout &L = SP.Layout;
  for (const EntryStubSite &S : SP.RegionEntryStubs[Region]) {
    MInst Call = makeBranch(Opcode::Bsr, 25,
                            dispTo(S.Addr, L.decompressEntry(25)));
    if (!M.storeWord(S.Addr, encode(Call)))
      return false;
    M.icacheFlushRange(S.Addr, 4);
    ++St.DirectStubRestores;
  }
  return true;
}

RuntimeSystem::DecodeOutcome
RuntimeSystem::decodeRegionWords(uint32_t Region, const uint8_t *Mem,
                                 std::vector<uint32_t> &Words,
                                 uint64_t &Decoded, DecodeWork *WorkOut,
                                 size_t *EndBitOut) const {
  const RuntimeLayout &L = SP.Layout;
  const RegionImageInfo &RI = SP.Regions[Region];
  Words.clear();
  Words.reserve(RI.ExpandedWords);
  Decoded = 0;
  bool Overrun = false;
  MInst I;
  auto Expand = [&](const MInst &Inst) {
    expandStoredInst(
        L, Inst, L.BufferBase + 4 + 4 * static_cast<uint32_t>(Words.size()),
        Words);
    if (Words.size() > RI.ExpandedWords)
      Overrun = true; // Longer than this region can be: corrupt stream.
  };
  bool DecOk;
  DecodeWork Work;
  const CodecKind Kind = SP.regionCodec(Region);
  if (Kind == CodecKind::Huffman && SP.Opts.FastDecode && Tables) {
    FastDecoder Dec(SP.Codecs, Tables, Mem + L.BlobBase, L.BlobBytes,
                    RI.BitOffset);
    // Chunked batch decode: the decoder's bit cursor stays in registers
    // across each run instead of round-tripping through members per
    // instruction.
    std::array<MInst, 64> Chunk;
    while (!Overrun) {
      const size_t Got = Dec.decodeRun(Chunk.data(), Chunk.size());
      if (!Got)
        break;
      for (size_t K = 0; K != Got && !Overrun; ++K) {
        ++Decoded;
        Expand(Chunk[K]);
      }
    }
    DecOk = Dec.ok();
    Work.Instructions = Decoded;
    if (EndBitOut)
      *EndBitOut = Dec.bitPosition();
  } else {
    // The codec-dispatched slow path: the region's coder hands out a
    // cursor over the shared blob (Huffman regions land here too when
    // fast tables are off).
    std::unique_ptr<RegionCursor> Cur =
        SP.makeRegionCursor(Region, Mem + L.BlobBase, L.BlobBytes);
    while (!Overrun && Cur->next(I)) {
      ++Decoded;
      Expand(I);
    }
    DecOk = Cur->ok();
    Work = Cur->work();
    if (EndBitOut)
      *EndBitOut = Cur->bitPosition();
  }
  if (WorkOut)
    *WorkOut = Work;
  if (!DecOk || Overrun || Words.size() != RI.ExpandedWords)
    return DecodeOutcome::BadStream;
  if (expandedWordsCrc(Words) != RI.Crc32)
    return DecodeOutcome::BadCrc;
  return DecodeOutcome::Ok;
}

const RuntimeSystem::MemoEntry *
RuntimeSystem::memoLookup(const Machine &M, uint32_t Region) const {
  const MemoEntry &E = Memo[Region];
  if (E.Bits.empty())
    return nullptr;
  // The decode is a deterministic function of the bits it consumed, and
  // the memoized words already passed the CRC check; any change to those
  // bytes (self-modifying guest, injected fault) sends the fill back
  // through the full decode and its checks.
  const uint8_t *Span =
      M.memData() + SP.Layout.BlobBase + SP.Regions[Region].BitOffset / 8;
  if (std::memcmp(Span, E.Bits.data(), E.Bits.size()) != 0)
    return nullptr;
  return &E;
}

bool RuntimeSystem::memoHit(const Machine &M, uint32_t Region,
                            std::vector<uint32_t> &Words, uint64_t &Decoded,
                            DecodeWork &Work) const {
  const MemoEntry *E = memoLookup(M, Region);
  if (!E)
    return false;
  Words = E->Words;
  Decoded = E->Decoded;
  Work = E->Work;
  return true;
}

bool RuntimeSystem::consumePrefetch(Machine &M, uint32_t Region,
                                    std::vector<uint32_t> &Words,
                                    uint64_t &Decoded) {
  if (PF.Region < 0)
    return false;
  SpanScope Sp("prefetch.consume", "prefetch", M.cycles());
  Sp.setFlow(PF.FlowId, 0);
  Sp.setArgs(static_cast<uint32_t>(PF.Region), 0);
  if (!PF.Ready.load(std::memory_order_acquire)) {
    // The predicted trap arrived before the worker finished. Join rather
    // than race ahead: the staged decode is consumed (or discarded) at the
    // next fill either way, so simulated behaviour stays deterministic and
    // only this host-timing counter varies run to run.
    ++St.PrefetchLate;
    PFPool->wait();
  }
  const uint32_t Staged = static_cast<uint32_t>(PF.Region);
  PF.Region = -1;
  PF.Ready.store(false, std::memory_order_relaxed);
  if (PF.Ran) {
    St.HostDecodeNanos += PF.Nanos;
    ++St.RegionDecodes;
  }
  if (Staged != Region || !PF.Ok) {
    ++St.PrefetchWasted;
    record(M, Event::Kind::PrefetchDrop, Staged);
    return false;
  }
  if (ArmPrefetchCorrupt && --ArmPrefetchCorrupt == 0 && !PF.Words.empty())
    PF.Words[PF.Words.size() / 2] ^= 0x80u; // Armed fault injection.
  const RegionImageInfo &RI = SP.Regions[Region];
  if (PF.Words.size() != RI.ExpandedWords ||
      expandedWordsCrc(PF.Words) != RI.Crc32) {
    // The staging buffer no longer matches the region's CRC (host memory
    // corruption, or the armed fault above): discard and demand-decode, so
    // a bad prefetch can never reach guest memory.
    ++St.PrefetchCorruptDiscards;
    record(M, Event::Kind::PrefetchDrop, Staged);
    return false;
  }
  Words = std::move(PF.Words);
  Decoded = PF.Decoded;
  ++St.PrefetchHits;
  record(M, Event::Kind::PrefetchHit, Staged);
  Sp.setArgs(Staged, 1);
  return true;
}

void RuntimeSystem::launchPrefetch(Machine &M) {
  if (!SP.Opts.DecodeAhead || PF.Region >= 0)
    return;
  int32_t P = Predictor.predict();
  if (P < 0 || static_cast<size_t>(P) >= SP.Regions.size())
    return;
  if (cacheActive() && SlotOfRegion[P] >= 0)
    return; // Already resident: the fill would be a cache hit anyway.
  PF.Region = P;
  PF.Ok = false;
  PF.Decoded = 0;
  PF.Nanos = 0;
  PF.Ran = false;
  PF.FlowId = SpanTracer::enabled() ? SpanTracer::instance().nextId() : 0;
  PF.Ready.store(false, std::memory_order_relaxed);
  ++St.PrefetchLaunches;
  record(M, Event::Kind::PrefetchLaunch, static_cast<uint32_t>(P));
  {
    SpanScope Launch("prefetch.launch", "prefetch", M.cycles());
    Launch.setFlow(0, PF.FlowId);
    Launch.setArgs(static_cast<uint32_t>(P), 0);
  }
  // A region whose memoized decode still matches the blob needs no worker:
  // stage a copy (an armed staging fault then flips the copy, never the
  // memo) and mark it ready at once.
  if (const MemoEntry *E = memoLookup(M, static_cast<uint32_t>(P))) {
    PF.Words = E->Words;
    PF.Decoded = E->Decoded;
    PF.Ok = true;
    PF.Ready.store(true, std::memory_order_relaxed);
    return;
  }
  if (!PFPool)
    PFPool = std::make_unique<vea::ThreadPool>(1);
  PF.Ran = true;
  // The worker reads only the compressed blob (guest code never writes
  // it), the immutable codec tables, and the PrefetchState fields it owns
  // until the release-store of Ready. It writes nothing to guest memory.
  const uint8_t *Mem = M.memData();
  const uint64_t Flow = PF.FlowId;
  PFPool->enqueue([this, Mem, P, Flow] {
    SpanScope Work("prefetch.decode", "prefetch");
    Work.setFlow(Flow, Flow);
    const auto T0 = std::chrono::steady_clock::now();
    PF.Ok = decodeRegionWords(static_cast<uint32_t>(P), Mem, PF.Words,
                              PF.Decoded) == DecodeOutcome::Ok;
    PF.Nanos = nanosSince(T0);
    Work.setArgs(static_cast<uint32_t>(P), PF.Decoded);
    PF.Ready.store(true, std::memory_order_release);
  });
}

bool RuntimeSystem::fillBuffer(Machine &M, uint32_t Region,
                               uint32_t &SlotOut) {
  const RuntimeLayout &L = SP.Layout;
  const RegionImageInfo &RI = SP.Regions[Region];
  const bool Active = cacheActive();

  // Resident? Re-validate and serve from the slot without re-decoding.
  int32_t Preferred = -1;
  if (Active && SlotOfRegion[Region] >= 0) {
    uint32_t Slot = static_cast<uint32_t>(SlotOfRegion[Region]);
    uint32_t MapWord;
    if (!M.loadWord(L.SlotMapBase + 4 * Slot, MapWord))
      return false;
    if (MapWord != Region) {
      // The guest slot map contradicts the host resident table: mask by
      // invalidating the slot and re-decoding into it.
      ++St.SlotMapRepairs;
      record(M, Event::Kind::SlotMapRepair, Region, Slot);
      Preferred = static_cast<int32_t>(Slot);
    } else if (crc32(M.memData() + L.slotDataBase(Slot),
                     4 * RI.ExpandedWords) == Cache[Slot].Crc) {
      SpanScope Hit("cache.hit", "runtime", M.cycles());
      Cache[Slot].LastUse = ++UseTick;
      ++St.BufferedHits;
      ++HitStreak;
      record(M, Event::Kind::BufferedHit, Region, Slot);
      M.addCycles(SP.Opts.Costs.DecompSetupCycles);
      St.TrapSetupCyclesTotal += SP.Opts.Costs.DecompSetupCycles;
      Hit.setEndCycles(M.cycles());
      Hit.setArgs(Region, Slot);
      CurrentRegion = static_cast<int32_t>(Region);
      SlotOut = Slot;
      return true;
    } else {
      // The slot's words were tampered with since the fill; re-decode in
      // place.
      ++St.ResidentCrcMismatches;
      Preferred = static_cast<int32_t>(Slot);
    }
  }

  // Pick the slot to fill: the region's own (revalidation failure), a free
  // one, or the least recently used.
  SpanScope Fill("region.fill", "runtime", M.cycles());
  uint32_t Slot = 0;
  if (Preferred >= 0) {
    Slot = static_cast<uint32_t>(Preferred);
  } else if (Active) {
    int32_t Free = -1;
    uint32_t Lru = 0;
    uint64_t Oldest = ~0ull;
    for (uint32_t I = 0; I != Cache.size(); ++I) {
      if (Cache[I].Region < 0) {
        Free = static_cast<int32_t>(I);
        break;
      }
      if (Cache[I].LastUse < Oldest) {
        Oldest = Cache[I].LastUse;
        Lru = I;
      }
    }
    if (Free >= 0) {
      Slot = static_cast<uint32_t>(Free);
    } else {
      if (!evictSlot(M, Lru))
        return false;
      Slot = Lru;
    }
  }

  // Fetch the region's bit offset through the in-memory function offset
  // table, as the native decompressor would.
  uint32_t BitOff;
  if (!M.loadWord(L.OffsetTableBase + 4 * Region, BitOff))
    return false;

  // Decode into a host-side staging vector so a corrupt stream never
  // leaves a partially-overwritten buffer; the guest sees either the full
  // region or (on recovery) the retained copy. A staged decode-ahead
  // result stands in for the demand decode only after the offset-table
  // word above and the expanded-words CRC both re-validate; a memoized one
  // only after the word above and the blob bytes it consumed do. Only
  // decodes that passed every check are memoized.
  std::string Corrupt;
  std::vector<uint32_t> Words;
  uint64_t Decoded = 0;
  bool Prefetched = false;
  bool Recovered = false;
  DecodeWork Work;
  if (BitOff != RI.BitOffset || BitOff >= 8ull * L.BlobBytes) {
    Corrupt = "corrupt function offset table entry";
  } else {
    Prefetched = consumePrefetch(M, Region, Words, Decoded);
    if (!Prefetched && SP.Opts.DecodeAhead)
      ++St.PrefetchMisses;
    if (!Prefetched && !memoHit(M, Region, Words, Decoded, Work)) {
      const auto T0 = std::chrono::steady_clock::now();
      DecodeOutcome O;
      size_t EndBit = 0;
      {
        // The per-codec decode child span; its name is the codec's.
        SpanScope Dec(codecKindName(SP.regionCodec(Region)), "decode",
                      M.cycles());
        O = decodeRegionWords(Region, M.memData(), Words, Decoded, &Work,
                              &EndBit);
        Dec.setArgs(Region, Decoded);
      }
      St.HostDecodeNanos += nanosSince(T0);
      ++St.RegionDecodes;
      if (O == DecodeOutcome::Ok) {
        const uint8_t *Blob = M.memData() + L.BlobBase;
        MemoEntry &E = Memo[Region];
        E.Bits.assign(Blob + RI.BitOffset / 8, Blob + (EndBit + 7) / 8);
        E.Words = Words;
        E.Decoded = Decoded;
        E.Work = Work;
      } else if (O == DecodeOutcome::BadStream) {
        Corrupt = "corrupt compressed region " + std::to_string(Region);
      } else {
        Corrupt = "compressed region " + std::to_string(Region) +
                  " failed checksum";
      }
    }
  }

  if (!Corrupt.empty()) {
    // Graceful degradation: refill from the retained uncompressed copy
    // when one exists; otherwise fault.
    if (Region < SP.RecoveryWords.size() &&
        SP.RecoveryWords[Region].size() == RI.ExpandedWords &&
        RI.ExpandedWords != 0) {
      Words = SP.RecoveryWords[Region];
      Decoded = RI.StoredInstructions;
      Recovered = true;
      ++St.CorruptRegionRecoveries;
      record(M, Event::Kind::RecoverFill, Region, Slot);
    } else {
      M.fault(Corrupt);
      return false;
    }
  }

  // Regions are lowered (and their CRCs computed) against slot 0's data
  // base; landing anywhere else slides the external branch displacements.
  if (Status RS = relocateRegionWords(Words, L.slotDataBase(0),
                                      L.slotDataBase(Slot));
      !RS.ok()) {
    M.fault(RS.message());
    return false;
  }

  uint32_t WriteAddr = L.slotDataBase(Slot);
  const uint32_t SlotEnd = L.slotBase(Slot) + 4 * L.SlotWords;
  for (uint32_t Word : Words) {
    if (WriteAddr + 4 > SlotEnd) {
      M.fault("runtime buffer overflow during decompression");
      return false;
    }
    if (!M.storeWord(WriteAddr, Word))
      return false;
    WriteAddr += 4;
  }
  // With a modelled I-cache the freshly written code must be invalidated;
  // the re-fetch misses then carry the flush cost the flat constant used
  // to approximate.
  M.icacheFlushRange(L.slotDataBase(Slot),
                     4 * static_cast<uint32_t>(Words.size()));

  // Host resident table + guest slot map.
  if (Cache[Slot].Region >= 0 &&
      Cache[Slot].Region != static_cast<int32_t>(Region))
    SlotOfRegion[Cache[Slot].Region] = -1; // Paper-mode overwrite.
  Cache[Slot].Region = static_cast<int32_t>(Region);
  Cache[Slot].LastUse = ++UseTick;
  Cache[Slot].Crc = Active ? expandedWordsCrc(Words) : 0;
  Cache[Slot].StubsRewritten = false;
  SlotOfRegion[Region] = static_cast<int32_t>(Slot);
  if (!M.storeWord(L.SlotMapBase + 4 * Slot, Region))
    return false;

  ++St.Decompressions;
  St.DecodedInstructions += Decoded;
  St.HitStreaks.record(HitStreak);
  HitStreak = 0;
  record(M, Event::Kind::Decompress, Region, Slot);
  const CostModel &C = SP.Opts.Costs;
  // A fill served from a staged decode skips the per-instruction decode
  // charge — the decode happened off the trap's critical path — but still
  // pays the setup and icache-flush charges: the words must be copied into
  // the slot and made fetchable either way. A recovery fill replays the
  // retained copy at the baseline per-instruction rate (the codec never
  // ran); a demand fill is charged by the region's codec from its measured
  // decode work.
  const CodecKind ChargeKind = SP.regionCodec(Region);
  const uint64_t DecodePart =
      Prefetched ? 0
      : Recovered
          ? C.CyclesPerDecodedInstr * Decoded
          : codecDecodeCycles(C, ChargeKind, Work);
  // regionFillCharge zeroes the flat flush charge when the machine models
  // the I-cache itself (the invalidation above makes the cost real as
  // fetch misses — charging the constant too would double-count).
  const FillCharge Charge =
      regionFillCharge(C, DecodePart, M.icacheEnabled());
  St.DecodeCycles.record(Charge.total());
  M.addCycles(Charge.total());
  // Ledger mirrors of this charge: setup + per-codec decode + flush sum
  // exactly to the charge (squash/Telemetry.h's conservation identity).
  St.TrapSetupCyclesTotal += Charge.Setup;
  St.DecodeOnlyCyclesByCodec[static_cast<unsigned>(ChargeKind)] +=
      Charge.Decode;
  St.IcacheFlushCyclesTotal += Charge.Flush;
  ++St.FillsByCodec[static_cast<unsigned>(ChargeKind)];
  St.DecodeCyclesByCodec[static_cast<unsigned>(ChargeKind)] +=
      Charge.total();
  CurrentRegion = static_cast<int32_t>(Region);
  Fill.setEndCycles(M.cycles());
  Fill.setArgs(Region, Slot);

  // A freshly resident region's entry stubs can branch straight to the
  // slot until it is evicted.
  if (Active && SP.Opts.DirectResidentStubs &&
      !rewriteEntryStubs(M, Region, Slot))
    return false;

  SlotOut = Slot;
  return true;
}

bool RuntimeSystem::decompress(Machine &M, unsigned Reg) {
  const RuntimeLayout &L = SP.Layout;
  uint32_t TagAddr = M.reg(Reg);
  uint32_t Tag;
  if (!M.loadWord(TagAddr, Tag))
    return false;
  uint32_t Region = Tag >> 16;
  uint32_t Offset = Tag & 0xFFFFu;
  if (Region >= SP.Regions.size() || Offset == 0 ||
      Offset >= L.SlotWords ||
      Offset > SP.Regions[Region].ExpandedWords) {
    M.fault("corrupt decompressor tag");
    return false;
  }

  // A return address inside the stub area means we were entered through a
  // restore stub: drop its reference.
  const uint32_t StubAreaEnd =
      L.StubAreaBase + 4 * RuntimeLayout::StubSlotWords * L.StubSlots;
  bool FromRestoreStub =
      TagAddr >= L.StubAreaBase && TagAddr < StubAreaEnd;
  uint32_t StubBase = 0;
  if (FromRestoreStub) {
    // The only legitimate return address inside the stub area is the word
    // after a slot's call instruction.
    if ((TagAddr - L.StubAreaBase) % (4 * RuntimeLayout::StubSlotWords) !=
        4) {
      M.fault("corrupt restore stub return address");
      return false;
    }
    StubBase = TagAddr - 4;
    uint32_t SlotIdx =
        (StubBase - L.StubAreaBase) / (4 * RuntimeLayout::StubSlotWords);
    StubSlot &Slot = Slots[SlotIdx];
    if (!Slot.Live || Slot.Count == 0) {
      M.fault("return through a dead restore stub");
      return false;
    }
    if (Tag != Slot.Tag) {
      M.fault("corrupt restore stub tag");
      return false;
    }
    ++St.RestoreStubCalls;
    record(M, Event::Kind::EnterViaRestore, Region, TagAddr);
    --Slot.Count;
    if (!M.storeWord(StubBase + 8, Slot.Count))
      return false;
    if (Slot.Count == 0) {
      Slot.Live = false;
      --St.LiveStubs;
      record(M, Event::Kind::StubRelease, Region, StubBase, 0);
    }
  } else {
    // Entered through an entry stub: the tag must be one the rewriter
    // emitted, otherwise the stub (or the register) was corrupted.
    if (!SP.ValidEntryTags.count(Tag)) {
      M.fault("corrupt decompressor tag");
      return false;
    }
    ++St.EntryStubCalls;
    record(M, Event::Kind::EnterViaStub, Region, TagAddr);
  }

  // Make the region resident (cache hit or decode), learn its slot.
  uint32_t CacheSlotIdx = 0;
  const uint64_t FillsBefore = St.Decompressions;
  const uint64_t CyclesBefore = M.cycles();
  if (!fillBuffer(M, Region, CacheSlotIdx))
    return false;
  if (Observer)
    Observer->onRegionEntry(Region, St.Decompressions != FillsBefore,
                            FromRestoreStub, M.cycles() - CyclesBefore);

  // The slot's jump word transfers to the tag's offset within the slot.
  MInst Jump = makeBranch(Opcode::Br, RegZero,
                          static_cast<int32_t>(Offset) - 1);
  if (!M.storeWord(L.slotBase(CacheSlotIdx), encode(Jump)))
    return false;
  M.icacheFlushRange(L.slotBase(CacheSlotIdx), 4);

  // The paper's decompressor sets the return register to the restore
  // stub's address before entering the buffer (Section 2.3).
  if (FromRestoreStub)
    M.setReg(Reg, StubBase);

  M.setPC(L.slotBase(CacheSlotIdx));

  // Feed the predictor and, when decode-ahead is on, stage the predicted
  // next region on the worker before its trap arrives.
  Predictor.observe(Region);
  launchPrefetch(M);
  return true;
}

bool RuntimeSystem::createStub(Machine &M, unsigned Reg) {
  const RuntimeLayout &L = SP.Layout;
  uint32_t BrAddr = M.reg(Reg); // Address of the expansion's BR word.
  if (BrAddr < L.BufferBase + 4 ||
      BrAddr >= L.BufferBase + 4 * L.BufferWords) {
    M.fault("CreateStub called from outside the runtime buffer");
    return false;
  }
  // Keys and tags are slot-relative so a restore stub stays valid no
  // matter which cache slot its region is refilled into later.
  uint32_t CacheSlotIdx = (BrAddr - L.BufferBase) / (4 * L.SlotWords);
  uint32_t CallWordOffset = (BrAddr - L.slotBase(CacheSlotIdx)) / 4;
  if (CallWordOffset == 0) {
    M.fault("CreateStub called from outside the runtime buffer");
    return false;
  }
  int32_t CallerRegion = Cache[CacheSlotIdx].Region;
  if (CallerRegion < 0) {
    M.fault("CreateStub with no region in the buffer");
    return false;
  }
  Cache[CacheSlotIdx].LastUse = ++UseTick; // The slot is executing.

  uint32_t ReturnOffset = CallWordOffset + 1;
  uint32_t Key =
      (static_cast<uint32_t>(CallerRegion) << 16) | CallWordOffset;

  // One restore stub per call site: reuse if it already exists.
  int32_t Found = -1, Free = -1;
  for (size_t I = 0; I != Slots.size(); ++I) {
    if (Slots[I].Live && Slots[I].Key == Key) {
      Found = static_cast<int32_t>(I);
      break;
    }
    if (!Slots[I].Live && Free < 0)
      Free = static_cast<int32_t>(I);
  }

  uint32_t StubAddr;
  if (Found >= 0) {
    ++St.StubReuses;
    StubSlot &Slot = Slots[Found];
    ++Slot.Count;
    StubAddr = L.StubAreaBase +
               4 * RuntimeLayout::StubSlotWords * static_cast<uint32_t>(Found);
    record(M, Event::Kind::StubReuse, static_cast<uint32_t>(CallerRegion),
           StubAddr, Slot.Count);
    if (!M.storeWord(StubAddr + 8, Slot.Count))
      return false;
  } else {
    if (Free < 0) {
      M.fault("restore stub area exhausted");
      return false;
    }
    ++St.StubCreates;
    StubSlot &Slot = Slots[Free];
    Slot.Live = true;
    Slot.Key = Key;
    Slot.Count = 1;
    ++St.LiveStubs;
    St.MaxLiveStubs = std::max(St.MaxLiveStubs, St.LiveStubs);
    StubAddr = L.StubAreaBase +
               4 * RuntimeLayout::StubSlotWords * static_cast<uint32_t>(Free);
    record(M, Event::Kind::StubCreate, static_cast<uint32_t>(CallerRegion),
           StubAddr, 1);
    uint32_t Tag =
        (static_cast<uint32_t>(CallerRegion) << 16) | ReturnOffset;
    Slot.Tag = Tag;
    MInst Call = makeBranch(Opcode::Bsr, Reg,
                            dispTo(StubAddr, L.decompressEntry(Reg)));
    if (!M.storeWord(StubAddr, encode(Call)) ||
        !M.storeWord(StubAddr + 4, Tag) ||
        !M.storeWord(StubAddr + 8, Slot.Count) ||
        !M.storeWord(StubAddr + 12, Key))
      return false;
    M.icacheFlushRange(StubAddr, 4 * RuntimeLayout::StubSlotWords);
  }

  M.setReg(Reg, StubAddr);
  M.addCycles(SP.Opts.Costs.CreateStubCycles);
  St.CreateStubCyclesTotal += SP.Opts.Costs.CreateStubCycles;
  M.setPC(BrAddr);
  return true;
}
