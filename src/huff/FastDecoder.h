//===- huff/FastDecoder.h - Table-driven multi-symbol decode ---*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A table-driven accelerator for the splitting-streams decoder: instead of
/// walking the paper's DECODE() loop one bit at a time, the decoder peeks a
/// Bits-wide window of the stream and resolves one-or-more whole fields per
/// probe from precomputed tables (DESIGN.md §16).
///
/// Two table families, both derived from the canonical codes alone:
///
///  - Per-stream symbol tables: for each field kind, a 2^Bits entry table
///    mapping every window to (symbol, codeword length); windows whose
///    shortest matching codeword is longer than Bits (or that match no
///    codeword) carry an escape entry, and the decoder falls back to the
///    bit-by-bit canonical walk for that one symbol.
///  - A fused instruction table: each window resolves the opcode plus as
///    many operand fields of its format as fit in the window, so a typical
///    instruction costs one or two probes instead of one loop iteration
///    per bit.
///
/// The decoder consumes exactly the bits the canonical decode would, pads
/// the stream with zero bits past its end (matching BitReader's default
/// overrun bit), and reports the same corrupt/clean-end verdicts as
/// StreamCodecs::RegionDecoder on every stream — valid, truncated, or
/// malformed; the fastdecode conformance suite pins this equivalence.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_HUFF_FASTDECODER_H
#define SQUASH_HUFF_FASTDECODER_H

#include "huff/StreamCodec.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace squash {

/// The precomputed lookup tables for one StreamCodecs instance. Immutable
/// once built; shared (via shared_ptr) between every decoder and every
/// attach of the same squashed program.
class FastTables {
public:
  /// Supported probe-window widths. 11 bits covers the overwhelming
  /// majority of codewords on the paper's streams while keeping the fused
  /// table at 2^11 entries; Options::DecodeTableBits is clamped to this
  /// range.
  static constexpr unsigned MinBits = 4;
  static constexpr unsigned MaxBits = 14;
  static constexpr unsigned DefaultBits = 11;

  /// Operand slots of the widest instruction format (opcode included).
  static constexpr size_t MaxSlots = 6;

  /// Tables are split by role so the bit cursor's serial dependence chain
  /// (how many bits did this probe consume? what fields come next?) only
  /// ever loads from small control arrays, while the wide symbol values —
  /// which feed field writes off the critical path — live in separate
  /// value arrays:
  ///
  ///  - Per-stream: one flat byte array of codeword lengths indexed
  ///    [kind << Bits | window] (0 = escape: codeword longer than the
  ///    window, invalid prefix, or empty code) plus a parallel uint32
  ///    array of symbol values. Flat layout means the probe loop needs no
  ///    per-kind pointer load and no null check — absent streams are
  ///    all-zero and escape naturally.
  ///  - Fused: a 2^Bits control word per window packing consumed bit
  ///    count (0 = escape), resolved slot count, sentinel flag, the
  ///    format's slot count, and the field kind of every operand slot (4
  ///    bits each) — the complete per-instruction decode plan, so the
  ///    probe loop neither calls into the ISA's format tables nor waits
  ///    on the larger value table — plus a parallel array of per-slot
  ///    symbol values.
  static constexpr uint32_t FusedConsumedMask = 0x0F;
  static constexpr unsigned FusedResolvedShift = 4;
  static constexpr uint32_t FusedResolvedMask = 0x07;
  static constexpr uint32_t FusedSentinelBit = 0x80;
  static constexpr unsigned FusedCountShift = 8;
  static constexpr uint32_t FusedCountMask = 0x07;
  /// Kinds of operand slots 1..MaxSlots-1, 4 bits per slot from bit 12.
  static constexpr unsigned FusedKindsShift = 12;
  static constexpr unsigned FusedKindBits = 4;

  /// Resume state for the escape path's canonical walk: B (first codeword)
  /// and J (value-list index) of the paper's DECODE() loop after bits()
  /// iterations. Valid only when the stream's table probes conclusively
  /// rule out every codeword of length <= bits() (sane counts and a max
  /// length beyond the window), so an escaping decoder can consume the
  /// whole window at once and continue from that depth.
  struct EscStart {
    uint64_t B = 0;
    uint32_t J = 0;
    uint8_t Valid = 0;
  };

  /// Builds the tables for \p Codecs with a \p Bits-wide window (clamped
  /// to [MinBits, MaxBits]). Safe on structurally invalid codes (see
  /// CanonicalCode::valid): affected windows simply escape to the slow
  /// path, which reports them corrupt.
  static std::shared_ptr<const FastTables> build(const StreamCodecs &Codecs,
                                                 unsigned Bits);

  unsigned bits() const { return Bits; }
  /// Host wall-clock nanoseconds spent constructing the tables.
  uint64_t buildNanos() const { return BuildNs; }
  /// Total host bytes of table storage.
  size_t tableBytes() const;

private:
  friend class FastDecoder;
  FastTables() = default;

  unsigned Bits = DefaultBits;
  uint64_t BuildNs = 0;
  /// Flat per-stream tables, indexed [kind << Bits | window].
  std::vector<uint8_t> SymLen;
  std::vector<uint32_t> SymVal;
  std::array<EscStart, vea::NumFieldKinds> Esc;
  /// Fused control words and per-window slot values.
  std::vector<uint32_t> FusedCtl;
  std::vector<std::array<uint32_t, MaxSlots>> FusedVals;
};

/// Streaming region decoder over the fast tables; drop-in equivalent of
/// StreamCodecs::RegionDecoder (same next()/ok()/bitPosition() surface and
/// verdicts), reading from a raw byte buffer at an arbitrary start bit.
/// The fill path is allocation-free: the only per-call state is the 64-bit
/// window.
class FastDecoder {
public:
  /// \p Tables must come from \p Codecs (fastTables()); passing nullptr
  /// builds a private, unmemoized set at DefaultBits. \p StartBit may be
  /// anywhere in [0, 8*NumBytes]; reads past the end decode zero bits and
  /// flag the stream corrupt, exactly like a BitReader-backed decode.
  FastDecoder(const StreamCodecs &Codecs,
              std::shared_ptr<const FastTables> Tables, const uint8_t *Data,
              size_t NumBytes, size_t StartBit);

  /// Decodes the next instruction into \p Inst. Returns false at the
  /// sentinel or on a corrupt stream (check ok()).
  bool next(vea::MInst &Inst) { return decodeRun(&Inst, 1) == 1; }
  /// Decodes up to \p Max instructions into \p Out, returning how many
  /// were produced; short counts mean sentinel or corruption (check
  /// ok()/atEnd()), never an internal stall. This is the throughput
  /// surface: the bit cursor stays in registers across the whole run
  /// instead of round-tripping through members per instruction. Defined
  /// inline below: the fill loops that drive it (runtime decompression,
  /// the decode benches) live in other translation units, and keeping
  /// the probe chain inlinable there is worth a header-visible body.
  size_t decodeRun(vea::MInst *Out, size_t Max);
  bool ok() const { return !Corrupt; }
  /// True once the region's sentinel has been cleanly consumed.
  bool atEnd() const { return Done; }
  /// Absolute bit offset of the next unconsumed bit (matches the slow
  /// decoder's reader position after each successful next()).
  size_t bitPosition() const { return Start + Consumed; }

private:
  /// First stream byte of an 8-byte window chunk, MSB-aligned.
  static uint64_t loadBe64(const uint8_t *P) {
    uint64_t V;
    std::memcpy(&V, P, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return V;
#else
    return __builtin_bswap64(V);
#endif
  }
  /// Tops the window up to >= 57 valid bits (or to the end of the data).
  /// Away from the stream tail this is one unaligned 8-byte load: bits of
  /// partially counted bytes land below the Have watermark holding their
  /// true stream values, so re-ORing the same bytes on a later refill is
  /// idempotent; only positions past the stream's end stay zero (the
  /// padding BitReader also decodes).
  void refill() {
    if (Have <= 56 && NextByte + 8 <= NumBytes) {
      Window |= loadBe64(Data + NextByte) >> Have;
      const unsigned Bytes = (64 - Have) >> 3;
      NextByte += Bytes;
      Have += 8 * Bytes;
      return;
    }
    while (Have <= 56 && NextByte < NumBytes) {
      Window |= static_cast<uint64_t>(Data[NextByte++]) << (56 - Have);
      Have += 8;
    }
  }
  /// Guarantees the window's top TBits bits are decodable (valid stream
  /// bits, or the zero padding past its end). A full window feeds several
  /// probes, so the common case is one refill per instruction.
  void probeReady() {
    if (Have < TBits)
      refill();
  }
  uint32_t peek(unsigned NumBits) const {
    return static_cast<uint32_t>(Window >> (64 - NumBits));
  }
  void consume(unsigned NumBits) {
    Window <<= NumBits;
    Have = NumBits > Have ? 0 : Have - NumBits;
    Consumed += NumBits;
  }
  /// One bit, zero past the end (the overrun is caught by overran()).
  unsigned readBit() {
    if (!Have)
      refill();
    unsigned Bit = static_cast<unsigned>(Window >> 63);
    consume(1);
    return Bit;
  }
  bool overran() const { return Consumed > Avail; }

  /// Bit-by-bit canonical decode of one symbol (the table escape path),
  /// resuming at window depth when the stream's EscStart allows. Returns
  /// false on an invalid codeword; overrun is checked by the caller.
  bool escapeSym(vea::FieldKind Kind, uint32_t &Sym);
  /// One symbol of stream \p Kind via its table (escaping as needed);
  /// false on invalid codeword or overrun.
  bool decodeSym(vea::FieldKind Kind, uint32_t &Sym);
  /// One field value via decodeSym. Sets Corrupt on failure.
  bool decodeField(vea::FieldKind Kind, uint32_t &Value);
  /// Field-at-a-time instruction decode (the fused-table escape path).
  bool slowNext(vea::MInst &Inst);

  const StreamCodecs &Codecs;
  std::shared_ptr<const FastTables> T;
  /// Raw table pointers hoisted out of the probe loops.
  const uint8_t *SymLenTab = nullptr;  ///< Flat, [kind << TBits | window].
  const uint32_t *SymValTab = nullptr;
  const uint32_t *FusedCtlTab = nullptr;
  const std::array<uint32_t, FastTables::MaxSlots> *FusedValsTab = nullptr;
  unsigned TBits = FastTables::DefaultBits;
  const uint8_t *Data;
  size_t NumBytes;
  size_t Start;       ///< Absolute start bit.
  uint64_t Avail;     ///< Valid bits from Start to the end of the buffer.
  size_t NextByte;    ///< Next byte to shift into the window.
  uint64_t Window = 0; ///< Upcoming bits, MSB-aligned at bit 63.
  unsigned Have = 0;   ///< Valid bits currently in the window.
  uint64_t Consumed = 0;
  bool Corrupt = false, Done = false;
};

inline size_t FastDecoder::decodeRun(vea::MInst *Out, size_t Max) {
  using vea::FieldKind;
  using vea::Opcode;
  if (Corrupt || Done)
    return 0;
  size_t N = 0;

  // The whole run decodes on a local copy of the bit cursor so the probe
  // chain lives in registers: stores into Out (a pointer of unknown
  // provenance) and the uint8_t stream loads would otherwise force the
  // compiler to spill and reload the members around every field. Members
  // are written back once per run — or just before any slow-path
  // handoff, which continues on member state and is reloaded after.
  uint64_t Win = Window;
  unsigned H = Have;
  size_t NB = NextByte;
  uint64_t Cons = Consumed;
  const auto Refill = [&] {
    if (H <= 56 && NB + 8 <= NumBytes) {
      Win |= loadBe64(Data + NB) >> H;
      const unsigned Bytes = (64 - H) >> 3;
      NB += Bytes;
      H += 8 * Bytes;
      return;
    }
    while (H <= 56 && NB < NumBytes) {
      Win |= static_cast<uint64_t>(Data[NB++]) << (56 - H);
      H += 8;
    }
  };
  const auto Commit = [&] {
    Window = Win;
    Have = H;
    NextByte = NB;
    Consumed = Cons;
  };
  const auto Reload = [&] {
    Win = Window;
    H = Have;
    NB = NextByte;
    Cons = Consumed;
  };

  while (N != Max) {
    if (H < TBits)
      Refill();
    const uint32_t W = static_cast<uint32_t>(Win >> (64 - TBits));
    const uint32_t Ctl = FusedCtlTab[W];
    const unsigned C = Ctl & FastTables::FusedConsumedMask;
    if (!C) {
      // Fused escape: decode this one instruction field-at-a-time on
      // member state (the local cursor had not advanced past it), then
      // resume the register cursor.
      Commit();
      if (!slowNext(Out[N]))
        return N;
      ++N;
      Reload();
      continue;
    }
    Win <<= C;
    H = C > H ? 0 : H - C;
    Cons += C;
    if (Cons > Avail) {
      // Some resolved codeword crossed the end of the stream; the
      // bit-serial decoder flags exactly these streams corrupt.
      Commit();
      Corrupt = true;
      return N;
    }
    if (Ctl & FastTables::FusedSentinelBit) {
      Commit();
      Done = true;
      return N;
    }
    // The slot count and every operand slot's field kind ride in the
    // control word, so the probe loop's control flow never waits on the
    // (much larger) value table and never calls into the ISA's format
    // tables.
    const unsigned Resolved = (Ctl >> FastTables::FusedResolvedShift) &
                              FastTables::FusedResolvedMask;
    const unsigned Count =
        (Ctl >> FastTables::FusedCountShift) & FastTables::FusedCountMask;
    uint32_t Kinds = Ctl >> FastTables::FusedKindsShift;
    const std::array<uint32_t, FastTables::MaxSlots> &Vals = FusedValsTab[W];
    vea::MInst &Inst = Out[N];
    Inst = vea::MInst(static_cast<Opcode>(Vals[0]));
    unsigned S = 1;
    for (; S != Resolved; ++S, Kinds >>= FastTables::FusedKindBits) {
      const FieldKind Kind =
          static_cast<FieldKind>(Kinds & ((1u << FastTables::FusedKindBits) - 1));
      // Slots past 0 are never the opcode, so the raw field store skips
      // set()'s opcode-resync branch.
      Inst.Fields[static_cast<unsigned>(Kind)] = Vals[S];
    }
    // Fields past the window: one table probe each on the local cursor,
    // handing the remaining fields to the member-state path on a miss.
    for (; S != Count; ++S, Kinds >>= FastTables::FusedKindBits) {
      const FieldKind Kind =
          static_cast<FieldKind>(Kinds & ((1u << FastTables::FusedKindBits) - 1));
      if (H < TBits)
        Refill();
      const uint32_t FW = static_cast<uint32_t>(Win >> (64 - TBits));
      const size_t Ix = (static_cast<size_t>(Kind) << TBits) | FW;
      const unsigned Len = SymLenTab[Ix];
      if (!Len) {
        // Deep codeword (or an absent stream, which is all-escape):
        // hand off to decodeField, which redoes the probe on committed
        // state and walks the canonical code.
        Commit();
        for (; S != Count; ++S, Kinds >>= FastTables::FusedKindBits) {
          const FieldKind K = static_cast<FieldKind>(
              Kinds & ((1u << FastTables::FusedKindBits) - 1));
          uint32_t Value;
          if (!decodeField(K, Value))
            return N;
          Inst.set(K, Value);
        }
        Reload();
        break;
      }
      Win <<= Len;
      H = Len > H ? 0 : H - Len;
      Cons += Len;
      if (Cons > Avail) {
        Commit();
        Corrupt = true;
        return N;
      }
      Inst.Fields[static_cast<unsigned>(Kind)] = SymValTab[Ix];
    }
    ++N;
  }
  Commit();
  return N;
}

} // namespace squash

#endif // SQUASH_HUFF_FASTDECODER_H
