//===- huff/FastDecoder.cpp - Table-driven multi-symbol decode ------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "huff/FastDecoder.h"

#include <algorithm>
#include <chrono>
#include <mutex>

using namespace squash;
using vea::FieldKind;
using vea::MInst;
using vea::Opcode;

static unsigned idx(FieldKind Kind) { return static_cast<unsigned>(Kind); }

static_assert(FastTables::MaxSlots ==
                  std::tuple_size<decltype(vea::FormatLayout::Slots)>::value,
              "fused entries must hold every slot of the widest format");
static_assert(FastTables::MaxBits <= FastTables::FusedConsumedMask,
              "fused consumed counts must fit their control-byte nibble");
static_assert(FastTables::MaxSlots <= FastTables::FusedResolvedMask,
              "fused resolved counts must fit their control-word field");
static_assert(FastTables::MaxSlots <= FastTables::FusedCountMask,
              "format slot counts must fit their control-word field");
static_assert(vea::NumFieldKinds <= (1u << FastTables::FusedKindBits),
              "field kinds must fit their control-word nibbles");
static_assert(FastTables::FusedKindsShift +
                      FastTables::FusedKindBits * (FastTables::MaxSlots - 1) <=
                  32,
              "operand slot kinds must fit the control word");

//===----------------------------------------------------------------------===//
// FastTables
//===----------------------------------------------------------------------===//

std::shared_ptr<const FastTables> FastTables::build(const StreamCodecs &Codecs,
                                                    unsigned Bits) {
  const auto T0 = std::chrono::steady_clock::now();
  Bits = std::clamp(Bits, MinBits, MaxBits);
  std::shared_ptr<FastTables> T(new FastTables());
  T->Bits = Bits;
  const uint32_t Size = 1u << Bits;

  // Per-stream symbol tables: every window beginning with the codeword of
  // symbol s (length L <= Bits) maps to (s, L); the 2^(Bits-L) suffix
  // variants are filled in one run. Codewords longer than the window,
  // windows matching no codeword, and whole absent streams keep the
  // default escape entry (length 0) in the flat arrays.
  T->SymLen.assign(static_cast<size_t>(vea::NumFieldKinds) << Bits, 0);
  T->SymVal.assign(static_cast<size_t>(vea::NumFieldKinds) << Bits, 0);
  for (unsigned K = 0; K != vea::NumFieldKinds; ++K) {
    const CanonicalCode &C = Codecs.code(static_cast<FieldKind>(K));
    if (C.empty())
      continue; // Escape path reports the empty code invalid.
    uint8_t *Len = T->SymLen.data() + (static_cast<size_t>(K) << Bits);
    uint32_t *Val = T->SymVal.data() + (static_cast<size_t>(K) << Bits);
    const std::vector<uint32_t> &N = C.lengthCounts();
    const std::vector<uint32_t> &D = C.values();
    // A window escape conclusively means "codeword longer than the
    // window" only while the fill below never skips a short codeword;
    // track that so escapes can resume the canonical walk at depth Bits.
    bool Conclusive = true;
    uint64_t B = 0; // First codeword of the current length (paper §3).
    size_t J = 0;
    for (unsigned L = 1; L < N.size(); ++L) {
      if (L > 1)
        B = 2 * (B + N[L - 1]);
      if (L > Bits)
        break;
      for (uint32_t I = 0; I != N[L]; ++I) {
        if (J + I >= D.size()) {
          Conclusive = false;
          break; // Truncated value list: those windows stay escapes.
        }
        uint64_t Code = B + I;
        if (Code >= (1ull << L)) {
          Conclusive = false;
          break; // Malformed length counts: ditto.
        }
        const size_t First = static_cast<size_t>(Code << (Bits - L));
        std::fill_n(Len + First, 1u << (Bits - L), static_cast<uint8_t>(L));
        std::fill_n(Val + First, 1u << (Bits - L), D[J + I]);
      }
      J += N[L];
    }
    if (Conclusive && C.maxLength() > Bits) {
      // Escape resume state: B and J of the DECODE() loop after Bits
      // iterations (the probe already rejected every shorter codeword).
      uint64_t EB = 0;
      uint64_t EJ = 0;
      for (unsigned I = 0; I != Bits; ++I) {
        EB = 2 * (EB + N[I]);
        EJ += N[I];
      }
      T->Esc[K] = EscStart{EB, static_cast<uint32_t>(EJ), 1};
    }
  }

  // Fused instruction table: resolve the opcode, then as many operand
  // fields of its format as still fit in the window.
  T->FusedCtl.assign(Size, 0);
  T->FusedVals.assign(Size, {});
  const uint8_t *OpLen =
      T->SymLen.data() + (static_cast<size_t>(idx(FieldKind::Opcode)) << Bits);
  const uint32_t *OpVal =
      T->SymVal.data() + (static_cast<size_t>(idx(FieldKind::Opcode)) << Bits);
  for (uint32_t W = 0; W != Size; ++W) {
    if (!OpLen[W])
      continue; // Opcode escape.
    const uint32_t OpSym = OpVal[W];
    auto &Vals = T->FusedVals[W];
    Vals[0] = OpSym;
    unsigned Resolved = 1;
    unsigned Used = OpLen[W];
    if (OpSym == static_cast<uint32_t>(Opcode::Sentinel)) {
      T->FusedCtl[W] = Used | FusedSentinelBit;
      continue;
    }
    if (OpSym >= vea::NumOpcodes)
      continue; // Escape: the slow path reports the stream corrupt.
    const vea::FormatLayout &Layout =
        vea::formatLayout(vea::formatOf(static_cast<Opcode>(OpSym)));
    uint32_t Kinds = 0;
    for (unsigned S = 1; S < Layout.Count; ++S)
      Kinds |= static_cast<uint32_t>(Layout.Slots[S].Kind)
               << (FusedKindBits * (S - 1));
    for (unsigned S = 1; S < Layout.Count; ++S) {
      unsigned Rem = Bits - Used;
      if (Rem == 0)
        break;
      const uint8_t *FLenTab =
          T->SymLen.data() +
          (static_cast<size_t>(idx(Layout.Slots[S].Kind)) << Bits);
      // The bits after the consumed prefix, left-aligned in a fresh
      // window; positions past Rem are zero padding, so an entry is
      // trustworthy only when its codeword fits in Rem bits.
      const uint32_t SubW = (W << Used) & (Size - 1);
      const unsigned FLen = FLenTab[SubW];
      if (!FLen || FLen > Rem)
        break;
      Vals[S] =
          T->SymVal[(static_cast<size_t>(idx(Layout.Slots[S].Kind)) << Bits) |
                    SubW];
      Resolved = S + 1;
      Used += FLen;
    }
    T->FusedCtl[W] = Used | (Resolved << FusedResolvedShift) |
                     (Layout.Count << FusedCountShift) |
                     (Kinds << FusedKindsShift);
  }

  T->BuildNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  return T;
}

size_t FastTables::tableBytes() const {
  return FusedCtl.size() * sizeof(uint32_t) +
         FusedVals.size() * sizeof(FusedVals[0]) + SymLen.size() +
         SymVal.size() * sizeof(uint32_t);
}

// One global lock: builds are rare (first attach per program) and the
// memo must stay copyable with the codec, which rules out a member
// mutex. Concurrent attaches of the same program synchronize here, as do
// the codec's copy/move special members below.
static std::mutex MemoMutex;

std::shared_ptr<const FastTables> StreamCodecs::fastTables(unsigned Bits) const {
  Bits = std::clamp(Bits, FastTables::MinBits, FastTables::MaxBits);
  std::lock_guard<std::mutex> Lock(MemoMutex);
  if (!FastMemo || FastMemo->bits() != Bits)
    FastMemo = FastTables::build(*this, Bits);
  return FastMemo;
}

// A copied codec never inherits the source's decoder tables: the copy is
// the staging ground for mutation (fault injection), and tables reused by
// pointer would go stale the moment the codes diverge. Starting from an empty memo forces a rebuild on first use.
StreamCodecs::StreamCodecs(const StreamCodecs &Other)
    : Codes(Other.Codes), Stats(Other.Stats) {}

StreamCodecs &StreamCodecs::operator=(const StreamCodecs &Other) {
  if (this == &Other)
    return *this;
  Codes = Other.Codes;
  Stats = Other.Stats;
  std::lock_guard<std::mutex> Lock(MemoMutex);
  FastMemo.reset();
  return *this;
}

// Moves transfer the memo: the source is being retired, so the tables
// keep matching the one live owner. The lock covers the transfer against
// a concurrent fastTables() build on the source.
StreamCodecs::StreamCodecs(StreamCodecs &&Other) noexcept
    : Codes(std::move(Other.Codes)), Stats(std::move(Other.Stats)) {
  std::lock_guard<std::mutex> Lock(MemoMutex);
  FastMemo = std::move(Other.FastMemo);
  Other.FastMemo.reset();
}

StreamCodecs &StreamCodecs::operator=(StreamCodecs &&Other) noexcept {
  if (this == &Other)
    return *this;
  Codes = std::move(Other.Codes);
  Stats = std::move(Other.Stats);
  std::lock_guard<std::mutex> Lock(MemoMutex);
  FastMemo = std::move(Other.FastMemo);
  Other.FastMemo.reset();
  return *this;
}

//===----------------------------------------------------------------------===//
// FastDecoder
//===----------------------------------------------------------------------===//

FastDecoder::FastDecoder(const StreamCodecs &Codecs,
                         std::shared_ptr<const FastTables> Tables,
                         const uint8_t *Data, size_t NumBytes, size_t StartBit)
    : Codecs(Codecs), T(std::move(Tables)), Data(Data), NumBytes(NumBytes),
      Start(StartBit),
      Avail(StartBit <= 8 * NumBytes ? 8 * NumBytes - StartBit : 0),
      NextByte(std::min(StartBit / 8, NumBytes)) {
  if (!T)
    T = FastTables::build(Codecs, FastTables::DefaultBits);
  TBits = T->bits();
  SymLenTab = T->SymLen.data();
  SymValTab = T->SymVal.data();
  FusedCtlTab = T->FusedCtl.data();
  FusedValsTab = T->FusedVals.data();
  refill();
  // Discard the intra-byte prefix so the window starts exactly at
  // StartBit; these bits never count against Consumed.
  if (unsigned Skip = StartBit & 7) {
    Window <<= Skip;
    Have = Skip > Have ? 0 : Have - Skip;
  }
}

bool FastDecoder::escapeSym(FieldKind Kind, uint32_t &Sym) {
  // The paper's DECODE() loop, bit-for-bit identical to
  // CanonicalCode::decode (including the truncated-value-list guard).
  const CanonicalCode &Code = Codecs.code(Kind);
  const std::vector<uint32_t> &N = Code.lengthCounts();
  const std::vector<uint32_t> &D = Code.values();
  if (D.empty())
    return false;
  uint64_t V = 0, B = 0;
  size_t J = 0;
  unsigned I = 0;
  const unsigned MaxLen = Code.maxLength();
  const FastTables::EscStart &E = T->Esc[idx(Kind)];
  if (E.Valid) {
    // The table probe that sent us here already rejected every codeword
    // of length <= TBits, so consume the whole window at once and resume
    // the walk from that depth (bit consumption and loop state match the
    // bit-by-bit walk exactly).
    probeReady();
    V = peek(TBits);
    consume(TBits);
    B = E.B;
    J = E.J;
    I = TBits;
  }
  do {
    if (I >= MaxLen)
      return false;
    V = 2 * V + readBit();
    B = 2 * (B + N[I]);
    J += N[I];
    ++I;
  } while (V >= B + N[I]);
  size_t Idx = J + static_cast<size_t>(V - B);
  if (Idx >= D.size())
    return false;
  Sym = D[Idx];
  return true;
}

bool FastDecoder::decodeSym(FieldKind Kind, uint32_t &Sym) {
  probeReady();
  const uint32_t W = peek(TBits);
  const size_t Ix = (static_cast<size_t>(idx(Kind)) << TBits) | W;
  if (const unsigned Len = SymLenTab[Ix]) {
    consume(Len);
    Sym = SymValTab[Ix];
    return !overran();
  }
  if (!escapeSym(Kind, Sym))
    return false;
  return !overran();
}

bool FastDecoder::decodeField(FieldKind Kind, uint32_t &Value) {
  if (!decodeSym(Kind, Value)) {
    Corrupt = true;
    return false;
  }
  return true;
}

bool FastDecoder::slowNext(MInst &Inst) {
  uint32_t Op;
  if (!decodeField(FieldKind::Opcode, Op))
    return false;
  if (Op == static_cast<uint32_t>(Opcode::Sentinel)) {
    Done = true;
    return false; // Clean end of region.
  }
  if (Op >= vea::NumOpcodes) {
    Corrupt = true;
    return false;
  }
  Inst = MInst(static_cast<Opcode>(Op));
  const vea::FormatLayout &Layout =
      vea::formatLayout(vea::formatOf(static_cast<Opcode>(Op)));
  for (unsigned S = 1; S != Layout.Count; ++S) {
    uint32_t Value;
    if (!decodeField(Layout.Slots[S].Kind, Value))
      return false;
    Inst.set(Layout.Slots[S].Kind, Value);
  }
  return true;
}
