//===- huff/PatternCodec.cpp - n-gram pattern-table coder -----------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "huff/PatternCodec.h"

#include <algorithm>
#include <map>

using namespace vea;

namespace squash {

namespace {

/// Region instruction sequences as encoded words, the mining/matching
/// representation (exact word equality is pattern equality).
std::vector<uint32_t> toWords(const std::vector<MInst> &Insts) {
  std::vector<uint32_t> Words;
  Words.reserve(Insts.size());
  for (const MInst &I : Insts)
    Words.push_back(encode(I));
  return Words;
}

/// Match-priority ordering of dictionary entries: longest first so greedy
/// parsing maximizes coverage, ties by word sequence for determinism.
bool patternBefore(const std::vector<uint32_t> &A,
                   const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() > B.size();
  return A < B;
}

/// One mined n-gram: a fixed-width key (words past Len stay zero), its
/// length, and its occurrence count.
struct Gram {
  std::array<uint32_t, PatternCodec::MaxLen> Words{};
  uint32_t Len = 0;
  uint64_t Count = 0;

  /// patternBefore on the fixed-width key.
  bool before(const Gram &O) const {
    if (Len != O.Len)
      return Len > O.Len;
    return std::lexicographical_compare(Words.begin(), Words.begin() + Len,
                                        O.Words.begin(),
                                        O.Words.begin() + O.Len);
  }
};

/// Counts every MinLen..MaxLen-gram of a corpus in one open-addressed
/// table. The table is sized up front from the corpus's n-gram positions
/// (an upper bound on distinct keys), so counting never rehashes; slots
/// hold a key hash and an index into the dense Grams array, which is all
/// ranking walks. Hash order never reaches the output: ranking sorts with
/// a total order over the keys.
class GramCounter {
public:
  explicit GramCounter(const std::vector<std::vector<uint32_t>> &Regions) {
    size_t Positions = 0;
    for (const auto &Words : Regions)
      for (size_t Len = PatternCodec::MinLen;
           Len <= PatternCodec::MaxLen && Len <= Words.size(); ++Len)
        Positions += Words.size() - Len + 1;
    size_t Cap = 16;
    while (Cap < 2 * Positions)
      Cap <<= 1;
    Slots.assign(Cap, Slot());
    Mask = Cap - 1;
    Grams.reserve(Positions);
    for (const auto &Words : Regions)
      countRegion(Words);
  }

  std::vector<Gram> take() { return std::move(Grams); }

private:
  struct Slot {
    uint32_t Hash = 0;
    uint32_t Index = Empty;
  };
  static constexpr uint32_t Empty = 0xFFFFFFFFu;

  /// Extends the running hash of a window by one word.
  static uint64_t mix(uint64_t H, uint32_t Word) {
    H = (H ^ Word) * 0x9E3779B97F4A7C15ull;
    return H ^ (H >> 29);
  }

  void countRegion(const std::vector<uint32_t> &Words) {
    for (size_t At = 0; At != Words.size(); ++At) {
      const size_t Longest =
          std::min<size_t>(PatternCodec::MaxLen, Words.size() - At);
      uint64_t H = 0;
      for (size_t Len = 1; Len <= Longest; ++Len) {
        H = mix(H, Words[At + Len - 1]);
        if (Len >= PatternCodec::MinLen)
          bump(&Words[At], static_cast<uint32_t>(Len), H);
      }
    }
  }

  void bump(const uint32_t *Words, uint32_t Len, uint64_t H64) {
    const uint32_t H = static_cast<uint32_t>(H64 ^ (H64 >> 32)) ^ Len;
    for (size_t S = H & Mask;; S = (S + 1) & Mask) {
      Slot &Sl = Slots[S];
      if (Sl.Index == Empty) {
        Sl = {H, static_cast<uint32_t>(Grams.size())};
        Gram G;
        std::copy(Words, Words + Len, G.Words.begin());
        G.Len = Len;
        G.Count = 1;
        Grams.push_back(G);
        return;
      }
      if (Sl.Hash != H)
        continue;
      Gram &G = Grams[Sl.Index];
      if (G.Len == Len && std::equal(Words, Words + Len, G.Words.begin())) {
        ++G.Count;
        return;
      }
    }
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  std::vector<Gram> Grams;
};

} // namespace

PatternCodec
PatternCodec::build(const std::vector<std::vector<MInst>> &Corpus) {
  PatternCodec C;
  C.Present = true;

  std::vector<std::vector<uint32_t>> RegionWords;
  RegionWords.reserve(Corpus.size());
  for (const auto &R : Corpus)
    RegionWords.push_back(toWords(R));

  // Candidate mining: every n-gram of MinLen..MaxLen words, counted at
  // every position.
  std::vector<Gram> Grams = GramCounter(RegionWords).take();

  // Rank by estimated savings (occurrences x length), drop singletons, and
  // take the top MaxPatterns as the provisional dictionary. The ranking is
  // a total order (ties by patternBefore), so the top MaxPatterns are the
  // same entries a full sort would keep.
  std::vector<const Gram *> Ranked;
  for (const Gram &G : Grams)
    if (G.Count >= 2)
      Ranked.push_back(&G);
  const size_t Keep = std::min<size_t>(Ranked.size(), MaxPatterns);
  std::partial_sort(Ranked.begin(), Ranked.begin() + Keep, Ranked.end(),
                    [](const Gram *A, const Gram *B) {
                      const uint64_t SA = A->Count * A->Len;
                      const uint64_t SB = B->Count * B->Len;
                      if (SA != SB)
                        return SA > SB;
                      return A->before(*B);
                    });
  C.PatternWords.clear();
  for (size_t I = 0; I != Keep; ++I)
    C.PatternWords.emplace_back(Ranked[I]->Words.begin(),
                                Ranked[I]->Words.begin() + Ranked[I]->Len);
  std::sort(C.PatternWords.begin(), C.PatternWords.end(), patternBefore);
  C.indexPatterns();

  // Two parse rounds: overlapping mined counts overstate usefulness, so
  // parse once, keep only entries the greedy parse actually used at least
  // twice, and re-parse with the pruned set for the final frequencies.
  for (int Round = 0; Round != 2; ++Round) {
    std::vector<uint64_t> Uses(C.PatternWords.size(), 0);
    for (const auto &Words : RegionWords)
      for (size_t At = 0; At < Words.size();) {
        int M = C.matchAt(Words, At);
        if (M >= 0) {
          ++Uses[static_cast<size_t>(M)];
          At += C.PatternWords[static_cast<size_t>(M)].size();
        } else {
          ++At;
        }
      }
    std::vector<std::vector<uint32_t>> Kept;
    const uint64_t MinUses = Round == 0 ? 2 : 1;
    for (size_t I = 0; I != C.PatternWords.size(); ++I)
      if (Uses[I] >= MinUses)
        Kept.push_back(std::move(C.PatternWords[I]));
    C.PatternWords = std::move(Kept); // Order (longest-first) is preserved.
    C.indexPatterns();
  }

  C.Patterns.clear();
  for (const auto &Words : C.PatternWords) {
    std::vector<MInst> Insts;
    for (uint32_t W : Words)
      Insts.push_back(decode(W));
    C.Patterns.push_back(std::move(Insts));
  }

  // Final parse: selector frequencies and escape field histograms.
  std::vector<uint64_t> SelFreq(C.Patterns.size() + 2, 0);
  std::array<std::map<uint32_t, uint64_t>, NumFieldKinds> FieldFreq;
  for (size_t R = 0; R != RegionWords.size(); ++R) {
    const auto &Words = RegionWords[R];
    const auto &Insts = Corpus[R];
    for (size_t At = 0; At < Words.size();) {
      int M = C.matchAt(Words, At);
      if (M >= 0) {
        ++SelFreq[static_cast<size_t>(M)];
        At += C.PatternWords[static_cast<size_t>(M)].size();
        continue;
      }
      ++SelFreq[C.escapeSymbol()];
      const MInst &I = Insts[At];
      const FormatLayout &L = formatLayout(formatOf(I.Op));
      for (unsigned S = 0; S != L.Count; ++S) {
        FieldKind K = L.Slots[S].Kind;
        ++FieldFreq[static_cast<unsigned>(K)][I.get(K)];
      }
      ++At;
    }
    ++SelFreq[C.endSymbol()];
  }

  std::vector<std::pair<uint32_t, uint64_t>> SelPairs;
  for (uint32_t S = 0; S != SelFreq.size(); ++S)
    if (SelFreq[S])
      SelPairs.emplace_back(S, SelFreq[S]);
  C.Selector = CanonicalCode::build(std::move(SelPairs));

  for (unsigned K = 0; K != NumFieldKinds; ++K) {
    std::vector<std::pair<uint32_t, uint64_t>> Pairs(FieldFreq[K].begin(),
                                                     FieldFreq[K].end());
    C.Esc[K] = CanonicalCode::build(std::move(Pairs));
  }

  // Exact serialized table size, cached for tableBits().
  BitWriter Scratch;
  C.serializeTables(Scratch);
  C.TableBitsCache = Scratch.bitSize();
  return C;
}

void PatternCodec::indexPatterns() {
  FirstWordIndex.clear();
  for (size_t P = 0; P != PatternWords.size(); ++P)
    if (!PatternWords[P].empty())
      FirstWordIndex.emplace_back(PatternWords[P].front(),
                                  static_cast<uint32_t>(P));
  // Sorting (word, index) pairs keeps each bucket in priority order.
  std::sort(FirstWordIndex.begin(), FirstWordIndex.end());
}

int PatternCodec::matchAt(const std::vector<uint32_t> &Words,
                          size_t At) const {
  const uint32_t First = Words[At];
  auto It = std::lower_bound(FirstWordIndex.begin(), FirstWordIndex.end(),
                             std::make_pair(First, uint32_t{0}));
  for (; It != FirstWordIndex.end() && It->first == First; ++It) {
    const auto &Pat = PatternWords[It->second];
    if (At + Pat.size() > Words.size())
      continue;
    if (std::equal(Pat.begin() + 1, Pat.end(), Words.begin() + At + 1))
      return static_cast<int>(It->second);
  }
  return -1;
}

Status PatternCodec::encodeCore(const std::vector<MInst> &Insts, BitWriter &W,
                                DecodeWork &Work) const {
  if (!Present)
    return Status::error(vea::StatusCode::InternalError,
                         "pattern codec was never built");
  std::vector<uint32_t> Words = toWords(Insts);
  auto Fail = [](const char *What) {
    return Status::error(vea::StatusCode::EncodingError,
                         std::string("pattern: ") + What +
                             " outside the corpus alphabet");
  };
  for (size_t At = 0; At < Words.size();) {
    int M = matchAt(Words, At);
    if (M >= 0) {
      if (!Selector.encode(static_cast<uint32_t>(M), W))
        return Fail("pattern index");
      size_t Len = PatternWords[static_cast<size_t>(M)].size();
      Work.Instructions += Len;
      Work.PatternCovered += Len;
      At += Len;
      continue;
    }
    if (!Selector.encode(escapeSymbol(), W))
      return Fail("escape symbol");
    const MInst &I = Insts[At];
    const FormatLayout &L = formatLayout(formatOf(I.Op));
    for (unsigned S = 0; S != L.Count; ++S) {
      FieldKind K = L.Slots[S].Kind;
      if (!Esc[static_cast<unsigned>(K)].encode(I.get(K), W))
        return Fail(fieldKindName(K));
    }
    ++Work.Instructions;
    ++Work.Escapes;
    ++At;
  }
  if (!Selector.encode(endSymbol(), W))
    return Fail("end symbol");
  return Status::success();
}

Status PatternCodec::encodeRegion(const std::vector<MInst> &Insts,
                                  BitWriter &W) const {
  DecodeWork Work;
  return encodeCore(Insts, W, Work);
}

Status PatternCodec::measureRegion(const std::vector<MInst> &Insts,
                                   uint64_t &Bits, DecodeWork &Work) const {
  BitWriter Scratch;
  Work = DecodeWork();
  if (Status St = encodeCore(Insts, Scratch, Work); !St.ok())
    return St;
  Bits = Scratch.bitSize();
  return Status::success();
}

bool PatternCodec::decodeEscape(BitReader &Reader, MInst &Inst) const {
  uint32_t Op =
      Esc[static_cast<unsigned>(FieldKind::Opcode)].decode(Reader);
  if (Op == CanonicalCode::Invalid || Reader.overran() || Op >= NumOpcodes ||
      Op == static_cast<uint32_t>(Opcode::Sentinel))
    return false;
  Inst = MInst(static_cast<Opcode>(Op));
  const FormatLayout &L = formatLayout(formatOf(Inst.Op));
  for (unsigned S = 1; S != L.Count; ++S) {
    FieldKind K = L.Slots[S].Kind;
    uint32_t V = Esc[static_cast<unsigned>(K)].decode(Reader);
    if (V == CanonicalCode::Invalid || Reader.overran() || V > fieldMask(K))
      return false;
    Inst.set(K, V);
  }
  return true;
}

bool PatternCodec::Decoder::next(MInst &Inst) {
  if (Corrupt || Done)
    return false;
  if (Replay) {
    Inst = (*Replay)[ReplayIx++];
    ++Work.Instructions;
    ++Work.PatternCovered;
    if (ReplayIx == Replay->size())
      Replay = nullptr;
    return true;
  }
  uint32_t Sym = Codec.Selector.decode(Reader);
  if (Sym == CanonicalCode::Invalid || Reader.overran()) {
    Corrupt = true;
    return false;
  }
  if (Sym == Codec.endSymbol()) {
    Done = true;
    return false;
  }
  if (Sym == Codec.escapeSymbol()) {
    if (!Codec.decodeEscape(Reader, Inst)) {
      Corrupt = true;
      return false;
    }
    ++Work.Instructions;
    ++Work.Escapes;
    return true;
  }
  if (Sym >= Codec.numPatterns() || Codec.Patterns[Sym].empty()) {
    Corrupt = true;
    return false;
  }
  const std::vector<MInst> &Pat = Codec.Patterns[Sym];
  Inst = Pat[0];
  ++Work.Instructions;
  ++Work.PatternCovered;
  if (Pat.size() > 1) {
    Replay = &Pat;
    ReplayIx = 1;
  }
  return true;
}

std::unique_ptr<RegionCursor>
PatternCodec::makeDecoder(const uint8_t *Blob, size_t BlobBytes,
                          size_t StartBit) const {
  BitReader Reader(Blob, BlobBytes);
  Reader.seekBit(StartBit);
  return std::make_unique<Decoder>(*this, std::move(Reader));
}

void PatternCodec::serializeTables(BitWriter &W) const {
  // Dictionary: count, then (length, raw instruction words) per entry.
  W.writeBits(static_cast<uint32_t>(Patterns.size()), 8);
  for (const auto &Words : PatternWords) {
    W.writeBits(static_cast<uint32_t>(Words.size()), 4);
    for (uint32_t Word : Words)
      W.writeBits(Word, 32);
  }
  // Selector symbols fit 8 bits (at most MaxPatterns + 2 values).
  Selector.serialize(W, 8);
  for (unsigned K = 0; K != NumFieldKinds; ++K)
    Esc[K].serialize(W, fieldWidth(static_cast<FieldKind>(K)));
}

Status PatternCodec::validate() const {
  auto Bad = [](const char *What) {
    return Status::error(vea::StatusCode::MalformedImage,
                         std::string("pattern codec: ") + What);
  };
  if (!Present)
    return Bad("tables missing");
  if (Patterns.size() > MaxPatterns ||
      Patterns.size() != PatternWords.size())
    return Bad("dictionary size out of range");
  for (size_t P = 0; P != Patterns.size(); ++P) {
    if (Patterns[P].empty() || Patterns[P].size() > MaxLen ||
        Patterns[P].size() != PatternWords[P].size())
      return Bad("dictionary entry length out of range");
    for (const MInst &I : Patterns[P])
      if (static_cast<unsigned>(I.Op) >= NumOpcodes ||
          I.Op == Opcode::Sentinel)
        return Bad("dictionary entry holds an invalid opcode");
  }
  if (!Selector.valid() || Selector.empty())
    return Bad("selector code is invalid");
  for (uint32_t V : Selector.values())
    if (V > endSymbol())
      return Bad("selector value out of range");
  for (unsigned K = 0; K != NumFieldKinds; ++K) {
    if (!Esc[K].valid())
      return Bad("escape field code is invalid");
    for (uint32_t V : Esc[K].values())
      if (V > fieldMask(static_cast<FieldKind>(K)))
        return Bad("escape field value exceeds its field width");
  }
  return Status::success();
}

} // namespace squash
