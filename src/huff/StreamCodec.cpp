//===- huff/StreamCodec.cpp - Splitting-streams instruction codec ---------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "huff/StreamCodec.h"

#include <algorithm>
#include <unordered_map>

using namespace squash;
using vea::FieldKind;
using vea::Format;
using vea::MInst;
using vea::Opcode;

static unsigned idx(FieldKind Kind) { return static_cast<unsigned>(Kind); }

namespace {
/// Per-stream value histogram collected over the corpus.
struct Histograms {
  std::array<std::unordered_map<uint32_t, uint64_t>, vea::NumFieldKinds> Freq;

  void addValue(FieldKind Kind, uint32_t Value) { ++Freq[idx(Kind)][Value]; }

  void addInst(const MInst &I) {
    const vea::FormatLayout &Layout = vea::formatLayout(vea::formatOf(I.Op));
    for (unsigned S = 0; S != Layout.Count; ++S)
      addValue(Layout.Slots[S].Kind, I.get(Layout.Slots[S].Kind));
  }
};
} // namespace

StreamCodecs
StreamCodecs::build(const std::vector<std::vector<MInst>> &Corpus) {
  StreamCodecs SC;

  Histograms H;
  for (const auto &Region : Corpus) {
    for (const auto &I : Region)
      H.addInst(I);
    // One sentinel terminates each region.
    H.addValue(FieldKind::Opcode, static_cast<uint32_t>(Opcode::Sentinel));
  }

  for (unsigned K = 0; K != vea::NumFieldKinds; ++K) {
    std::vector<std::pair<uint32_t, uint64_t>> Pairs(H.Freq[K].begin(),
                                                     H.Freq[K].end());
    std::sort(Pairs.begin(), Pairs.end()); // Deterministic construction.
    SC.Codes[K] = CanonicalCode::build(Pairs);

    StreamStats St;
    St.Kind = static_cast<FieldKind>(K);
    for (const auto &P : Pairs) {
      St.Symbols += P.second;
      ++St.Distinct;
    }
    St.PayloadBits = SC.Codes[K].encodedBits(Pairs);
    St.TableBits = SC.Codes[K].representationBits(
        vea::fieldWidth(static_cast<FieldKind>(K)));
    SC.Stats.push_back(St);
  }
  return SC;
}

vea::Status StreamCodecs::encodeRegion(const std::vector<MInst> &Insts,
                                       vea::BitWriter &W) const {
  auto EncodeValue = [&](FieldKind Kind, uint32_t Value) -> vea::Status {
    if (!Codes[idx(Kind)].encode(Value, W))
      return vea::Status::error(
          vea::StatusCode::EncodingError,
          std::string("huffman: ") + vea::fieldKindName(Kind) +
              " symbol outside alphabet");
    return vea::Status::success();
  };
  for (const auto &I : Insts) {
    const vea::FormatLayout &Layout = vea::formatLayout(vea::formatOf(I.Op));
    for (unsigned S = 0; S != Layout.Count; ++S) {
      vea::Status St =
          EncodeValue(Layout.Slots[S].Kind, I.get(Layout.Slots[S].Kind));
      if (!St.ok())
        return St;
    }
  }
  return EncodeValue(FieldKind::Opcode,
                     static_cast<uint32_t>(Opcode::Sentinel));
}

vea::Status StreamCodecs::validate() const {
  for (unsigned K = 0; K != vea::NumFieldKinds; ++K) {
    if (!Codes[K].valid())
      return vea::Status::error(
          vea::StatusCode::MalformedImage,
          std::string("stream code for ") +
              vea::fieldKindName(static_cast<FieldKind>(K)) +
              " is truncated or inconsistent");
  }
  return vea::Status::success();
}

uint64_t StreamCodecs::tableBits() const {
  uint64_t Bits = 0;
  for (const auto &St : Stats)
    Bits += St.TableBits;
  return Bits;
}

void StreamCodecs::serializeTables(vea::BitWriter &W) const {
  for (unsigned K = 0; K != vea::NumFieldKinds; ++K)
    Codes[K].serialize(W, vea::fieldWidth(static_cast<FieldKind>(K)));
}

//===----------------------------------------------------------------------===//
// RegionDecoder
//===----------------------------------------------------------------------===//

StreamCodecs::RegionDecoder::RegionDecoder(const StreamCodecs &Codecs,
                                           vea::BitReader Reader)
    : Codecs(Codecs), Reader(Reader) {}

bool StreamCodecs::RegionDecoder::next(MInst &Inst) {
  if (Corrupt)
    return false;
  auto DecodeValue = [&](FieldKind Kind, uint32_t &Value) {
    Value = Codecs.Codes[idx(Kind)].decode(Reader);
    if (Value == CanonicalCode::Invalid || Reader.overran()) {
      Corrupt = true;
      return false;
    }
    return true;
  };

  uint32_t Op;
  if (!DecodeValue(FieldKind::Opcode, Op))
    return false;
  if (Op == static_cast<uint32_t>(Opcode::Sentinel))
    return false; // Clean end of region.
  if (Op >= vea::NumOpcodes) {
    Corrupt = true;
    return false;
  }
  Inst = MInst(static_cast<Opcode>(Op));
  const vea::FormatLayout &Layout =
      vea::formatLayout(vea::formatOf(static_cast<Opcode>(Op)));
  for (unsigned S = 1; S != Layout.Count; ++S) {
    uint32_t Value;
    if (!DecodeValue(Layout.Slots[S].Kind, Value))
      return false;
    Inst.set(Layout.Slots[S].Kind, Value);
  }
  return true;
}
