//===- huff/Codec.cpp - Pluggable region codec interface ------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "huff/Codec.h"

namespace squash {

const char *codecKindName(CodecKind Kind) {
  switch (Kind) {
  case CodecKind::Huffman:
    return "huffman";
  case CodecKind::Pattern:
    return "pattern";
  }
  return "unknown";
}

bool codecKindByName(const std::string &Name, CodecKind &Out) {
  for (unsigned K = 0; K != NumCodecKinds; ++K) {
    CodecKind Kind = static_cast<CodecKind>(K);
    if (Name == codecKindName(Kind)) {
      Out = Kind;
      return true;
    }
  }
  return false;
}

namespace {

/// RegionCursor over the bit-serial splitting-streams decoder.
class HuffmanCursor final : public RegionCursor {
public:
  HuffmanCursor(const StreamCodecs &Codecs, vea::BitReader Reader)
      : Dec(Codecs, std::move(Reader)) {}

  bool next(vea::MInst &Inst) override {
    if (!Dec.next(Inst))
      return false;
    ++Work.Instructions;
    return true;
  }
  bool ok() const override { return Dec.ok(); }
  size_t bitPosition() const override { return Dec.bitPosition(); }
  const DecodeWork &work() const override { return Work; }

private:
  StreamCodecs::RegionDecoder Dec;
  DecodeWork Work;
};

} // namespace

std::unique_ptr<RegionCursor>
HuffmanCodecView::makeDecoder(const uint8_t *Blob, size_t BlobBytes,
                              size_t StartBit) const {
  vea::BitReader Reader(Blob, BlobBytes);
  Reader.seekBit(StartBit);
  return std::make_unique<HuffmanCursor>(Codecs, std::move(Reader));
}

} // namespace squash
