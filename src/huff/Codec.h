//===- huff/Codec.h - Pluggable region codec interface ---------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper commits to a single splitting-streams Huffman coder, but its
/// cost model (compression ratio x decode cost) is codec-agnostic. This
/// header abstracts "a way to encode and decode one compressed region" so
/// the pipeline can pick the best coder per region:
///
///   - CodecKind::Huffman  — the paper's splitting-streams coder
///     (huff/StreamCodec.h), adapted by HuffmanCodecView.
///   - CodecKind::Pattern  — a pattern-table coder (huff/PatternCodec.h):
///     frequent instruction n-grams get short indices, an escape symbol
///     falls back to field-split Huffman.
///
/// Every codec shares the region contract the runtime relies on: regions
/// are independently decodable from a bit offset, the encoding carries its
/// own terminator, and a corrupt stream is reported (never read past).
/// DecodeWork reports what a decode actually did, so the cost model can
/// charge different codecs different per-instruction costs.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_HUFF_CODEC_H
#define SQUASH_HUFF_CODEC_H

#include "huff/StreamCodec.h"
#include "isa/Isa.h"
#include "support/BitStream.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace squash {

/// Identifies one region coder. The numeric values are image metadata
/// (RegionImageInfo::Codec) and must never be reordered or reused: id 2
/// named a since-removed coder, and attach rejects it as unknown.
enum class CodecKind : uint8_t {
  Huffman = 0, ///< Splitting-streams canonical Huffman (the paper's coder).
  Pattern = 1, ///< n-gram pattern table + escape to field-split Huffman.
};
inline constexpr unsigned NumCodecKinds = 2;

/// Stable lowercase name ("huffman", "pattern").
const char *codecKindName(CodecKind Kind);

/// Parses a codec name; returns false if \p Name is unknown. "auto" is a
/// selection policy, not a codec, and is rejected here.
bool codecKindByName(const std::string &Name, CodecKind &Out);

/// What one region decode actually did, reported by every cursor so the
/// runtime's cost model can charge codec-specific per-instruction costs
/// (a pattern-table hit replays pre-decoded words).
struct DecodeWork {
  uint64_t Instructions = 0;   ///< Instructions produced.
  uint64_t PatternCovered = 0; ///< Produced from a pattern-table entry.
  uint64_t Escapes = 0;        ///< Escaped to the field-split fallback.
};

/// Streaming decoder over one region, positioned at its bit offset.
class RegionCursor {
public:
  virtual ~RegionCursor() = default;

  /// Decodes the next instruction into \p Inst. Returns false at the
  /// region terminator or on a corrupt stream (check ok()).
  virtual bool next(vea::MInst &Inst) = 0;
  virtual bool ok() const = 0;
  virtual size_t bitPosition() const = 0;
  virtual const DecodeWork &work() const = 0;
};

/// A region coder: encodes lowered instruction sequences into the blob and
/// makes decoders for them. Implementations are built from the corpus of
/// all compressed regions (build(corpus) -> encodeRegion / makeDecoder);
/// their side tables are serialized into the blob so they count toward the
/// compressed footprint exactly like the paper's Huffman tables.
class Codec {
public:
  virtual ~Codec() = default;

  virtual CodecKind kind() const = 0;

  /// Encodes one region, terminator included. Fails with EncodingError if
  /// an instruction carries a value outside the corpus the codec was built
  /// from; callers must propagate the Status (a half-encoded region must
  /// never reach an image).
  [[nodiscard]] virtual vea::Status
  encodeRegion(const std::vector<vea::MInst> &Insts,
               vea::BitWriter &W) const = 0;

  /// A cursor over the region starting at \p StartBit of \p Blob.
  virtual std::unique_ptr<RegionCursor>
  makeDecoder(const uint8_t *Blob, size_t BlobBytes, size_t StartBit) const = 0;

  /// Size in bits of the serialized side tables (charged to the
  /// compressed program's footprint).
  virtual uint64_t tableBits() const = 0;

  /// Writes the side tables into \p W (the blob's table prefix).
  virtual void serializeTables(vea::BitWriter &W) const = 0;

  /// Structural validation of the host-mirror tables; the runtime calls
  /// this at attach so tampered tables are a clean MalformedImage.
  [[nodiscard]] virtual vea::Status validate() const = 0;
};

/// Codec adapter over the existing splitting-streams stack: a non-owning
/// view of a StreamCodecs (the viewed codec must outlive the view and any
/// cursor it makes). The runtime keeps its devirtualized FastDecoder path
/// for Huffman regions; this view serves the generic dispatch sites
/// (inspection, benches, codec selection).
class HuffmanCodecView final : public Codec {
public:
  explicit HuffmanCodecView(const StreamCodecs &Codecs) : Codecs(Codecs) {}

  CodecKind kind() const override { return CodecKind::Huffman; }
  [[nodiscard]] vea::Status
  encodeRegion(const std::vector<vea::MInst> &Insts,
               vea::BitWriter &W) const override {
    return Codecs.encodeRegion(Insts, W);
  }
  std::unique_ptr<RegionCursor> makeDecoder(const uint8_t *Blob,
                                            size_t BlobBytes,
                                            size_t StartBit) const override;
  uint64_t tableBits() const override { return Codecs.tableBits(); }
  void serializeTables(vea::BitWriter &W) const override {
    Codecs.serializeTables(W);
  }
  [[nodiscard]] vea::Status validate() const override {
    return Codecs.validate();
  }

private:
  const StreamCodecs &Codecs;
};

} // namespace squash

#endif // SQUASH_HUFF_CODEC_H
