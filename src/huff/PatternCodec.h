//===- huff/PatternCodec.h - n-gram pattern-table coder --------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pattern-table region coder in the style of access-pattern-based code
/// compression: frequent instruction n-grams mined from the corpus become
/// dictionary entries addressed by short Huffman-coded indices, and an
/// escape symbol falls back to field-split order-0 Huffman for everything
/// else. A region is a selector stream
///
///   { pattern-index | ESCAPE <field codewords> }* END
///
/// where the selector alphabet (indices, ESCAPE, END) carries one canonical
/// Huffman code built from the greedy-parse frequencies of the corpus.
/// Decode of a pattern hit replays pre-decoded instructions from the host
/// table, which is why the cost model charges covered instructions less
/// than entropy-decoded ones (Options::CostModel).
///
/// All side tables — the pattern dictionary, the selector code, and the
/// escape field codes — are serialized into the blob and counted against
/// the compressed footprint, exactly like the paper's stream tables.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_HUFF_PATTERNCODEC_H
#define SQUASH_HUFF_PATTERNCODEC_H

#include "huff/Codec.h"

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace squash {

class PatternCodec final : public Codec {
public:
  /// Dictionary bounds: entries are MinLen..MaxLen instructions, at most
  /// MaxPatterns of them (an 8-bit serialized count and a fixed-width
  /// n-gram key for mining).
  static constexpr unsigned MaxPatterns = 64;
  static constexpr unsigned MinLen = 2;
  static constexpr unsigned MaxLen = 8;

  PatternCodec() = default;

  /// Mines the dictionary and builds all codes from the corpus (one
  /// instruction sequence per region). Deterministic: candidate ranking,
  /// greedy parsing, and every code construction break ties by value.
  static PatternCodec build(const std::vector<std::vector<vea::MInst>> &Corpus);

  /// False for a default-constructed codec (no corpus); such a codec
  /// refuses to encode and fails validate().
  bool present() const { return Present; }
  size_t numPatterns() const { return Patterns.size(); }
  const std::vector<vea::MInst> &pattern(size_t I) const {
    return Patterns[I];
  }

  CodecKind kind() const override { return CodecKind::Pattern; }
  [[nodiscard]] vea::Status
  encodeRegion(const std::vector<vea::MInst> &Insts,
               vea::BitWriter &W) const override;
  std::unique_ptr<RegionCursor> makeDecoder(const uint8_t *Blob,
                                            size_t BlobBytes,
                                            size_t StartBit) const override;
  uint64_t tableBits() const override { return TableBitsCache; }
  void serializeTables(vea::BitWriter &W) const override;
  [[nodiscard]] vea::Status validate() const override;

  /// Trial encode for codec selection: exact payload bits and the decode
  /// work the region would cost, without keeping the bits.
  [[nodiscard]] vea::Status measureRegion(const std::vector<vea::MInst> &Insts,
                                          uint64_t &Bits,
                                          DecodeWork &Work) const;

  /// Fault-injection hook (FaultKind::CodecTableCorrupt): mutable access
  /// to the selector code so a sweep can model a truncated stored table.
  CanonicalCode &selectorCodeForFault() { return Selector; }

  class Decoder final : public RegionCursor {
  public:
    Decoder(const PatternCodec &Codec, vea::BitReader Reader)
        : Codec(Codec), Reader(std::move(Reader)) {}

    bool next(vea::MInst &Inst) override;
    bool ok() const override { return !Corrupt; }
    size_t bitPosition() const override { return Reader.bitPosition(); }
    const DecodeWork &work() const override { return Work; }

  private:
    const PatternCodec &Codec;
    vea::BitReader Reader;
    DecodeWork Work;
    bool Corrupt = false;
    bool Done = false;
    const std::vector<vea::MInst> *Replay = nullptr; ///< Pattern in flight.
    size_t ReplayIx = 0;
  };

private:
  /// Selector symbols above the pattern indices.
  uint32_t escapeSymbol() const {
    return static_cast<uint32_t>(Patterns.size());
  }
  uint32_t endSymbol() const {
    return static_cast<uint32_t>(Patterns.size()) + 1;
  }

  /// Longest dictionary entry matching \p Words at \p At, or -1. Only the
  /// entries starting with Words[At] are tried, in priority order
  /// (longest first), so the first hit wins.
  int matchAt(const std::vector<uint32_t> &Words, size_t At) const;

  /// Rebuilds FirstWordIndex from PatternWords; call after every change to
  /// the dictionary.
  void indexPatterns();

  /// Shared encode core: greedy-parses and emits \p Insts into \p W,
  /// accumulating \p Work.
  [[nodiscard]] vea::Status encodeCore(const std::vector<vea::MInst> &Insts,
                                       vea::BitWriter &W,
                                       DecodeWork &Work) const;

  /// Decodes one escaped instruction; returns false (setting nothing) on a
  /// corrupt stream.
  bool decodeEscape(vea::BitReader &Reader, vea::MInst &Inst) const;

  bool Present = false;
  /// Dictionary entries, longest first (ties by encoded words ascending).
  std::vector<std::vector<vea::MInst>> Patterns;
  /// The same entries as encoded instruction words, for matching.
  std::vector<std::vector<uint32_t>> PatternWords;
  /// (first word, PatternWords index) pairs sorted by word, then index: the
  /// bucket of a word lists its entries in match priority.
  std::vector<std::pair<uint32_t, uint32_t>> FirstWordIndex;
  /// Selector code over {0..P-1, ESCAPE=P, END=P+1}.
  CanonicalCode Selector;
  /// Escape field codes, one per stream (order-0).
  std::array<CanonicalCode, vea::NumFieldKinds> Esc;
  uint64_t TableBitsCache = 0;
};

} // namespace squash

#endif // SQUASH_HUFF_PATTERNCODEC_H
