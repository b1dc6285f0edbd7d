//===- huff/StreamCodec.h - Splitting-streams instruction codec -*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's simplified "splitting streams" compressor (Section 3):
/// instructions are split into one stream of values per field type; each
/// stream gets its own canonical Huffman code; the codeword sequences of all
/// streams are merged into a single bit sequence driven by the opcode
/// stream (an opcode fully determines which field codes follow). A region's
/// encoding ends with the sentinel opcode.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_HUFF_STREAMCODEC_H
#define SQUASH_HUFF_STREAMCODEC_H

#include "huff/Huffman.h"
#include "isa/Isa.h"
#include "support/BitStream.h"
#include "support/Status.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace squash {

class FastTables;

/// Per-stream accounting surfaced by the compression-ratio benchmark.
struct StreamStats {
  vea::FieldKind Kind;
  uint64_t Symbols = 0;       ///< Field occurrences in the corpus.
  uint64_t Distinct = 0;      ///< Distinct values.
  uint64_t PayloadBits = 0;   ///< Encoded codeword bits.
  uint64_t TableBits = 0;     ///< N + D representation bits.
};

/// The per-field-kind canonical Huffman codes, built over the whole corpus
/// of compressed regions (the paper stores one code representation and
/// value list per stream for the whole compressed program).
class StreamCodecs {
public:
  StreamCodecs() = default;

  /// The memoized fast-table pointer is mutable shared state guarded by
  /// the module-wide memo mutex (huff/FastDecoder.cpp). The
  /// compiler-generated copy would read it without the lock (a race
  /// against a concurrent fastTables() build) and would alias the
  /// published tables between two codecs whose codes can then diverge
  /// (a copied codec mutated by fault injection, say). A copy therefore starts with an empty memo and builds
  /// fresh tables on first use; a move hands the memo over under the lock.
  StreamCodecs(const StreamCodecs &Other);
  StreamCodecs &operator=(const StreamCodecs &Other);
  StreamCodecs(StreamCodecs &&Other) noexcept;
  StreamCodecs &operator=(StreamCodecs &&Other) noexcept;
  ~StreamCodecs() = default;

  /// Builds codes from the corpus: one instruction sequence per region.
  static StreamCodecs build(const std::vector<std::vector<vea::MInst>> &Corpus);

  /// Encodes one region (terminated by the sentinel opcode codeword).
  /// Fails with EncodingError if an instruction carries a value outside
  /// the corpus the codes were built from.
  vea::Status encodeRegion(const std::vector<vea::MInst> &Insts,
                           vea::BitWriter &W) const;

  /// Streaming decoder for one region; instantiated by the runtime
  /// decompressor at the region's bit offset.
  class RegionDecoder {
  public:
    RegionDecoder(const StreamCodecs &Codecs, vea::BitReader Reader);

    /// Decodes the next instruction into \p Inst. Returns false at the
    /// sentinel or on a corrupt stream (check ok()).
    bool next(vea::MInst &Inst);
    bool ok() const { return !Corrupt; }
    size_t bitPosition() const { return Reader.bitPosition(); }

  private:
    const StreamCodecs &Codecs;
    vea::BitReader Reader;
    bool Corrupt = false;
  };

  /// Total bits of all stream code representations (counted against the
  /// compressed program's footprint).
  uint64_t tableBits() const;

  /// Writes every stream's code representation into \p W — the "code
  /// representation and value list for each stream" that the paper stores
  /// with the compressed program.
  void serializeTables(vea::BitWriter &W) const;

  /// Per-stream statistics over the corpus the codes were built from.
  const std::vector<StreamStats> &stats() const { return Stats; }

  /// The canonical code of one stream.
  const CanonicalCode &code(vea::FieldKind Kind) const {
    return Codes[static_cast<unsigned>(Kind)];
  }

  /// Structural validation of every stream's code (see
  /// CanonicalCode::valid). The runtime calls this at attach so a
  /// truncated or tampered host-mirror table is a clean MalformedImage
  /// instead of a decode-time surprise.
  vea::Status validate() const;

  /// The table-driven decode acceleration structure (huff/FastDecoder.h)
  /// for a \p Bits-wide probe window, built on first use and memoized —
  /// repeat attaches of the same squashed program share one immutable
  /// table set. Thread-safe; \p Bits is clamped to FastTables' supported
  /// range.
  std::shared_ptr<const FastTables> fastTables(unsigned Bits) const;

  /// Fault-injection hook (FaultKind::DecodeTableTruncated): mutable
  /// access to one stream's code. Drops the memoized fast tables so they
  /// cannot mask the mutation.
  CanonicalCode &codeForFault(vea::FieldKind Kind) {
    FastMemo.reset();
    return Codes[static_cast<unsigned>(Kind)];
  }

private:
  std::array<CanonicalCode, vea::NumFieldKinds> Codes;
  std::vector<StreamStats> Stats;
  /// Memoized fast-decode tables (immutable once built; never shared
  /// across copies — see the special members above). Guarded by the
  /// module-wide memo mutex in FastDecoder.cpp.
  mutable std::shared_ptr<const FastTables> FastMemo;
};

} // namespace squash

#endif // SQUASH_HUFF_STREAMCODEC_H
