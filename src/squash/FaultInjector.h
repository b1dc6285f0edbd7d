//===- squash/FaultInjector.h - Deterministic image corruption --*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded corruption harness for the squashed image. Each
/// injection mutates one structure a real deployment could lose — blob
/// bits, offset-table entries, restore-stub memory, entry-stub tags, buffer
/// sizing — so the fault-tolerance tests can assert that the runtime either
/// detects the corruption (clean Fault / failed attach) or masks it
/// (recovery copy; untouched output), but never crashes, hangs, or returns
/// a silently wrong answer.
///
/// The injector never fabricates a *valid* entry tag: a corrupted tag that
/// happened to name another real region entry would be a legitimate —
/// undetectable — control transfer, not a fault.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_FAULTINJECTOR_H
#define SQUASH_SQUASH_FAULTINJECTOR_H

#include "squash/Rewriter.h"
#include "support/Random.h"

#include <optional>
#include <string>
#include <vector>

namespace squash {

enum class FaultKind : uint8_t {
  BlobBitFlip,      ///< Flip one bit of the compressed blob.
  OffsetTableEntry, ///< Overwrite one function-offset-table word.
  StubSlotWord,     ///< Plant a garbage word in the restore-stub area.
  EntryStubTag,     ///< Overwrite an entry stub's tag word.
  BufferShrink,     ///< Shrink the runtime buffer below the largest region.
  BufferGrow,       ///< Grow the runtime buffer into the data segment.
  BlobTruncate,     ///< Cut the blob (and the image) short.
  NCCodeBitFlip,    ///< Flip one bit of never-compressed code / stubs.
  SlotMapEntry,     ///< Corrupt one decode-cache slot-map word.
  StagingCorrupt,   ///< Flip one bit of CRC-covered content (image prefix
                    ///< or blob) without fixing the checksums: an image
                    ///< damaged between build and attach, caught by the
                    ///< attach-time or per-fill CRC checks.
  PublishOffsetSkew,///< Skew one offset-table word and *refresh* the image
                    ///< CRC so integrity checks pass; only the attach-time
                    ///< cross-check of the table against the region
                    ///< metadata (or the lazy fill check) can catch it.
  PrefetchSlotCorrupt, ///< Arm a bit flip in a decode-ahead staging buffer
                       ///< (SquashedProgram::ArmPrefetchCorrupt): the Nth
                       ///< consumed prefetch is corrupted before its CRC
                       ///< re-check, which must discard it and fall back
                       ///< to a demand decode. Applicable only when
                       ///< Options::DecodeAhead is set.
  DecodeTableTruncated, ///< Cut one stream's canonical-code value list
                        ///< short in the host mirror, modeling a stored
                        ///< code table damaged at rest; attach's
                        ///< StreamCodecs::validate() must reject it.
                        ///< Applicable only when some region decodes
                        ///< through the Huffman stream codes.
  CodecTableCorrupt,    ///< Truncate the pattern coder's selector
                        ///< code's value list in the host mirror: a stored
                        ///< non-Huffman codec table damaged at rest.
                        ///< Attach's per-codec validate() must reject it.
                        ///< Applicable only when some region uses the
                        ///< pattern coder.
};

const char *faultKindName(FaultKind K);

/// What one injection did, for diagnostics when a sweep fails.
struct FaultReport {
  FaultKind Kind;
  uint32_t Addr = 0; ///< Byte address affected (0 for pure layout faults).
  std::string Description;
};

class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed) : R(Seed) {}

  /// Applies one fault of kind \p K to \p SP, mutating its image bytes or
  /// layout in place. Returns nothing if the kind is not applicable to
  /// this image (e.g. no compressed regions).
  std::optional<FaultReport> inject(SquashedProgram &SP, FaultKind K);

  /// Applies one fault of a randomly chosen applicable kind from
  /// \p Kinds.
  std::optional<FaultReport> injectAny(SquashedProgram &SP,
                                       const std::vector<FaultKind> &Kinds);

private:
  vea::Rng R;
};

} // namespace squash

#endif // SQUASH_SQUASH_FAULTINJECTOR_H
