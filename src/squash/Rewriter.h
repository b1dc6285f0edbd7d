//===- squash/Rewriter.h - Squashed image construction ---------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the squashed executable (Figure 1(b) / Figure 2(b) of the paper)
/// from a program, a region partition, and the buffer-safety analysis:
///
///   [never-compressed code] [entry stubs] [decompressor] [offset table]
///   [restore-stub area] [runtime buffer] [data] [compressed blob]
///
/// Every segment is counted in the memory footprint, exactly as the paper
/// requires ("the latter must take into account the space occupied by the
/// stubs, the decompressor, the function offset table, the compressed code,
/// the runtime buffer, and the never-compressed original program code").
///
/// Region code is stored with calls that need restore-stub treatment
/// rewritten to the squash-internal opcode Bsrx; the decompressor expands
/// each Bsrx into the paper's two-instruction sequence (BSR to CreateStub +
/// BR to the callee) when filling the buffer, and all intra-region branch
/// displacements are precomputed against that expanded layout.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_REWRITER_H
#define SQUASH_SQUASH_REWRITER_H

#include "huff/Codec.h"
#include "huff/PatternCodec.h"
#include "huff/StreamCodec.h"
#include "link/Layout.h"
#include "squash/Options.h"
#include "squash/Regions.h"
#include "support/Metrics.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace squash {

/// Addresses of the runtime structures inside the squashed image.
struct RuntimeLayout {
  /// Image format version stamped by the rewriter and checked at attach.
  /// Version 2 added per-region codec selection (RegionImageInfo::Codec
  /// plus pattern side tables in the blob); an image claiming any
  /// other version is rejected as MalformedImage instead of being decoded
  /// with the wrong table layout.
  static constexpr uint32_t CurrentFormatVersion = 2;

  /// One Decompress entry point per possible return-address register, then
  /// one CreateStub entry point per register (Sections 2.2/2.3):
  ///   Decompress entry r is DecompBase + 4r
  ///   CreateStub entry r is DecompBase + 4(NumDecompressEntries + r)
  static constexpr unsigned NumDecompressEntries = 32;
  static constexpr unsigned NumCreateStubEntries = 32;
  static constexpr unsigned NumEntryPoints =
      NumDecompressEntries + NumCreateStubEntries;
  /// Words per restore-stub slot: call, tag, refcount, key.
  static constexpr uint32_t StubSlotWords = 4;

  /// Slot-map word marking a cache slot that holds no region.
  static constexpr uint32_t SlotMapEmpty = 0xFFFFFFFFu;

  uint32_t DecompBase = 0;
  uint32_t DecompEnd = 0;
  uint32_t OffsetTableBase = 0; ///< One 32-bit bit-offset per region.
  uint32_t StubAreaBase = 0;
  uint32_t StubSlots = 0;    ///< StubSlotWords words per slot.
  uint32_t SlotMapBase = 0;  ///< One word per cache slot: resident region
                             ///< id, or SlotMapEmpty. Runtime-written.
  uint32_t CacheSlots = 1;   ///< Decode-cache slots carved from the buffer.
  uint32_t SlotWords = 0;    ///< Words per cache slot, incl. its jump slot.
  uint32_t BufferBase = 0;   ///< Word 0 is slot 0's jump slot.
  uint32_t BufferWords = 0;  ///< All slots: CacheSlots * SlotWords.
  uint32_t DataBase = 0;     ///< First data byte (end of runtime machinery).
  uint32_t BlobBase = 0;     ///< Serialized stream tables + region payloads.
  uint32_t BlobBytes = 0;
  uint32_t FormatVersion = CurrentFormatVersion;

  /// CRC32 of the image's immutable prefix [Base, StubAreaBase): code,
  /// entry stubs, decompressor region, offset table. Everything after is
  /// legitimately written at runtime (stubs, buffer, data) or covered by
  /// BlobCrc32.
  uint32_t ImageCrc32 = 0;
  /// CRC32 of the compressed blob.
  uint32_t BlobCrc32 = 0;

  uint32_t decompressEntry(unsigned Reg) const { return DecompBase + 4 * Reg; }
  uint32_t createStubEntry(unsigned Reg) const {
    return DecompBase + 4 * (NumDecompressEntries + Reg);
  }

  /// Address of cache slot \p Slot's jump-slot word.
  uint32_t slotBase(uint32_t Slot) const {
    return BufferBase + 4 * Slot * SlotWords;
  }
  /// Address of the first decompressed word of cache slot \p Slot. Slot 0
  /// is the canonical base every region displacement is lowered against.
  uint32_t slotDataBase(uint32_t Slot) const { return slotBase(Slot) + 4; }
};

/// The paper's space accounting for the transformed program.
struct FootprintBreakdown {
  uint32_t NeverCompressedWords = 0; ///< Incl. reconnection branches.
  uint32_t EntryStubWords = 0;
  uint32_t DecompressorWords = 0;
  uint32_t OffsetTableWords = 0;
  uint32_t StubAreaWords = 0;
  uint32_t SlotMapWords = 0; ///< One word per decode-cache slot.
  uint32_t BufferWords = 0;  ///< All cache slots.
  uint32_t CompressedBytes = 0; ///< Codec side tables + region payloads.
  uint32_t OriginalCodeBytes = 0;

  /// Exact bit accounting of the blob, measured while it is serialized:
  /// CompressedBytes must equal the byte ceiling of the sum of all three,
  /// so no codec side table (Huffman code representations, pattern
  /// dictionary) can silently escape the compressed-size charge.
  uint64_t HuffmanTableBits = 0;
  uint64_t PatternTableBits = 0;
  uint64_t PayloadBits = 0; ///< Region codeword bits, all codecs.

  uint32_t totalCodeBytes() const {
    return 4 * (NeverCompressedWords + EntryStubWords + DecompressorWords +
                OffsetTableWords + StubAreaWords + SlotMapWords +
                BufferWords) +
           CompressedBytes;
  }
  double reduction() const {
    return OriginalCodeBytes
               ? 1.0 - static_cast<double>(totalCodeBytes()) /
                           OriginalCodeBytes
               : 0.0;
  }

  /// Registers every segment size (and the derived totals) under
  /// \p Prefix (DESIGN.md §12).
  void exportMetrics(vea::MetricsRegistry &R,
                     const std::string &Prefix = "footprint.") const;
};

/// Per-region results of lowering + encoding.
struct RegionImageInfo {
  uint32_t BitOffset = 0;      ///< Absolute bit offset within the blob.
  uint32_t ExpandedWords = 0;  ///< Buffer words the region decompresses to.
  uint32_t StoredInstructions = 0;
  uint32_t NumEntryStubs = 0;
  uint32_t ExternalCalls = 0;  ///< Bsrx sites (restore-stub calls).
  uint32_t BufferSafeCalls = 0;
  /// CRC32 of the expanded buffer words (little-endian byte order) this
  /// region must decompress to; checked after every fill.
  uint32_t Crc32 = 0;
  /// The coder this region's payload was encoded with (a CodecKind value);
  /// validated against the image's present codecs at attach.
  uint8_t Codec = 0;
};

/// The codec-select pass's verdict, consumed by rewriteProgram: one
/// CodecKind per region plus the built non-Huffman coders those choices
/// reference. An empty RegionCodec means "all Huffman" and reproduces the
/// legacy blob byte-for-byte.
struct CodecPlan {
  std::vector<CodecKind> RegionCodec;
  PatternCodec Pattern;
};

/// One entry stub of a compressed region: where it lives and the tag its
/// second word carries. The runtime uses these to rewrite a resident
/// region's stubs into direct branches (Options::DirectResidentStubs) and
/// to restore them on eviction.
struct EntryStubSite {
  uint32_t Addr = 0; ///< Address of the stub's bsr word.
  uint32_t Tag = 0;  ///< (region << 16) | (1 + expanded word offset).
};

/// One Cfg block a compressed region contains, with its instruction count.
/// squash/DriftMonitor uses this mapping to project live region heat back
/// onto a block-level sim::Profile that mergeProfiles can combine with the
/// training profile for a re-squash.
struct RegionBlockRef {
  uint32_t Block = 0;        ///< Cfg block id (post-unswitch numbering).
  uint32_t Instructions = 0; ///< Source instructions in the block.
  uint8_t IsEntry = 0;       ///< Has an entry stub (region entry point).
};

/// One function's final placement in the squashed image, for the
/// inspector's function-order view.
struct FunctionPlacement {
  unsigned FuncIdx = 0; ///< Index into the program's function list.
  std::string Name;     ///< Function name (entry label).
  uint32_t Addr = 0;    ///< Entry address in the image.
};

/// A runnable squashed program plus everything the runtime and the
/// experiment harnesses need.
struct SquashedProgram {
  vea::Image Img;
  RuntimeLayout Layout;
  /// Host mirrors of the tables stored in the blob. Codecs is empty when
  /// no region uses the Huffman coder; Pattern is absent (present()
  /// false) when no region uses it.
  StreamCodecs Codecs;
  PatternCodec Pattern;
  std::vector<RegionImageInfo> Regions;
  FootprintBreakdown Footprint;
  Options Opts;
  /// Entry-stub address of every compressed block that has one.
  std::unordered_map<std::string, uint32_t> StubOf;
  /// Every tag word an entry stub may legitimately hand to Decompress; the
  /// runtime rejects tags outside this set instead of following them.
  std::unordered_set<uint32_t> ValidEntryTags;
  /// Per region: the exact expanded buffer words (Bsrx already expanded),
  /// kept for recovery when a fill fails its integrity check. Empty when
  /// Options::RetainRecoveryCopies is off.
  std::vector<std::vector<uint32_t>> RecoveryWords;
  /// Per region: its entry stubs, for direct-branch rewriting of resident
  /// regions.
  std::vector<std::vector<EntryStubSite>> RegionEntryStubs;
  /// Per region: the blocks it compresses (same region order as Regions),
  /// for projecting runtime heat back onto the profile's block ids.
  std::vector<std::vector<RegionBlockRef>> RegionBlocks;
  /// Block count of the guiding profile (the pre-unswitch Cfg). Unswitching
  /// may append blocks, so RegionBlocks entries at or past this id have no
  /// profile slot and are skipped when a live profile is exported.
  uint32_t ProfileBlockCount = 0;
  /// Final hot-half placement, in emission order (the layout pass's
  /// verdict). Empty means the identity placement (program order).
  std::vector<FunctionPlacement> FuncLayout;
  /// Wall time of the per-region encode pass that produced the blob,
  /// surfaced through SquashStats::EncodeSeconds.
  double EncodeSeconds = 0.0;
  /// Fault-injection arming (FaultKind::PrefetchSlotCorrupt): when nonzero,
  /// the runtime flips a bit in the Nth prefetched staging buffer before it
  /// is consumed, then disarms. The consume-time CRC check must catch it
  /// and fall back to a demand decode.
  uint32_t ArmPrefetchCorrupt = 0;

  /// The coder region \p R was encoded with.
  CodecKind regionCodec(size_t R) const {
    return static_cast<CodecKind>(Regions[R].Codec);
  }
  /// Streaming cursor over region \p R's payload in \p Blob, dispatched
  /// through the region's recorded codec. The single decode entry point
  /// shared by the runtime's slow path, the inspector, and the benches.
  std::unique_ptr<RegionCursor> makeRegionCursor(size_t R,
                                                 const uint8_t *Blob,
                                                 size_t BlobBytes) const;
};

/// Expands one stored instruction into the word(s) it occupies in the
/// runtime buffer when written at \p WriteAddr, appending to \p Out (Bsrx
/// becomes the paper's bsr-to-CreateStub + br pair). Shared by the rewriter
/// (recovery copies and region CRCs) and the runtime decompressor so the
/// two can never drift apart.
void expandStoredInst(const RuntimeLayout &L, const vea::MInst &I,
                      uint32_t WriteAddr, std::vector<uint32_t> &Out);

/// CRC32 of a word sequence viewed as little-endian bytes, as stored in
/// RegionImageInfo::Crc32.
uint32_t expandedWordsCrc(const std::vector<uint32_t> &Words);

/// Relocates a region's expanded words from \p FromBase to \p ToBase (both
/// first-data-word addresses). Regions are lowered against the canonical
/// base (slot 0); a branch whose target lies *inside* the region is
/// position-independent and untouched, while one that escapes the region
/// (entry stubs, never-compressed code, decompressor entry points) must
/// absorb the slot displacement. Fails with LayoutError if an adjusted
/// displacement no longer fits disp21.
vea::Status relocateRegionWords(std::vector<uint32_t> &Words,
                                uint32_t FromBase, uint32_t ToBase);

/// Builds the squashed image. \p BufferSafeFuncs comes from
/// analyzeBufferSafe (pass all-zeros to disable the optimization). Fails
/// with InvalidArgument on mismatched inputs, LayoutError when a branch or
/// region does not fit its encoding, or EncodingError from the compressor.
/// \p Plan carries the codec-select pass's per-region coder choices; the
/// default (empty) plan encodes every region with the Huffman coder. Its
/// pattern tables are stored as given, so they must be trained on
/// lowerStoredRegions under the same \p FuncOrder (codec-select's are).
/// \p FuncOrder places never-compressed code in an explicit function order
/// (the layout pass's verdict); empty means program order, and the image
/// is then byte-identical to what the parameterless order produced before
/// the layout pass existed. Placement is whole-function, so blocks keep
/// their in-function order and fallthrough chains are never broken.
vea::Expected<SquashedProgram>
rewriteProgram(const vea::Program &Prog, const vea::Cfg &G,
               const Partition &Part,
               const std::vector<uint8_t> &BufferSafeFuncs,
               const Options &Opts, CodecPlan Plan = CodecPlan(),
               const std::vector<unsigned> &FuncOrder = {});

/// Records the final function placement into \p SP (the inspector's
/// function-order surface): one entry per function in emission order with
/// its entry address in the built image. An empty \p FuncOrder (identity
/// placement) records nothing.
void recordFunctionOrder(SquashedProgram &SP, const vea::Program &Prog,
                         const std::vector<unsigned> &FuncOrder);

/// Runs the rewriter's lowering phases only (entries, expanded offsets,
/// layout, region lowering) and returns each region's stored instruction
/// sequence — exactly what rewriteProgram will hand the region coder when
/// given the same \p FuncOrder. The codec-select pass trial-encodes this
/// corpus, placed by the layout pass's order, to choose per-region coders
/// and train the pattern tables once, without building the image twice.
/// Rejects a buffer-safe vector or function order that does not match the
/// program with InvalidArgument, as rewriteProgram does.
vea::Expected<std::vector<std::vector<vea::MInst>>>
lowerStoredRegions(const vea::Program &Prog, const vea::Cfg &G,
                   const Partition &Part,
                   const std::vector<uint8_t> &BufferSafeFuncs,
                   const Options &Opts,
                   const std::vector<unsigned> &FuncOrder = {});

} // namespace squash

#endif // SQUASH_SQUASH_REWRITER_H
