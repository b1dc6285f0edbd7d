//===- squash/FaultInjector.cpp - Deterministic image corruption ----------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/FaultInjector.h"

#include "support/Checksum.h"
#include "support/Span.h"

#include <algorithm>

using namespace squash;
using namespace vea;

const char *squash::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::BlobBitFlip:
    return "blob-bit-flip";
  case FaultKind::OffsetTableEntry:
    return "offset-table-entry";
  case FaultKind::StubSlotWord:
    return "stub-slot-word";
  case FaultKind::EntryStubTag:
    return "entry-stub-tag";
  case FaultKind::BufferShrink:
    return "buffer-shrink";
  case FaultKind::BufferGrow:
    return "buffer-grow";
  case FaultKind::BlobTruncate:
    return "blob-truncate";
  case FaultKind::NCCodeBitFlip:
    return "nc-code-bit-flip";
  case FaultKind::SlotMapEntry:
    return "slot-map-entry";
  case FaultKind::StagingCorrupt:
    return "staging-corrupt";
  case FaultKind::PublishOffsetSkew:
    return "publish-offset-skew";
  case FaultKind::PrefetchSlotCorrupt:
    return "prefetch-slot-corrupt";
  case FaultKind::DecodeTableTruncated:
    return "decode-table-truncated";
  case FaultKind::CodecTableCorrupt:
    return "codec-table-corrupt";
  }
  return "unknown";
}

static FaultReport report(FaultKind K, uint32_t Addr, std::string Desc) {
  FaultReport FR;
  FR.Kind = K;
  FR.Addr = Addr;
  FR.Description = std::move(Desc);
  // Every successful injection funnels through here; give the flight
  // recorder its trigger (with the live span stack) at the moment the
  // image is mutated, not when the corruption is later detected.
  SpanScope Sp("fault.inject", "fault");
  Sp.setArgs(static_cast<uint64_t>(K), Addr);
  if (FlightRecorder::armed())
    FlightRecorder::instance().noteFault("fault-injector", FR.Description);
  return FR;
}

std::optional<FaultReport> FaultInjector::inject(SquashedProgram &SP,
                                                FaultKind K) {
  RuntimeLayout &L = SP.Layout;
  Image &Img = SP.Img;
  // Only squashed images (with runtime machinery) can be corrupted in the
  // structures this harness targets.
  if (L.DecompEnd == L.DecompBase)
    return std::nullopt;

  switch (K) {
  case FaultKind::BlobBitFlip: {
    if (L.BlobBytes == 0)
      return std::nullopt;
    uint64_t Bit = R.nextBelow(8ull * L.BlobBytes);
    uint32_t Addr = L.BlobBase + static_cast<uint32_t>(Bit / 8);
    Img.Bytes[Addr - Img.Base] ^= static_cast<uint8_t>(1u << (Bit % 8));
    return report(K, Addr,
                  "flipped blob bit " + std::to_string(Bit) + " (byte " +
                      std::to_string(Addr) + ")");
  }

  case FaultKind::OffsetTableEntry: {
    if (SP.Regions.empty())
      return std::nullopt;
    uint32_t Region =
        static_cast<uint32_t>(R.nextBelow(SP.Regions.size()));
    uint32_t Addr = L.OffsetTableBase + 4 * Region;
    uint32_t Old = Img.word(Addr);
    uint32_t New;
    do {
      New = static_cast<uint32_t>(R.next());
    } while (New == Old);
    Img.setWord(Addr, New);
    return report(K, Addr,
                  "offset table entry " + std::to_string(Region) + ": " +
                      std::to_string(Old) + " -> " + std::to_string(New));
  }

  case FaultKind::StubSlotWord: {
    if (L.StubSlots == 0)
      return std::nullopt;
    uint32_t Words = RuntimeLayout::StubSlotWords * L.StubSlots;
    uint32_t Addr = L.StubAreaBase + 4 * static_cast<uint32_t>(
                                             R.nextBelow(Words));
    uint32_t Old = Img.word(Addr);
    uint32_t New;
    do {
      New = static_cast<uint32_t>(R.next());
    } while (New == Old);
    Img.setWord(Addr, New);
    return report(K, Addr,
                  "stub area word at " + std::to_string(Addr) + ": " +
                      std::to_string(Old) + " -> " + std::to_string(New));
  }

  case FaultKind::EntryStubTag: {
    if (SP.StubOf.empty())
      return std::nullopt;
    // Pick the n-th stub in a deterministic (sorted) order; the map's
    // iteration order is not stable across libraries.
    std::vector<uint32_t> Stubs;
    Stubs.reserve(SP.StubOf.size());
    for (const auto &[Name, Addr] : SP.StubOf)
      Stubs.push_back(Addr);
    std::sort(Stubs.begin(), Stubs.end());
    uint32_t StubAddr = Stubs[R.nextBelow(Stubs.size())];
    uint32_t TagAddr = StubAddr + 4; // Word 1 of [bsr, tag].
    uint32_t Old = Img.word(TagAddr);
    // Never fabricate another *valid* tag: that would be a legitimate
    // control transfer, not a detectable fault.
    uint32_t New;
    do {
      New = static_cast<uint32_t>(R.next());
    } while (New == Old || SP.ValidEntryTags.count(New));
    Img.setWord(TagAddr, New);
    return report(K, TagAddr,
                  "entry stub tag at " + std::to_string(TagAddr) + ": " +
                      std::to_string(Old) + " -> " + std::to_string(New));
  }

  case FaultKind::BufferShrink: {
    if (L.BufferWords < 2)
      return std::nullopt;
    // The layout sizes the buffer as 1 + max(ExpandedWords), so any shrink
    // leaves at least one region that no longer fits.
    uint32_t Old = L.BufferWords;
    L.BufferWords = 1 + static_cast<uint32_t>(R.nextBelow(Old - 1));
    return report(K, L.BufferBase,
                  "buffer shrunk from " + std::to_string(Old) + " to " +
                      std::to_string(L.BufferWords) + " words");
  }

  case FaultKind::BufferGrow: {
    // The data segment starts immediately after the buffer, so any growth
    // overlaps it.
    uint32_t Old = L.BufferWords;
    L.BufferWords += 1 + static_cast<uint32_t>(R.nextBelow(64));
    return report(K, L.BufferBase,
                  "buffer grown from " + std::to_string(Old) + " to " +
                      std::to_string(L.BufferWords) + " words");
  }

  case FaultKind::BlobTruncate: {
    if (L.BlobBytes == 0)
      return std::nullopt;
    uint32_t Cut = 1 + static_cast<uint32_t>(R.nextBelow(L.BlobBytes));
    L.BlobBytes -= Cut;
    Img.Bytes.resize(L.BlobBase - Img.Base + L.BlobBytes);
    return report(K, L.BlobBase + L.BlobBytes,
                  "blob truncated by " + std::to_string(Cut) + " bytes to " +
                      std::to_string(L.BlobBytes));
  }

  case FaultKind::NCCodeBitFlip: {
    if (L.DecompBase <= Img.Base)
      return std::nullopt;
    uint64_t Bit = R.nextBelow(8ull * (L.DecompBase - Img.Base));
    uint32_t Addr = Img.Base + static_cast<uint32_t>(Bit / 8);
    Img.Bytes[Addr - Img.Base] ^= static_cast<uint8_t>(1u << (Bit % 8));
    return report(K, Addr,
                  "flipped code bit " + std::to_string(Bit) + " (byte " +
                      std::to_string(Addr) + ")");
  }

  case FaultKind::SlotMapEntry: {
    if (L.CacheSlots == 0 || L.SlotMapBase == 0)
      return std::nullopt;
    uint32_t Slot = static_cast<uint32_t>(R.nextBelow(L.CacheSlots));
    uint32_t Addr = L.SlotMapBase + 4 * Slot;
    uint32_t Old = Img.word(Addr);
    uint32_t New;
    do {
      New = static_cast<uint32_t>(R.next());
    } while (New == Old);
    Img.setWord(Addr, New);
    return report(K, Addr,
                  "slot map entry " + std::to_string(Slot) + ": " +
                      std::to_string(Old) + " -> " + std::to_string(New));
  }

  case FaultKind::StagingCorrupt: {
    // One bit anywhere in the checksummed content: the immutable prefix
    // [Base, StubAreaBase) covered by ImageCrc32, or the blob covered by
    // BlobCrc32. The CRC checks must reject the image either way.
    uint64_t PrefixBits = 8ull * (L.StubAreaBase - Img.Base);
    uint64_t TotalBits = PrefixBits + 8ull * L.BlobBytes;
    if (TotalBits == 0)
      return std::nullopt;
    uint64_t Bit = R.nextBelow(TotalBits);
    uint32_t Addr = Bit < PrefixBits
                        ? Img.Base + static_cast<uint32_t>(Bit / 8)
                        : L.BlobBase +
                              static_cast<uint32_t>((Bit - PrefixBits) / 8);
    Img.Bytes[Addr - Img.Base] ^= static_cast<uint8_t>(1u << (Bit % 8));
    return report(K, Addr,
                  "flipped checksummed bit " + std::to_string(Bit) +
                      " (byte " + std::to_string(Addr) + ")");
  }

  case FaultKind::PublishOffsetSkew: {
    if (SP.Regions.empty())
      return std::nullopt;
    uint32_t Region = static_cast<uint32_t>(R.nextBelow(SP.Regions.size()));
    uint32_t Addr = L.OffsetTableBase + 4 * Region;
    uint32_t Old = Img.word(Addr);
    uint32_t New;
    do {
      New = static_cast<uint32_t>(R.next());
    } while (New == Old);
    Img.setWord(Addr, New);
    // Refresh the prefix checksum: the offset table lies inside the
    // CRC-covered prefix, so without this the fault would collapse into
    // StagingCorrupt. With it, only the table-vs-metadata cross-check
    // (attach validation or the lazy fill check) sees the skew.
    L.ImageCrc32 =
        vea::crc32(Img.Bytes.data(), L.StubAreaBase - Img.Base);
    return report(K, Addr,
                  "offset table entry " + std::to_string(Region) +
                      " skewed (" + std::to_string(Old) + " -> " +
                      std::to_string(New) + ") with image CRC refreshed");
  }

  case FaultKind::PrefetchSlotCorrupt: {
    // Host-memory fault in the decode-ahead staging buffer. Armed rather
    // than applied: the runtime flips a bit in the Nth prefetch it is
    // about to consume, immediately before the CRC re-check that must
    // catch it.
    if (!SP.Opts.DecodeAhead || SP.Regions.empty())
      return std::nullopt;
    uint32_t Nth = 1 + static_cast<uint32_t>(R.nextBelow(3));
    SP.ArmPrefetchCorrupt = Nth;
    return report(K, 0,
                  "armed corruption of consumed prefetch #" +
                      std::to_string(Nth));
  }

  case FaultKind::DecodeTableTruncated: {
    // Truncate a non-empty stream code's value list in the host mirror.
    // StreamCodecs::validate() at attach must reject the image cleanly.
    // Attach only validates codecs some region references, so a mirror
    // with no Huffman region would mask the corruption — inapplicable.
    bool AnyHuffman = false;
    for (const RegionImageInfo &RI : SP.Regions)
      AnyHuffman |= RI.Codec == static_cast<uint8_t>(CodecKind::Huffman);
    if (!AnyHuffman)
      return std::nullopt;
    std::vector<unsigned> Candidates;
    for (unsigned FK = 0; FK != vea::NumFieldKinds; ++FK)
      if (!SP.Codecs.code(static_cast<vea::FieldKind>(FK)).empty())
        Candidates.push_back(FK);
    if (Candidates.empty())
      return std::nullopt;
    unsigned FK = Candidates[R.nextBelow(Candidates.size())];
    SP.Codecs.codeForFault(static_cast<vea::FieldKind>(FK))
        .truncateValueListForFault();
    return report(K, 0,
                  std::string("truncated the ") +
                      vea::fieldKindName(static_cast<vea::FieldKind>(FK)) +
                      " stream's value list");
  }

  case FaultKind::CodecTableCorrupt: {
    // Damage the pattern coder's host-mirror selector code. Attach's
    // per-codec validate() must reject the image before any trap could
    // decode through the broken table.
    bool AnyPattern = false;
    for (const RegionImageInfo &RI : SP.Regions)
      AnyPattern |= RI.Codec == static_cast<uint8_t>(CodecKind::Pattern);
    if (!AnyPattern)
      return std::nullopt;
    SP.Pattern.selectorCodeForFault().truncateValueListForFault();
    return report(K, 0, "truncated the pattern codec's selector value list");
  }
  }
  return std::nullopt;
}

std::optional<FaultReport>
FaultInjector::injectAny(SquashedProgram &SP,
                         const std::vector<FaultKind> &Kinds) {
  if (Kinds.empty())
    return std::nullopt;
  // Start at a random kind and rotate until one applies; inject() only
  // draws from the generator once it has committed to a mutation site, so
  // inapplicable kinds do not perturb the sequence.
  size_t Start = R.nextBelow(Kinds.size());
  for (size_t I = 0; I != Kinds.size(); ++I) {
    if (std::optional<FaultReport> FR =
            inject(SP, Kinds[(Start + I) % Kinds.size()]))
      return FR;
  }
  return std::nullopt;
}
