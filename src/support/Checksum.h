//===- support/Checksum.h - CRC-32 integrity checking ----------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320) over byte spans.
/// Used to seal the immutable parts of a squashed image — the code prefix,
/// the function offset table, and the compressed blob — so the runtime can
/// refuse to execute, or decline to decode, corrupted bits instead of
/// materializing them as machine code.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SUPPORT_CHECKSUM_H
#define SQUASH_SUPPORT_CHECKSUM_H

#include <cstddef>
#include <cstdint>

namespace vea {

/// Continues a CRC-32 over \p Len bytes at \p Data. Start with Crc = 0;
/// the pre/post conditioning is handled internally, so crc32(B, crc32(A))
/// over split spans equals crc32(A+B) only when chained via this parameter.
uint32_t crc32(const uint8_t *Data, size_t Len, uint32_t Crc = 0);

/// CRC-32 of \p Count words serialized little-endian, in one pass: equal to
/// crc32() over those bytes (the layout of the words in guest memory)
/// whatever the host's byte order.
uint32_t crc32Words(const uint32_t *Words, size_t Count, uint32_t Crc = 0);

} // namespace vea

#endif // SQUASH_SUPPORT_CHECKSUM_H
