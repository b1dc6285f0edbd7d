//===- support/Checksum.cpp - CRC-32 integrity checking -------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"

#include <array>

using namespace vea;

namespace {

constexpr std::array<uint32_t, 256> makeTable() {
  std::array<uint32_t, 256> Table{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
    Table[I] = C;
  }
  return Table;
}

constexpr std::array<uint32_t, 256> Table = makeTable();

} // namespace

uint32_t vea::crc32(const uint8_t *Data, size_t Len, uint32_t Crc) {
  uint32_t C = Crc ^ 0xFFFFFFFFu;
  for (size_t I = 0; I != Len; ++I)
    C = Table[(C ^ Data[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

uint32_t vea::crc32Words(const uint32_t *Words, size_t Count, uint32_t Crc) {
  uint32_t C = Crc ^ 0xFFFFFFFFu;
  for (size_t I = 0; I != Count; ++I) {
    const uint32_t W = Words[I];
    C = Table[(C ^ W) & 0xFF] ^ (C >> 8);
    C = Table[(C ^ (W >> 8)) & 0xFF] ^ (C >> 8);
    C = Table[(C ^ (W >> 16)) & 0xFF] ^ (C >> 8);
    C = Table[(C ^ (W >> 24)) & 0xFF] ^ (C >> 8);
  }
  return C ^ 0xFFFFFFFFu;
}
