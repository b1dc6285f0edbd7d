//===- support/BitStream.h - MSB-first bit-level I/O ----------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MSB-first bit writer/reader used by the canonical Huffman coder.
/// Codewords are emitted most-significant-bit first so that the decoder can
/// consume one bit at a time exactly as the paper's DECODE() loop does.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SUPPORT_BITSTREAM_H
#define SQUASH_SUPPORT_BITSTREAM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vea {

/// Accumulates bits MSB-first into a growing byte buffer.
class BitWriter {
public:
  /// Appends the low \p NumBits bits of \p Value, most significant first.
  void writeBits(uint64_t Value, unsigned NumBits) {
    assert(NumBits <= 64 && "bit count out of range");
    for (unsigned I = NumBits; I-- > 0;)
      writeBit(static_cast<unsigned>((Value >> I) & 1));
  }

  /// Appends a single bit (0 or 1).
  void writeBit(unsigned Bit) {
    assert(Bit <= 1 && "bit must be 0 or 1");
    if (BitPos == 0)
      Bytes.push_back(0);
    if (Bit)
      Bytes.back() |= static_cast<uint8_t>(1u << (7 - BitPos));
    BitPos = (BitPos + 1) & 7;
  }

  /// Pads with zero bits to the next byte boundary.
  void alignToByte() { BitPos = 0; }

  /// Total number of bits written so far.
  size_t bitSize() const {
    return Bytes.size() * 8 - (BitPos == 0 ? 0 : (8 - BitPos));
  }

  /// Byte size of the buffer (including any partial final byte).
  size_t byteSize() const { return Bytes.size(); }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> takeBytes() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
  unsigned BitPos = 0; ///< Next free bit within the last byte, 0..7.
};

/// Reads bits MSB-first from a byte buffer.
class BitReader {
public:
  BitReader(const uint8_t *Data, size_t NumBytes)
      : Data(Data), NumBytes(NumBytes) {}

  explicit BitReader(const std::vector<uint8_t> &Bytes)
      : BitReader(Bytes.data(), Bytes.size()) {}

  /// Reads a single bit; returns 0 past the end of the buffer (the Huffman
  /// decoder never legitimately reads past a sentinel, and region codecs
  /// validate bit positions separately).
  unsigned readBit() {
    if (BitCursor >= NumBytes * 8) {
      ++BitCursor; // Past the end: overran() becomes observable.
      return OverrunBit;
    }
    unsigned Byte = Data[BitCursor >> 3];
    unsigned Bit = (Byte >> (7 - (BitCursor & 7))) & 1;
    ++BitCursor;
    return Bit;
  }

  /// Reads \p NumBits bits MSB-first.
  uint64_t readBits(unsigned NumBits) {
    assert(NumBits <= 64 && "bit count out of range");
    uint64_t Value = 0;
    for (unsigned I = 0; I != NumBits; ++I)
      Value = (Value << 1) | readBit();
    return Value;
  }

  /// Repositions the cursor to an absolute bit offset.
  void seekBit(size_t BitOffset) { BitCursor = BitOffset; }

  size_t bitPosition() const { return BitCursor; }
  bool overran() const { return BitCursor > NumBytes * 8; }
  size_t bitCapacity() const { return NumBytes * 8; }

  /// Sets the value returned for reads past the end (used by tests to
  /// exercise corrupt-stream handling).
  void setOverrunBit(unsigned Bit) { OverrunBit = Bit & 1; }

private:
  const uint8_t *Data;
  size_t NumBytes;
  size_t BitCursor = 0;
  unsigned OverrunBit = 0;
};

} // namespace vea

#endif // SQUASH_SUPPORT_BITSTREAM_H
