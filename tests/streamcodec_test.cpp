//===- tests/streamcodec_test.cpp - Splitting-streams codec tests ---------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "huff/StreamCodec.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace squash;
using namespace vea;

/// Generates a random legal instruction.
static MInst randomInst(Rng &R) {
  Opcode Op;
  do {
    Op = static_cast<Opcode>(1 + R.nextBelow(NumOpcodes - 1));
  } while (!opcodeInfo(Op).IsLegal && Op != Opcode::Bsrx);
  const FormatLayout &Layout = formatLayout(formatOf(Op));
  MInst I(Op);
  for (unsigned S = 1; S != Layout.Count; ++S) {
    uint32_t Max = (1u << Layout.Slots[S].Width) - 1;
    // Skew values so Huffman has something to exploit.
    uint32_t V = R.chance(3, 4) ? R.nextBelow(8) : (R.next() & Max);
    I.set(Layout.Slots[S].Kind, V & Max);
  }
  return I;
}

static std::vector<std::vector<MInst>> randomCorpus(Rng &R, size_t Regions,
                                                    size_t MaxLen) {
  std::vector<std::vector<MInst>> Corpus(Regions);
  for (auto &Region : Corpus) {
    size_t Len = 1 + R.nextBelow(MaxLen);
    for (size_t I = 0; I != Len; ++I)
      Region.push_back(randomInst(R));
  }
  return Corpus;
}

TEST(StreamCodecRoundTrip, RegionsDecodeExactly) {
  Rng R(1001);
  auto Corpus = randomCorpus(R, 20, 200);
  StreamCodecs SC = StreamCodecs::build(Corpus);

  BitWriter W;
  std::vector<size_t> Offsets;
  for (auto &Region : Corpus) {
    Offsets.push_back(W.bitSize());
    ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  }
  std::vector<uint8_t> Blob = W.takeBytes();

  // Decode regions in a scrambled order: regions must be independently
  // decodable (the decompressor jumps straight to an offset).
  std::vector<size_t> Order(Corpus.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);

  for (size_t Idx : Order) {
    BitReader Rd(Blob);
    Rd.seekBit(Offsets[Idx]);
    StreamCodecs::RegionDecoder Dec(SC, Rd);
    MInst I;
    size_t Count = 0;
    while (Dec.next(I)) {
      ASSERT_LT(Count, Corpus[Idx].size());
      const MInst &Want = Corpus[Idx][Count];
      ASSERT_EQ(I.Op, Want.Op);
      ASSERT_EQ(encode(I), encode(Want));
      ++Count;
    }
    EXPECT_TRUE(Dec.ok());
    EXPECT_EQ(Count, Corpus[Idx].size());
  }
}

TEST(StreamCodec, EmptyRegionIsJustSentinel) {
  std::vector<std::vector<MInst>> Corpus = {{}};
  StreamCodecs SC = StreamCodecs::build(Corpus);
  BitWriter W;
  ASSERT_TRUE(SC.encodeRegion({}, W).ok());
  BitReader Rd(W.bytes());
  StreamCodecs::RegionDecoder Dec(SC, Rd);
  MInst I;
  EXPECT_FALSE(Dec.next(I));
  EXPECT_TRUE(Dec.ok());
}

TEST(StreamCodec, CorruptStreamReportsNotOk) {
  Rng R(5);
  auto Corpus = randomCorpus(R, 4, 60);
  StreamCodecs SC = StreamCodecs::build(Corpus);
  BitWriter W;
  ASSERT_TRUE(SC.encodeRegion(Corpus[0], W).ok());
  std::vector<uint8_t> Blob = W.takeBytes();
  // Truncate mid-region: decode must stop with ok() == false (or hit the
  // sentinel early, which the next() loop surfaces as a short region).
  Blob.resize(Blob.size() / 2);
  BitReader Rd(Blob);
  StreamCodecs::RegionDecoder Dec(SC, Rd);
  MInst I;
  size_t Count = 0;
  while (Dec.next(I))
    ++Count;
  EXPECT_TRUE(!Dec.ok() || Count < Corpus[0].size());
}

TEST(StreamCodec, StatsCoverEveryStream) {
  Rng R(6);
  auto Corpus = randomCorpus(R, 8, 100);
  StreamCodecs SC = StreamCodecs::build(Corpus);
  const auto &Stats = SC.stats();
  ASSERT_EQ(Stats.size(), NumFieldKinds);
  uint64_t OpcodeSymbols = 0;
  size_t TotalInsts = 0;
  for (auto &Region : Corpus)
    TotalInsts += Region.size();
  for (const auto &St : Stats)
    if (St.Kind == FieldKind::Opcode)
      OpcodeSymbols = St.Symbols;
  // Opcode stream = every instruction + one sentinel per region.
  EXPECT_EQ(OpcodeSymbols, TotalInsts + Corpus.size());
  EXPECT_GT(SC.tableBits(), 0u);
}

TEST(StreamCodec, CompressionBeatsRawForSkewedInput) {
  // A corpus of highly repetitive instructions must compress well below
  // 32 bits per instruction (the paper reports ~66% overall including
  // tables; payload alone is much smaller).
  std::vector<MInst> Region;
  for (int I = 0; I != 2000; ++I)
    Region.push_back(makeRRR(Opcode::Add, 1, 2, 3));
  StreamCodecs SC = StreamCodecs::build({Region});
  BitWriter W;
  ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  EXPECT_LT(W.bitSize(), 2000u * 8); // At least 4x over raw encoding.
}

TEST(StreamCodec, SerializedTablesMatchAccounting) {
  Rng R(9);
  auto Corpus = randomCorpus(R, 6, 80);
  StreamCodecs SC = StreamCodecs::build(Corpus);
  BitWriter W;
  SC.serializeTables(W);
  EXPECT_EQ(W.bitSize(), SC.tableBits());
}

//===----------------------------------------------------------------------===//
// Property tests: degenerate alphabets, empty streams, maximum-length
// canonical codes, and field values at representation boundaries.
//===----------------------------------------------------------------------===//

TEST(StreamCodec, ManyEmptyRegionsRemainIndependent) {
  // A corpus that is nothing but empty regions: every region is one
  // sentinel codeword, each independently decodable at its own offset.
  std::vector<std::vector<MInst>> Corpus(5);
  StreamCodecs SC = StreamCodecs::build(Corpus);
  BitWriter W;
  std::vector<size_t> Offsets;
  for (const auto &Region : Corpus) {
    Offsets.push_back(W.bitSize());
    ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  }
  std::vector<uint8_t> Blob = W.takeBytes();
  for (size_t Off : Offsets) {
    BitReader Rd(Blob);
    Rd.seekBit(Off);
    StreamCodecs::RegionDecoder Dec(SC, Rd);
    MInst I;
    EXPECT_FALSE(Dec.next(I));
    EXPECT_TRUE(Dec.ok());
  }
}

TEST(StreamCodec, UnusedStreamsStayEmpty) {
  // A corpus of pure three-register operates never touches the
  // displacement, literal, or system-call streams; their codes must stay
  // empty, cost no table bits beyond their empty representation, and the
  // round trip must still be exact.
  std::vector<MInst> Region;
  for (int I = 0; I != 50; ++I)
    Region.push_back(makeRRR(Opcode::Xor, I % 4, (I + 1) % 4, 3));
  StreamCodecs SC = StreamCodecs::build({Region});
  for (const auto &St : SC.stats()) {
    if (St.Kind == FieldKind::Disp16 || St.Kind == FieldKind::Disp21 ||
        St.Kind == FieldKind::Lit8 || St.Kind == FieldKind::SFunc26) {
      EXPECT_EQ(St.Symbols, 0u) << fieldKindName(St.Kind);
      EXPECT_EQ(St.PayloadBits, 0u) << fieldKindName(St.Kind);
    }
  }
  BitWriter W;
  ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  BitReader Rd(W.bytes());
  StreamCodecs::RegionDecoder Dec(SC, Rd);
  MInst I;
  size_t Count = 0;
  while (Dec.next(I)) {
    ASSERT_EQ(encode(I), encode(Region[Count]));
    ++Count;
  }
  EXPECT_TRUE(Dec.ok());
  EXPECT_EQ(Count, Region.size());
}

TEST(StreamCodec, SingleSymbolAlphabetsUseOneBit) {
  // One identical instruction repeated: every stream collapses to a
  // single-symbol alphabet, which canonical coding must represent with a
  // 1-bit code (not zero bits — the decoder needs something to consume).
  std::vector<MInst> Region(64, makeRRR(Opcode::Add, 7, 7, 7));
  StreamCodecs SC = StreamCodecs::build({Region});
  BitWriter W;
  ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  // Opcode stream: 2 symbols (Add + sentinel). Register streams: 1 symbol
  // each. Payload is a handful of bits per instruction, far below raw.
  EXPECT_LT(W.bitSize(), Region.size() * 8);
  BitReader Rd(W.bytes());
  StreamCodecs::RegionDecoder Dec(SC, Rd);
  MInst I;
  size_t Count = 0;
  while (Dec.next(I)) {
    ASSERT_EQ(encode(I), encode(Region[0]));
    ++Count;
  }
  EXPECT_TRUE(Dec.ok());
  EXPECT_EQ(Count, Region.size());
}

TEST(CanonicalCodeProperty, SingleSymbolGetsOneBitCode) {
  CanonicalCode C = CanonicalCode::build({{42, 1000}});
  EXPECT_EQ(C.numSymbols(), 1u);
  EXPECT_EQ(C.maxLength(), 1u);
  EXPECT_EQ(C.lengthOf(42), 1u);
  BitWriter W;
  ASSERT_TRUE(C.encode(42, W));
  BitReader R(W.bytes());
  EXPECT_EQ(C.decode(R), 42u);
}

TEST(CanonicalCodeProperty, FibonacciFrequenciesReachMaximumDepth) {
  // Fibonacci frequencies are the worst case for Huffman depth: n symbols
  // yield a fully skewed tree of depth n - 1. This exercises the longest
  // codewords the canonical representation must handle.
  constexpr unsigned NumSymbols = 24;
  std::vector<std::pair<uint32_t, uint64_t>> Freqs;
  uint64_t A = 1, B = 1;
  for (unsigned S = 0; S != NumSymbols; ++S) {
    Freqs.push_back({S, A});
    uint64_t Next = A + B;
    A = B;
    B = Next;
  }
  CanonicalCode C = CanonicalCode::build(Freqs);
  EXPECT_EQ(C.maxLength(), NumSymbols - 1);

  // Every symbol round-trips through its codeword.
  for (unsigned S = 0; S != NumSymbols; ++S) {
    BitWriter W;
    ASSERT_TRUE(C.encode(S, W));
    BitReader R(W.bytes());
    EXPECT_EQ(C.decode(R), S);
  }

  // The representation survives serialization at maximum depth.
  BitWriter W;
  C.serialize(W, 32);
  BitReader R(W.bytes());
  CanonicalCode C2 = CanonicalCode::deserialize(R, 32);
  ASSERT_FALSE(C2.empty());
  EXPECT_EQ(C2.lengthCounts(), C.lengthCounts());
  EXPECT_EQ(C2.values(), C.values());

  // Kraft equality: an optimal (complete) code's lengths sum to exactly 1.
  double Kraft = 0.0;
  for (unsigned S = 0; S != NumSymbols; ++S)
    Kraft += std::pow(0.5, static_cast<double>(C.lengthOf(S)));
  EXPECT_NEAR(Kraft, 1.0, 1e-12);
}

namespace {

/// One instruction per format with every field at its minimum, and one with
/// every field at its maximum representable value.
std::vector<MInst> boundaryInstructions() {
  std::vector<MInst> Out;
  for (unsigned O = 1; O != NumOpcodes; ++O) {
    Opcode Op = static_cast<Opcode>(O);
    if (!opcodeInfo(Op).IsLegal && Op != Opcode::Bsrx)
      continue;
    const FormatLayout &Layout = formatLayout(formatOf(Op));
    MInst Lo(Op), Hi(Op);
    for (unsigned S = 1; S != Layout.Count; ++S) {
      Lo.set(Layout.Slots[S].Kind, 0);
      Hi.set(Layout.Slots[S].Kind, (1u << Layout.Slots[S].Width) - 1);
    }
    Out.push_back(Lo);
    Out.push_back(Hi);
  }
  return Out;
}

} // namespace

TEST(StreamCodecBoundary, AllFieldsAtExtremesRoundTrip) {
  // Every legal opcode with every field at 0 and at its width's maximum:
  // all-ones displacements (-1 when signed), register 31, literal 255, the
  // widest system-call number. The codec must reproduce the words exactly.
  std::vector<MInst> Region = boundaryInstructions();
  // Append a second copy in reverse so value transitions cover max->0,
  // 0->max, and equal-value runs.
  std::vector<MInst> Reversed(Region.rbegin(), Region.rend());
  Region.insert(Region.end(), Reversed.begin(), Reversed.end());

  StreamCodecs SC = StreamCodecs::build({Region});

  BitWriter W;
  ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  BitReader Rd(W.bytes());
  StreamCodecs::RegionDecoder Dec(SC, Rd);
  MInst I;
  size_t Count = 0;
  while (Dec.next(I)) {
    ASSERT_LT(Count, Region.size());
    ASSERT_EQ(encode(I), encode(Region[Count]))
        << "instruction " << Count << " opcode "
        << static_cast<unsigned>(Region[Count].Op);
    ++Count;
  }
  EXPECT_TRUE(Dec.ok());
  EXPECT_EQ(Count, Region.size());
}

TEST(StreamCodecBoundary, EncodingUnknownSymbolFailsCleanly) {
  // Encoding an instruction whose field value was never in the corpus must
  // fail with a recoverable status, not corrupt the stream.
  std::vector<MInst> Region(4, makeRRR(Opcode::Add, 1, 2, 3));
  StreamCodecs SC = StreamCodecs::build({Region});
  BitWriter W;
  Status St = SC.encodeRegion({makeRRR(Opcode::Add, 30, 2, 3)}, W);
  EXPECT_FALSE(St.ok());
  EXPECT_EQ(St.code(), StatusCode::EncodingError);
}
