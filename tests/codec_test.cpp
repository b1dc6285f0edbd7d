//===- tests/codec_test.cpp - Codec plurality tests -----------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The Codec interface contract and the codec-select pass built on it:
// the pattern coder round-trips exactly and deterministically,
// their trial measurement (measureRegion) agrees bit-for-bit with the real
// encoder and work-for-work with the real decoder (the property the
// selection objective and the runtime cost charge both rest on), damaged
// side tables are rejected by validate(), per-region auto-selection is
// never worse than always-Huffman on the modeled objective, and — the
// size-accounting regression — the footprint breakdown's totals equal the
// on-disk image bytes under every codec, with the compressed charge equal
// to the byte ceiling of the measured table + payload bits.
//
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "huff/PatternCodec.h"
#include "link/Layout.h"
#include "squash/CodecSelect.h"
#include "squash/Driver.h"
#include "squash/Observability.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

namespace {

/// Instruction budget for every squashed run here: about ten times the
/// longest, so a runtime regression that spins fails fast instead of at
/// the default limit.
constexpr uint64_t RunBudget = 5'000'000;

/// Generates a random legal instruction.
MInst randomInst(Rng &R) {
  Opcode Op;
  do {
    Op = static_cast<Opcode>(1 + R.nextBelow(NumOpcodes - 1));
  } while (!opcodeInfo(Op).IsLegal && Op != Opcode::Bsrx);
  const FormatLayout &Layout = formatLayout(formatOf(Op));
  MInst I(Op);
  for (unsigned S = 1; S != Layout.Count; ++S) {
    uint32_t Max = (1u << Layout.Slots[S].Width) - 1;
    uint32_t V = R.chance(3, 4) ? R.nextBelow(8) : (R.next() & Max);
    I.set(Layout.Slots[S].Kind, V & Max);
  }
  return I;
}

/// A corpus with deliberate n-gram repetition (so the pattern coder has a
/// dictionary to mine) and skewed opcode sequencing.
std::vector<std::vector<MInst>> patternedCorpus(Rng &R, size_t Regions,
                                                size_t MaxLen) {
  // A handful of motifs repeated throughout, interleaved with noise.
  std::vector<std::vector<MInst>> Motifs;
  for (int M = 0; M != 4; ++M) {
    std::vector<MInst> Motif;
    size_t MotifLen = 3 + R.nextBelow(3);
    for (size_t I = 0; I != MotifLen; ++I)
      Motif.push_back(randomInst(R));
    Motifs.push_back(std::move(Motif));
  }
  std::vector<std::vector<MInst>> Corpus(Regions);
  for (auto &Region : Corpus) {
    size_t Len = 8 + R.nextBelow(MaxLen);
    while (Region.size() < Len) {
      if (R.chance(2, 3)) {
        const std::vector<MInst> &M = Motifs[R.nextBelow(Motifs.size())];
        Region.insert(Region.end(), M.begin(), M.end());
      } else {
        Region.push_back(randomInst(R));
      }
    }
  }
  return Corpus;
}

/// Serializes a codec's side tables into raw bytes (determinism checks).
std::vector<uint8_t> serializedTables(const Codec &C) {
  BitWriter W;
  C.serializeTables(W);
  return W.takeBytes();
}

/// Round-trips every corpus region through \p C and asserts (a) exact
/// instruction recovery, (b) measureRegion's bit count equals the real
/// encoder's, and (c) measureRegion's decode work equals the decoder's.
template <typename CodecT>
void roundTripExactly(const CodecT &C,
                      const std::vector<std::vector<MInst>> &Corpus) {
  BitWriter W;
  std::vector<size_t> Offsets;
  std::vector<uint64_t> MeasuredBits;
  std::vector<DecodeWork> MeasuredWork;
  for (const auto &Region : Corpus) {
    size_t Before = W.bitSize();
    Offsets.push_back(Before);
    ASSERT_TRUE(C.encodeRegion(Region, W).ok());

    uint64_t Bits = 0;
    DecodeWork Work;
    ASSERT_TRUE(C.measureRegion(Region, Bits, Work).ok());
    EXPECT_EQ(Bits, W.bitSize() - Before)
        << "measureRegion disagrees with the real encoder";
    MeasuredBits.push_back(Bits);
    MeasuredWork.push_back(Work);
  }
  std::vector<uint8_t> Blob = W.takeBytes();

  for (size_t R = 0; R != Corpus.size(); ++R) {
    std::unique_ptr<RegionCursor> Cur =
        C.makeDecoder(Blob.data(), Blob.size(), Offsets[R]);
    MInst I;
    size_t Count = 0;
    while (Cur->next(I)) {
      ASSERT_LT(Count, Corpus[R].size()) << "region " << R << " overran";
      const MInst &Want = Corpus[R][Count];
      ASSERT_EQ(I.Op, Want.Op) << "region " << R << " inst " << Count;
      for (unsigned F = 0; F != NumFieldKinds; ++F)
        ASSERT_EQ(I.Fields[F], Want.Fields[F])
            << "region " << R << " inst " << Count << " field " << F;
      ++Count;
    }
    ASSERT_TRUE(Cur->ok()) << "region " << R << " stream corrupt";
    ASSERT_EQ(Count, Corpus[R].size()) << "region " << R << " short decode";

    // The decoder's work record matches the encoder-side prediction — the
    // runtime's decode charge and the selection objective use the same
    // numbers.
    const DecodeWork &Got = Cur->work();
    EXPECT_EQ(Got.Instructions, MeasuredWork[R].Instructions) << R;
    EXPECT_EQ(Got.PatternCovered, MeasuredWork[R].PatternCovered) << R;
    EXPECT_EQ(Got.Escapes, MeasuredWork[R].Escapes) << R;
    // The cursor consumed exactly the measured bits.
    EXPECT_EQ(Cur->bitPosition() - Offsets[R], MeasuredBits[R]) << R;
  }
}

/// The squash fixture the end-to-end codec tests share.
struct WorkloadFixture {
  workloads::Workload W;
  Image Baseline;
  Profile Prof;
  vea::RunResult Base;
  std::vector<uint8_t> BaseOutput;

  explicit WorkloadFixture(double Scale = 0.05) {
    W = workloads::buildAdpcm(Scale);
    compactProgram(W.Prog).take();
    Baseline = layoutProgram(W.Prog);
    Prof = profileImage(Baseline, W.ProfilingInput).take();
    Machine M(Baseline);
    M.setInput(W.TimingInput);
    Base = M.run();
    BaseOutput = M.output();
    EXPECT_EQ(Base.Status, RunStatus::Halted);
  }

  SquashResult squash(const std::string &Codec) const {
    Options Opts;
    Opts.Theta = 0.1;
    Opts.Codec = Codec;
    Program Prog = W.Prog;
    return squashProgram(Prog, Prof, Opts).take();
  }
};

/// Decodes every region of \p SP through its assigned cursor and sums the
/// modeled decode cycles — the runtime side of the selection objective.
uint64_t modeledDecodeCycles(const SquashedProgram &SP) {
  const RuntimeLayout &L = SP.Layout;
  const uint8_t *Blob = SP.Img.Bytes.data() + (L.BlobBase - SP.Img.Base);
  const CostModel Costs; // Defaults, same as Options().Costs.
  uint64_t Total = 0;
  for (size_t R = 0; R != SP.Regions.size(); ++R) {
    std::unique_ptr<RegionCursor> Cur =
        SP.makeRegionCursor(R, Blob, L.BlobBytes);
    MInst I;
    while (Cur->next(I))
      ;
    EXPECT_TRUE(Cur->ok()) << "region " << R;
    Total += codecDecodeCycles(Costs, SP.regionCodec(R), Cur->work());
  }
  return Total;
}

} // namespace

//===----------------------------------------------------------------------===//
// Coder round-trips, measurement exactness, determinism
//===----------------------------------------------------------------------===//

TEST(PatternCodec, RoundTripsExactlyWithExactMeasurement) {
  Rng R(2027);
  auto Corpus = patternedCorpus(R, 16, 120);
  PatternCodec C = PatternCodec::build(Corpus);
  ASSERT_TRUE(C.present());
  ASSERT_TRUE(C.validate().ok());
  EXPECT_GT(C.numPatterns(), 0u) << "motif corpus mined no patterns";
  roundTripExactly(C, Corpus);
}

TEST(PatternCodec, RoundTripsCorpusWithoutRepetition) {
  // Worst case for the dictionary: pure noise. The coder must still
  // round-trip (everything escapes).
  Rng R(515);
  std::vector<std::vector<MInst>> Corpus(6);
  for (auto &Region : Corpus)
    for (size_t I = 0; I != 40; ++I)
      Region.push_back(randomInst(R));
  PatternCodec C = PatternCodec::build(Corpus);
  ASSERT_TRUE(C.present());
  roundTripExactly(C, Corpus);
}

TEST(CodecBuild, IsDeterministic) {
  Rng R1(7711), R2(7711);
  auto CorpusA = patternedCorpus(R1, 12, 100);
  auto CorpusB = patternedCorpus(R2, 12, 100);
  ASSERT_EQ(CorpusA.size(), CorpusB.size());

  PatternCodec PA = PatternCodec::build(CorpusA);
  PatternCodec PB = PatternCodec::build(CorpusB);
  EXPECT_EQ(serializedTables(PA), serializedTables(PB));

  // Same corpus, same codec -> same bits for every region.
  BitWriter WA, WB;
  for (size_t I = 0; I != CorpusA.size(); ++I) {
    ASSERT_TRUE(PA.encodeRegion(CorpusA[I], WA).ok());
    ASSERT_TRUE(PB.encodeRegion(CorpusB[I], WB).ok());
  }
  EXPECT_EQ(WA.takeBytes(), WB.takeBytes());
}

TEST(CodecBuild, AbsentCodecRefusesWork) {
  PatternCodec P;
  EXPECT_FALSE(P.present());
  EXPECT_FALSE(P.validate().ok());
  BitWriter W;
  EXPECT_FALSE(P.encodeRegion({}, W).ok());
}

TEST(CodecValidate, RejectsTruncatedTables) {
  Rng R(909);
  auto Corpus = patternedCorpus(R, 10, 80);

  PatternCodec P = PatternCodec::build(Corpus);
  ASSERT_TRUE(P.validate().ok());
  P.selectorCodeForFault().truncateValueListForFault();
  Status PS = P.validate();
  ASSERT_FALSE(PS.ok());
  EXPECT_EQ(PS.code(), StatusCode::MalformedImage);
}

TEST(CodecNames, RoundTripAndRejectAuto) {
  for (unsigned K = 0; K != NumCodecKinds; ++K) {
    CodecKind Kind = static_cast<CodecKind>(K);
    CodecKind Parsed;
    ASSERT_TRUE(codecKindByName(codecKindName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  CodecKind Unused;
  EXPECT_FALSE(codecKindByName("auto", Unused));
  EXPECT_FALSE(codecKindByName("zstd", Unused));
  EXPECT_FALSE(codecKindByName("context", Unused));
}

//===----------------------------------------------------------------------===//
// Pipeline integration: forced codecs, auto-selection, error propagation
//===----------------------------------------------------------------------===//

TEST(CodecSelect, UnknownCodecNameIsInvalidArgument) {
  WorkloadFixture Fx;
  Options Opts;
  Opts.Theta = 0.1;
  Opts.Codec = "zstd";
  Program Prog = Fx.W.Prog;
  Expected<SquashResult> SR = squashProgram(Prog, Fx.Prof, Opts);
  ASSERT_FALSE(SR);
  EXPECT_EQ(SR.status().code(), StatusCode::InvalidArgument);
}

TEST(CodecSelect, ForcedCodecRunsEndToEndWithPerCodecStats) {
  WorkloadFixture Fx;
  const char *Codec = "pattern";
  SquashResult SR = Fx.squash(Codec);
  ASSERT_FALSE(SR.Identity);

  CodecKind Want;
  ASSERT_TRUE(codecKindByName(Codec, Want));
  for (size_t R = 0; R != SR.SP.Regions.size(); ++R)
    EXPECT_EQ(SR.SP.regionCodec(R), Want) << "region " << R;

  SquashedRun Run = runSquashed(SR.SP, Fx.W.TimingInput, RunBudget);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Run.ExitCode, Fx.Base.ExitCode);
  EXPECT_EQ(Run.Output, Fx.BaseOutput);

  // Every fill was charged to the forced codec, none to the others.
  ASSERT_GT(Run.Runtime.Decompressions, 0u);
  for (unsigned K = 0; K != NumCodecKinds; ++K) {
    if (static_cast<CodecKind>(K) == Want) {
      EXPECT_EQ(Run.Runtime.FillsByCodec[K], Run.Runtime.Decompressions);
      EXPECT_GT(Run.Runtime.DecodeCyclesByCodec[K], 0u);
    } else {
      EXPECT_EQ(Run.Runtime.FillsByCodec[K], 0u);
      EXPECT_EQ(Run.Runtime.DecodeCyclesByCodec[K], 0u);
    }
  }

  // The per-codec counters surface in the metrics export.
  MetricsRegistry Reg;
  Run.Runtime.exportMetrics(Reg);
  EXPECT_TRUE(Reg.has(std::string("runtime.fills_") + Codec));
  EXPECT_TRUE(Reg.has(std::string("runtime.decode_cycles_") + Codec));
}

TEST(CodecSelect, AutoIsNeverWorseThanAlwaysHuffman) {
  WorkloadFixture Fx;
  SquashResult Huff = Fx.squash("huffman");
  SquashResult Auto = Fx.squash("auto");
  ASSERT_FALSE(Huff.Identity);
  ASSERT_FALSE(Auto.Identity);

  // The objective codec-select minimizes: compressed bytes x modeled
  // decode cycles. The safety valve re-models the whole blob before
  // committing, so auto can never regress it.
  const uint64_t HuffObj = static_cast<uint64_t>(
      Huff.SP.Footprint.CompressedBytes) * modeledDecodeCycles(Huff.SP);
  const uint64_t AutoObj = static_cast<uint64_t>(
      Auto.SP.Footprint.CompressedBytes) * modeledDecodeCycles(Auto.SP);
  EXPECT_LE(AutoObj, HuffObj);

  // Auto still runs correctly.
  SquashedRun Run = runSquashed(Auto.SP, Fx.W.TimingInput, RunBudget);
  ASSERT_EQ(Run.Run.Status, RunStatus::Halted) << Run.Run.FaultMessage;
  EXPECT_EQ(Run.Run.ExitCode, Fx.Base.ExitCode);
  EXPECT_EQ(Run.Output, Fx.BaseOutput);

  // The per-region choices land in the metrics export and sum to the
  // region count.
  MetricsRegistry Reg;
  collectSquashMetrics(Reg, Auto);
  uint64_t Sum = 0;
  for (unsigned K = 0; K != NumCodecKinds; ++K)
    Sum += Reg.counter("squash.regions.codec_" +
                       std::string(codecKindName(static_cast<CodecKind>(K))));
  EXPECT_EQ(Sum, Auto.SP.Regions.size());
}

TEST(CodecSelect, ForcedHuffmanMatchesLegacyImageByteForByte) {
  // Codec plurality must be invisible when unused: the default
  // configuration's image is identical to one squashed with the pass
  // explicitly disabled (the legacy single-codec path).
  WorkloadFixture Fx;
  SquashResult Default = Fx.squash("huffman");

  Options Opts;
  Opts.Theta = 0.1;
  Opts.DisabledPasses = {"codec-select"};
  Program Prog = Fx.W.Prog;
  SquashResult Disabled = squashProgram(Prog, Fx.Prof, Opts).take();
  ASSERT_EQ(Default.Identity, Disabled.Identity);
  EXPECT_EQ(Default.SP.Img.Bytes, Disabled.SP.Img.Bytes);
}

//===----------------------------------------------------------------------===//
// Size-accounting regression (the footprint bugfix)
//===----------------------------------------------------------------------===//

TEST(Footprint, TotalsEqualOnDiskImageBytesUnderEveryCodec) {
  WorkloadFixture Fx;
  for (const char *Codec : {"huffman", "pattern", "auto"}) {
    SCOPED_TRACE(Codec);
    SquashResult SR = Fx.squash(Codec);
    ASSERT_FALSE(SR.Identity);
    const FootprintBreakdown &F = SR.SP.Footprint;
    const RuntimeLayout &L = SR.SP.Layout;
    const Image &Img = SR.SP.Img;

    // The compressed charge is exactly the on-disk blob, and the blob is
    // exactly the measured table + payload bits, byte-ceiled: no side
    // table escapes the charge.
    EXPECT_EQ(F.CompressedBytes, L.BlobBytes);
    EXPECT_EQ(F.CompressedBytes,
              (F.HuffmanTableBits + F.PatternTableBits + F.PayloadBits + 7) /
                  8);
    EXPECT_GT(F.PayloadBits, 0u);
    EXPECT_GT(F.HuffmanTableBits + F.PatternTableBits, 0u);

    // The word-counted segments tile the image up to the data segment.
    EXPECT_EQ(4u * (F.NeverCompressedWords + F.EntryStubWords +
                    F.DecompressorWords + F.OffsetTableWords +
                    F.StubAreaWords + F.SlotMapWords + F.BufferWords),
              L.DataBase - Img.Base);

    // And the whole image is machinery + data + blob — the footprint total
    // equals what is actually on disk, minus only the data segment it
    // deliberately excludes.
    EXPECT_EQ(Img.Bytes.size(),
              F.totalCodeBytes() + (L.BlobBase - L.DataBase));
  }
}

//===----------------------------------------------------------------------===//
// Image format versioning
//===----------------------------------------------------------------------===//

TEST(FormatVersion, AttachRejectsForeignVersions) {
  WorkloadFixture Fx;
  SquashResult SR = Fx.squash("huffman");
  ASSERT_FALSE(SR.Identity);
  EXPECT_EQ(SR.SP.Layout.FormatVersion, RuntimeLayout::CurrentFormatVersion);

  for (uint32_t Bad : {0u, 1u, RuntimeLayout::CurrentFormatVersion + 1}) {
    SquashedProgram SP = SR.SP;
    SP.Layout.FormatVersion = Bad;
    SquashedRun Run = runSquashed(SP, Fx.W.TimingInput, RunBudget);
    ASSERT_EQ(Run.Run.Status, RunStatus::Fault)
        << "version " << Bad << " attached";
    EXPECT_NE(Run.Run.FaultMessage.find("format version"), std::string::npos)
        << Run.Run.FaultMessage;
    EXPECT_EQ(Run.Runtime.Decompressions, 0u);
  }
}

TEST(FormatVersion, RegionWithUnknownCodecIdIsRejected) {
  WorkloadFixture Fx;
  SquashResult SR = Fx.squash("huffman");
  ASSERT_FALSE(SR.Identity);
  // The first invalid id, and id 2, which the retired context coder used:
  // an image naming it must fail attach, never decode as another codec.
  for (uint8_t Bad : {static_cast<uint8_t>(NumCodecKinds), uint8_t{2}}) {
    SquashedProgram SP = SR.SP;
    SP.Regions[0].Codec = Bad;
    SquashedRun Run = runSquashed(SP, Fx.W.TimingInput, RunBudget);
    ASSERT_EQ(Run.Run.Status, RunStatus::Fault) << "codec id " << int(Bad);
    EXPECT_NE(Run.Run.FaultMessage.find("unknown codec"), std::string::npos)
        << Run.Run.FaultMessage;
  }
}
