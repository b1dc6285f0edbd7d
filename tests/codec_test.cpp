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
// to the byte ceiling of the measured table + payload bits. The pattern
// coder's hashed miner and first-word match index are checked bit for bit
// against a map-counted, linearly matched oracle, and the image's pattern
// tables against a fresh build over the corpus the rewriter stores.
//
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "huff/PatternCodec.h"
#include "link/Layout.h"
#include "squash/CodecSelect.h"
#include "squash/Driver.h"
#include "squash/Observability.h"
#include "squash/Pipeline.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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


/// The pattern coder as first written, kept as an oracle for the hashed
/// n-gram miner and the first-word match index of huff/PatternCodec.cpp:
/// n-grams counted as std::vector keys of a std::map and a linear,
/// longest-first dictionary scan at every word. It builds the same tables,
/// serializes them in the same format and trial-encodes the same way, so
/// any difference from PatternCodec is a bug in one of the two.
class OraclePatternCoder {
public:
  explicit OraclePatternCoder(const std::vector<std::vector<MInst>> &Corpus) {
    std::vector<std::vector<uint32_t>> RegionWords;
    for (const auto &R : Corpus)
      RegionWords.push_back(toWords(R));

    std::map<std::vector<uint32_t>, uint64_t> Counts;
    for (const auto &Words : RegionWords)
      for (size_t At = 0; At != Words.size(); ++At)
        for (size_t Len = PatternCodec::MinLen;
             Len <= PatternCodec::MaxLen && At + Len <= Words.size(); ++Len)
          ++Counts[std::vector<uint32_t>(Words.begin() + At,
                                         Words.begin() + At + Len)];

    std::vector<std::pair<uint64_t, std::vector<uint32_t>>> Ranked;
    for (const auto &[Words, Count] : Counts)
      if (Count >= 2)
        Ranked.emplace_back(Count * Words.size(), Words);
    std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
      if (A.first != B.first)
        return A.first > B.first;
      return before(A.second, B.second);
    });
    if (Ranked.size() > PatternCodec::MaxPatterns)
      Ranked.resize(PatternCodec::MaxPatterns);
    for (auto &[Score, Words] : Ranked)
      Patterns.push_back(std::move(Words));
    std::sort(Patterns.begin(), Patterns.end(), before);

    for (int Round = 0; Round != 2; ++Round) {
      std::vector<uint64_t> Uses(Patterns.size(), 0);
      for (const auto &Words : RegionWords)
        for (size_t At = 0; At < Words.size();) {
          int M = matchAt(Words, At);
          if (M >= 0) {
            ++Uses[static_cast<size_t>(M)];
            At += Patterns[static_cast<size_t>(M)].size();
          } else {
            ++At;
          }
        }
      std::vector<std::vector<uint32_t>> Kept;
      const uint64_t MinUses = Round == 0 ? 2 : 1;
      for (size_t I = 0; I != Patterns.size(); ++I)
        if (Uses[I] >= MinUses)
          Kept.push_back(std::move(Patterns[I]));
      Patterns = std::move(Kept);
    }

    std::vector<uint64_t> SelFreq(Patterns.size() + 2, 0);
    std::array<std::map<uint32_t, uint64_t>, NumFieldKinds> FieldFreq;
    for (size_t R = 0; R != RegionWords.size(); ++R) {
      const auto &Words = RegionWords[R];
      for (size_t At = 0; At < Words.size();) {
        int M = matchAt(Words, At);
        if (M >= 0) {
          ++SelFreq[static_cast<size_t>(M)];
          At += Patterns[static_cast<size_t>(M)].size();
          continue;
        }
        ++SelFreq[escape()];
        const MInst &I = Corpus[R][At];
        const FormatLayout &L = formatLayout(formatOf(I.Op));
        for (unsigned S = 0; S != L.Count; ++S)
          ++FieldFreq[static_cast<unsigned>(L.Slots[S].Kind)]
                     [I.get(L.Slots[S].Kind)];
        ++At;
      }
      ++SelFreq[end()];
    }
    std::vector<std::pair<uint32_t, uint64_t>> SelPairs;
    for (uint32_t Sym = 0; Sym != SelFreq.size(); ++Sym)
      if (SelFreq[Sym])
        SelPairs.emplace_back(Sym, SelFreq[Sym]);
    Selector = CanonicalCode::build(std::move(SelPairs));
    for (unsigned K = 0; K != NumFieldKinds; ++K) {
      std::vector<std::pair<uint32_t, uint64_t>> Pairs(FieldFreq[K].begin(),
                                                       FieldFreq[K].end());
      Esc[K] = CanonicalCode::build(std::move(Pairs));
    }
  }

  void serializeTables(BitWriter &W) const {
    W.writeBits(static_cast<uint32_t>(Patterns.size()), 8);
    for (const auto &Words : Patterns) {
      W.writeBits(static_cast<uint32_t>(Words.size()), 4);
      for (uint32_t Word : Words)
        W.writeBits(Word, 32);
    }
    Selector.serialize(W, 8);
    for (unsigned K = 0; K != NumFieldKinds; ++K)
      Esc[K].serialize(W, fieldWidth(static_cast<FieldKind>(K)));
  }

  /// Trial encode of one region: its payload bits and decode work.
  void measure(const std::vector<MInst> &Insts, BitWriter &W,
               DecodeWork &Work) const {
    std::vector<uint32_t> Words = toWords(Insts);
    for (size_t At = 0; At < Words.size();) {
      int M = matchAt(Words, At);
      if (M >= 0) {
        ASSERT_TRUE(Selector.encode(static_cast<uint32_t>(M), W));
        const size_t Len = Patterns[static_cast<size_t>(M)].size();
        Work.Instructions += Len;
        Work.PatternCovered += Len;
        At += Len;
        continue;
      }
      ASSERT_TRUE(Selector.encode(escape(), W));
      const MInst &I = Insts[At];
      const FormatLayout &L = formatLayout(formatOf(I.Op));
      for (unsigned S = 0; S != L.Count; ++S) {
        FieldKind K = L.Slots[S].Kind;
        ASSERT_TRUE(Esc[static_cast<unsigned>(K)].encode(I.get(K), W));
      }
      ++Work.Instructions;
      ++Work.Escapes;
      ++At;
    }
    ASSERT_TRUE(Selector.encode(end(), W));
  }

private:
  static std::vector<uint32_t> toWords(const std::vector<MInst> &Insts) {
    std::vector<uint32_t> Words;
    for (const MInst &I : Insts)
      Words.push_back(encode(I));
    return Words;
  }
  static bool before(const std::vector<uint32_t> &A,
                     const std::vector<uint32_t> &B) {
    if (A.size() != B.size())
      return A.size() > B.size();
    return A < B;
  }
  int matchAt(const std::vector<uint32_t> &Words, size_t At) const {
    for (size_t P = 0; P != Patterns.size(); ++P) {
      const auto &Pat = Patterns[P];
      if (At + Pat.size() <= Words.size() &&
          std::equal(Pat.begin(), Pat.end(), Words.begin() + At))
        return static_cast<int>(P);
    }
    return -1;
  }
  uint32_t escape() const { return static_cast<uint32_t>(Patterns.size()); }
  uint32_t end() const { return static_cast<uint32_t>(Patterns.size()) + 1; }

  std::vector<std::vector<uint32_t>> Patterns;
  CanonicalCode Selector;
  std::array<CanonicalCode, NumFieldKinds> Esc;
};

/// Asserts PatternCodec::build and the oracle agree on \p Corpus: the same
/// serialized tables, and per region the same trial-encoded bits and the
/// same decode work.
void expectMatchesOracle(const std::vector<std::vector<MInst>> &Corpus) {
  PatternCodec C = PatternCodec::build(Corpus);
  OraclePatternCoder O(Corpus);
  BitWriter OW;
  O.serializeTables(OW);
  ASSERT_EQ(C.tableBits(), OW.bitSize());
  ASSERT_EQ(serializedTables(C), OW.takeBytes());
  for (size_t R = 0; R != Corpus.size(); ++R) {
    uint64_t Got = 0;
    DecodeWork Work;
    ASSERT_TRUE(C.measureRegion(Corpus[R], Got, Work).ok()) << R;
    BitWriter Want;
    DecodeWork WantWork;
    O.measure(Corpus[R], Want, WantWork);
    ASSERT_EQ(Got, Want.bitSize()) << "region " << R;
    BitWriter GotW;
    ASSERT_TRUE(C.encodeRegion(Corpus[R], GotW).ok()) << R;
    ASSERT_EQ(GotW.takeBytes(), Want.takeBytes()) << "region " << R;
    EXPECT_EQ(Work.Instructions, WantWork.Instructions) << R;
    EXPECT_EQ(Work.PatternCovered, WantWork.PatternCovered) << R;
    EXPECT_EQ(Work.Escapes, WantWork.Escapes) << R;
  }
}

/// The full-size workloads, as the end-to-end benchmark builds them.
using WorkloadBuilder = workloads::Workload (*)(double);
constexpr WorkloadBuilder WorkloadBuilders[] = {
    workloads::buildAdpcm,    workloads::buildEpic,
    workloads::buildG721Dec,  workloads::buildG721Enc,
    workloads::buildGsm,      workloads::buildJpegDec,
    workloads::buildJpegEnc,  workloads::buildMpeg2Dec,
    workloads::buildMpeg2Enc, workloads::buildPgp,
    workloads::buildRasta};

/// One full-size workload squashed under the offline compressor's
/// configuration (theta 0.01, codec auto, profile layout), keeping the
/// pipeline context so the stored corpus can be lowered again afterwards.
struct PlacedSquash {
  Program Prog;
  Profile Prof;
  Options Opts;
  SquashResult R;
  std::unique_ptr<PipelineContext> Ctx;
  Status Squashed;

  explicit PlacedSquash(int Index) {
    workloads::Workload W = WorkloadBuilders[Index](1.0);
    compactProgram(W.Prog).take();
    Prof = profileImage(layoutProgram(W.Prog), W.ProfilingInput).take();
    Prog = std::move(W.Prog);
    Opts.Theta = 0.01;
    Opts.Codec = "auto";
    Opts.ProfileLayout = true;
    Ctx = std::make_unique<PipelineContext>(Prog, Prof, Opts, R);
    PassManager PM;
    buildStandardPipeline(PM);
    Squashed = PM.run(*Ctx);
  }

  /// The corpus the rewriter stored: every region lowered under the
  /// pipeline's final function order.
  Expected<std::vector<std::vector<MInst>>> storedCorpus() {
    return lowerStoredRegions(Ctx->program(), Ctx->cfg(), Ctx->Part,
                              Ctx->BufferSafeFuncs, Opts, Ctx->FuncOrder);
  }
};

std::string workloadParamName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"adpcm",    "epic",     "g721_dec",
                                "g721_enc", "gsm",      "jpeg_dec",
                                "jpeg_enc", "mpeg2dec", "mpeg2enc",
                                "pgp",      "rasta"};
  return Names[Info.param];
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

TEST(CodecBuild, MatchesMapMinerOracleOnSeededCorpora) {
  // Region counts and lengths vary with the seed, so some corpora mine
  // fewer than MaxPatterns candidates and most mine many more.
  for (uint64_t Seed = 0; Seed != 64; ++Seed) {
    SCOPED_TRACE(Seed);
    Rng R(9000 + Seed);
    expectMatchesOracle(patternedCorpus(R, 1 + Seed % 17, 10 + 7 * (Seed % 19)));
  }
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

//===----------------------------------------------------------------------===//
// The offline compressor's corpus: one pattern build, on the placed regions
//===----------------------------------------------------------------------===//

namespace {
class PlacedCorpus : public ::testing::TestWithParam<int> {};
} // namespace

TEST_P(PlacedCorpus, PatternCodecMatchesMapMinerOracle) {
  PlacedSquash S(GetParam());
  ASSERT_TRUE(S.Squashed.ok()) << S.Squashed.toString();
  Expected<std::vector<std::vector<MInst>>> Stored = S.storedCorpus();
  ASSERT_TRUE(Stored.ok()) << Stored.status().toString();
  ASSERT_FALSE(Stored.get().empty());
  expectMatchesOracle(Stored.get());
}

TEST_P(PlacedCorpus, ImageTablesAreTrainedOnTheStoredCorpus) {
  // Codec-select builds the pattern tables once, from the corpus lowered
  // under the layout pass's order, and the rewriter stores them as given.
  // So every region of the image must decode to that corpus, and the
  // image's pattern tables must equal a fresh build over it. A pass that
  // moved code between codec-select and rewrite would break both.
  PlacedSquash S(GetParam());
  ASSERT_TRUE(S.Squashed.ok()) << S.Squashed.toString();
  ASSERT_FALSE(S.R.Identity);
  const SquashedProgram &SP = S.R.SP;
  Expected<std::vector<std::vector<MInst>>> StoredOr = S.storedCorpus();
  ASSERT_TRUE(StoredOr.ok()) << StoredOr.status().toString();
  const std::vector<std::vector<MInst>> &Stored = StoredOr.get();
  ASSERT_EQ(Stored.size(), SP.Regions.size());

  const RuntimeLayout &L = SP.Layout;
  const uint8_t *Blob = SP.Img.Bytes.data() + (L.BlobBase - SP.Img.Base);
  size_t PatternRegions = 0;
  for (size_t R = 0; R != SP.Regions.size(); ++R) {
    PatternRegions += SP.regionCodec(R) == CodecKind::Pattern;
    std::unique_ptr<RegionCursor> Cur =
        SP.makeRegionCursor(R, Blob, L.BlobBytes);
    MInst I;
    size_t N = 0;
    while (Cur->next(I)) {
      ASSERT_LT(N, Stored[R].size()) << "region " << R << " overran";
      ASSERT_EQ(encode(I), encode(Stored[R][N])) << "region " << R << ":" << N;
      ++N;
    }
    ASSERT_TRUE(Cur->ok()) << "region " << R;
    ASSERT_EQ(N, Stored[R].size()) << "region " << R;
  }
  ASSERT_GT(PatternRegions, 0u);
  EXPECT_EQ(serializedTables(SP.Pattern),
            serializedTables(PatternCodec::build(Stored)));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PlacedCorpus, ::testing::Range(0, 11),
                         workloadParamName);
