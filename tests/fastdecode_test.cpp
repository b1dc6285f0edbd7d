//===- tests/fastdecode_test.cpp - Table-driven decoder conformance -------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The fast decoder's contract (DESIGN.md §16): FastDecoder is a bit-exact
// drop-in for StreamCodecs::RegionDecoder — same instructions, same bit
// positions after every decode, same clean-end/corrupt verdicts — on every
// stream, valid or not. This suite pins that equivalence three ways:
//
//  - Conformance: random corpora at every table width, plus the deliberate
//    edge cases — codes longer than the probe window, single-symbol
//    alphabets, empty regions, streams starting at every intra-byte bit
//    offset, and regions long enough to cross many 64-bit window refills.
//  - Differential execution: 64 random programs and all 11 workloads run
//    byte-identically with FastDecode on and off, at every table width.
//  - Fuzz: truncated, bit-flipped, and garbage streams produce the same
//    decoded prefix and the same verdict from both decoders, and never
//    read out of bounds (the fastdecode-asan preset runs this suite under
//    AddressSanitizer).
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "compact/Compact.h"
#include "huff/FastDecoder.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "squash/Driver.h"
#include "squash/FaultInjector.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace squash;
using namespace vea;

namespace {

/// Generates a random legal instruction (value skew gives the Huffman
/// codes something to exploit, so codeword lengths vary widely).
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

std::vector<std::vector<MInst>> randomCorpus(Rng &R, size_t Regions,
                                             size_t MaxLen) {
  std::vector<std::vector<MInst>> Corpus(Regions);
  for (auto &Region : Corpus) {
    size_t Len = 1 + R.nextBelow(MaxLen);
    for (size_t I = 0; I != Len; ++I)
      Region.push_back(randomInst(R));
  }
  return Corpus;
}

/// Everything one decode of a region observes: the decoded instruction
/// words, the decoder's bit position after each successful next(), and the
/// final verdict. Fast and slow must agree on all of it.
struct DecodeTrace {
  std::vector<uint32_t> Insts; ///< encode() of each decoded instruction.
  std::vector<size_t> Positions;
  bool Ok = false;
  bool HitCap = false;
};

/// Cap for fuzz inputs: garbage bits can decode arbitrarily many
/// instructions before stumbling on a sentinel, and the equivalence claim
/// holds for the capped prefix just as well.
constexpr size_t DecodeCap = 1 << 14;

DecodeTrace decodeSlow(const StreamCodecs &SC, const std::vector<uint8_t> &Blob,
                       size_t StartBit, size_t Cap = DecodeCap) {
  DecodeTrace T;
  BitReader Rd(Blob);
  Rd.seekBit(StartBit);
  StreamCodecs::RegionDecoder Dec(SC, Rd);
  MInst I;
  while (T.Insts.size() < Cap && Dec.next(I)) {
    T.Insts.push_back(encode(I));
    T.Positions.push_back(Dec.bitPosition());
  }
  T.HitCap = T.Insts.size() == Cap;
  T.Ok = Dec.ok();
  return T;
}

DecodeTrace decodeFast(const StreamCodecs &SC,
                       std::shared_ptr<const FastTables> Tables,
                       const std::vector<uint8_t> &Blob, size_t StartBit,
                       size_t Cap = DecodeCap) {
  DecodeTrace T;
  FastDecoder Dec(SC, std::move(Tables), Blob.data(), Blob.size(), StartBit);
  MInst I;
  while (T.Insts.size() < Cap && Dec.next(I)) {
    T.Insts.push_back(encode(I));
    T.Positions.push_back(Dec.bitPosition());
  }
  T.HitCap = T.Insts.size() == Cap;
  T.Ok = Dec.ok();
  return T;
}

void expectSameDecode(const DecodeTrace &Fast, const DecodeTrace &Slow,
                      const std::string &Tag) {
  ASSERT_EQ(Fast.Insts.size(), Slow.Insts.size())
      << Tag << ": decoded instruction counts diverged";
  for (size_t I = 0; I != Fast.Insts.size(); ++I) {
    ASSERT_EQ(Fast.Insts[I], Slow.Insts[I])
        << Tag << ": instruction " << I << " diverged";
    ASSERT_EQ(Fast.Positions[I], Slow.Positions[I])
        << Tag << ": bit position after instruction " << I << " diverged";
  }
  if (!Fast.HitCap) {
    EXPECT_EQ(Fast.Ok, Slow.Ok) << Tag << ": verdicts diverged";
  }
}

/// Decodes every region of \p Corpus through both decoders at table width
/// \p Bits and asserts full agreement.
void expectCorpusConformance(const std::vector<std::vector<MInst>> &Corpus,
                             unsigned Bits, const std::string &Tag) {
  StreamCodecs SC = StreamCodecs::build(Corpus);
  BitWriter W;
  std::vector<size_t> Offsets;
  for (const auto &Region : Corpus) {
    Offsets.push_back(W.bitSize());
    ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  }
  std::vector<uint8_t> Blob = W.takeBytes();
  std::shared_ptr<const FastTables> Tables = FastTables::build(SC, Bits);
  ASSERT_TRUE(Tables);

  for (size_t R = 0; R != Corpus.size(); ++R) {
    const std::string RegionTag =
        Tag + " bits=" + std::to_string(Bits) + " region " + std::to_string(R);
    DecodeTrace Slow = decodeSlow(SC, Blob, Offsets[R]);
    DecodeTrace Fast = decodeFast(SC, Tables, Blob, Offsets[R]);
    expectSameDecode(Fast, Slow, RegionTag);
    ASSERT_TRUE(Fast.Ok) << RegionTag << ": valid stream reported corrupt";
    ASSERT_EQ(Fast.Insts.size(), Corpus[R].size()) << RegionTag;
    for (size_t I = 0; I != Corpus[R].size(); ++I)
      ASSERT_EQ(Fast.Insts[I], encode(Corpus[R][I])) << RegionTag;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Conformance on valid streams
//===----------------------------------------------------------------------===//

TEST(FastDecodeConformance, RandomCorporaMatchSlowDecoderAtEveryWidth) {
  // Long regions (up to 200 instructions) cross the 64-bit refill window
  // hundreds of times, so every intra-window alignment of a codeword —
  // including codes straddling a refill — is exercised.
  Rng R(4242);
  auto Corpus = randomCorpus(R, 12, 200);
  for (unsigned Bits : {FastTables::MinBits, 6u, 8u, FastTables::DefaultBits,
                        FastTables::MaxBits})
    expectCorpusConformance(Corpus, Bits, "random");
}

TEST(FastDecodeConformance, BoundaryFieldValuesMatchSlowDecoder) {
  // Every legal opcode with every field at 0 and at its width's maximum,
  // forward and reversed.
  std::vector<MInst> Region;
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
    Region.push_back(Lo);
    Region.push_back(Hi);
  }
  std::vector<MInst> Reversed(Region.rbegin(), Region.rend());
  Region.insert(Region.end(), Reversed.begin(), Reversed.end());
  for (unsigned Bits : {FastTables::MinBits, FastTables::DefaultBits})
    expectCorpusConformance({Region}, Bits, "boundary");
}

TEST(FastDecode, StartBitAtEveryIntraByteOffset) {
  // A region's blob offset is an arbitrary bit position; the fast decoder's
  // initial window load must discard the intra-byte prefix exactly.
  Rng R(77);
  std::vector<MInst> Region;
  for (int I = 0; I != 120; ++I)
    Region.push_back(randomInst(R));
  StreamCodecs SC = StreamCodecs::build({Region});
  std::shared_ptr<const FastTables> Tables =
      FastTables::build(SC, FastTables::DefaultBits);

  for (unsigned Pad = 0; Pad != 8; ++Pad) {
    BitWriter W;
    W.writeBits(0x55u, Pad); // Alternating junk the decoder must skip.
    ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
    std::vector<uint8_t> Blob = W.takeBytes();
    const std::string Tag = "pad " + std::to_string(Pad);
    DecodeTrace Slow = decodeSlow(SC, Blob, Pad);
    DecodeTrace Fast = decodeFast(SC, Tables, Blob, Pad);
    expectSameDecode(Fast, Slow, Tag);
    ASSERT_TRUE(Fast.Ok) << Tag;
    ASSERT_EQ(Fast.Insts.size(), Region.size()) << Tag;
  }
}

TEST(FastDecode, SingleSymbolAlphabetsAndEmptyRegions) {
  // Degenerate codes: one identical instruction repeated collapses every
  // stream to a single-symbol (1-bit) alphabet; an empty region is a bare
  // sentinel. Null tables exercise the private-build fallback path.
  std::vector<std::vector<MInst>> Corpus = {
      std::vector<MInst>(64, makeRRR(Opcode::Add, 7, 7, 7)), {}};
  StreamCodecs SC = StreamCodecs::build(Corpus);
  BitWriter W;
  std::vector<size_t> Offsets;
  for (const auto &Region : Corpus) {
    Offsets.push_back(W.bitSize());
    ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  }
  std::vector<uint8_t> Blob = W.takeBytes();

  for (size_t R = 0; R != Corpus.size(); ++R) {
    DecodeTrace Slow = decodeSlow(SC, Blob, Offsets[R]);
    // nullptr tables: the decoder builds a private set at DefaultBits.
    DecodeTrace Fast = decodeFast(SC, nullptr, Blob, Offsets[R]);
    expectSameDecode(Fast, Slow, "degenerate region " + std::to_string(R));
    ASSERT_TRUE(Fast.Ok);
    ASSERT_EQ(Fast.Insts.size(), Corpus[R].size());
  }
}

TEST(FastDecode, MaxLengthCodesEscapeThroughEveryTableWidth) {
  // Fibonacci literal frequencies force a fully skewed Huffman tree whose
  // deepest codewords exceed even MaxBits, so every table width must take
  // the escape path into the bit-by-bit canonical walk — and agree with
  // the slow decoder on the result.
  std::vector<MInst> Region;
  const FormatLayout &Layout = formatLayout(formatOf(Opcode::Addi));
  uint64_t A = 1, B = 1;
  for (uint32_t Lit = 0; Lit != 20; ++Lit) {
    MInst I(Opcode::Addi);
    for (unsigned S = 1; S != Layout.Count; ++S)
      I.set(Layout.Slots[S].Kind,
            Layout.Slots[S].Kind == FieldKind::Lit8 ? Lit : 1u);
    Region.insert(Region.end(), A, I);
    uint64_t Next = A + B;
    A = B;
    B = Next;
  }
  StreamCodecs SC = StreamCodecs::build({Region});
  ASSERT_GT(SC.code(FieldKind::Lit8).maxLength(), FastTables::MaxBits)
      << "corpus no longer produces codes longer than the widest table";
  BitWriter W;
  ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  std::vector<uint8_t> Blob = W.takeBytes();

  DecodeTrace Slow = decodeSlow(SC, Blob, 0, Region.size() + 1);
  for (unsigned Bits : {FastTables::MinBits, FastTables::DefaultBits,
                        FastTables::MaxBits}) {
    DecodeTrace Fast = decodeFast(SC, FastTables::build(SC, Bits), Blob, 0,
                                  Region.size() + 1);
    expectSameDecode(Fast, Slow, "bits " + std::to_string(Bits));
    ASSERT_TRUE(Fast.Ok);
    ASSERT_EQ(Fast.Insts.size(), Region.size());
  }
}

TEST(FastDecode, TablesAreMemoizedAndWidthClamped) {
  Rng R(3);
  auto Corpus = randomCorpus(R, 4, 50);
  StreamCodecs SC = StreamCodecs::build(Corpus);

  std::shared_ptr<const FastTables> A = SC.fastTables(11);
  std::shared_ptr<const FastTables> B = SC.fastTables(11);
  EXPECT_EQ(A.get(), B.get()) << "repeat attaches must share one table set";
  EXPECT_EQ(A->bits(), 11u);
  EXPECT_GT(A->tableBytes(), 0u);

  EXPECT_EQ(SC.fastTables(99)->bits(), FastTables::MaxBits);
  EXPECT_EQ(SC.fastTables(0)->bits(), FastTables::MinBits);
}

// The memoized FastTables are keyed to one StreamCodecs instance; a copied
// codec must rebuild its own tables instead of aliasing the source's — a
// stale shared table set would decode another image's blob with the old
// image's codes.
TEST(FastDecode, CopiedCodecsRebuildFastTablesInsteadOfSharing) {
  Rng R(4242);
  std::vector<std::vector<MInst>> Corpus(8);
  for (auto &Region : Corpus)
    for (size_t I = 0; I != 60; ++I)
      Region.push_back(randomInst(R));
  StreamCodecs SC = StreamCodecs::build(Corpus);

  std::shared_ptr<const FastTables> Orig = SC.fastTables(11);
  ASSERT_NE(Orig, nullptr);
  // Repeat lookups on the same instance share the memo.
  EXPECT_EQ(SC.fastTables(11).get(), Orig.get());

  // A copy starts with an empty memo: its tables are its own.
  StreamCodecs Copy(SC);
  std::shared_ptr<const FastTables> CopyTables = Copy.fastTables(11);
  ASSERT_NE(CopyTables, nullptr);
  EXPECT_NE(CopyTables.get(), Orig.get())
      << "copied codec aliased the source's fast tables";

  // Copy-assignment over an instance with a populated memo drops it too.
  StreamCodecs Assigned = StreamCodecs::build(Corpus);
  (void)Assigned.fastTables(11);
  Assigned = SC;
  EXPECT_NE(Assigned.fastTables(11).get(), Orig.get())
      << "copy-assigned codec kept a stale memo";

  // A move transfers the memo with the identity: no rebuild.
  StreamCodecs Moved(std::move(Copy));
  EXPECT_EQ(Moved.fastTables(11).get(), CopyTables.get());
}

// The batch surface must be observationally identical to a next() loop at
// every chunk size — including chunks that land mid-region, on the
// sentinel, and past it — and on truncated streams.
TEST(FastDecode, DecodeRunChunksMatchNextAtEveryBoundary) {
  Rng R(777);
  auto Corpus = randomCorpus(R, 4, 200);
  StreamCodecs SC = StreamCodecs::build(Corpus);
  BitWriter W;
  std::vector<size_t> Offsets;
  for (const auto &Region : Corpus) {
    Offsets.push_back(W.bitSize());
    ASSERT_TRUE(SC.encodeRegion(Region, W).ok());
  }
  std::vector<uint8_t> Blob = W.takeBytes();
  auto Tables = FastTables::build(SC, FastTables::DefaultBits);
  // A truncated copy exercises the corrupt-verdict exits as well.
  std::vector<uint8_t> Cut(Blob.begin(), Blob.begin() + Blob.size() / 2);

  for (const std::vector<uint8_t> &Bytes : {Blob, Cut}) {
    for (size_t RIx = 0; RIx != Corpus.size(); ++RIx) {
      if (Offsets[RIx] >= 8 * Bytes.size())
        continue;
      // Reference: a plain next() loop, final cursor state included.
      std::vector<uint32_t> Ref;
      FastDecoder RefDec(SC, Tables, Bytes.data(), Bytes.size(),
                         Offsets[RIx]);
      MInst I;
      while (Ref.size() < DecodeCap && RefDec.next(I))
        Ref.push_back(encode(I));

      for (size_t Chunk : {1u, 2u, 3u, 7u, 64u, 4096u}) {
        const std::string Tag = std::string(Bytes.size() == Cut.size()
                                                 ? "cut"
                                                 : "whole") +
                                " region " + std::to_string(RIx) +
                                " chunk " + std::to_string(Chunk);
        FastDecoder Dec(SC, Tables, Bytes.data(), Bytes.size(),
                        Offsets[RIx]);
        EXPECT_EQ(Dec.decodeRun(nullptr, 0), 0u) << Tag;
        std::vector<MInst> Out(Chunk);
        std::vector<uint32_t> Got;
        while (Got.size() < DecodeCap) {
          const size_t N = Dec.decodeRun(Out.data(), Chunk);
          if (!N)
            break;
          for (size_t K = 0; K != N; ++K)
            Got.push_back(encode(Out[K]));
        }
        ASSERT_EQ(Got.size(), Ref.size()) << Tag;
        for (size_t K = 0; K != Got.size(); ++K)
          ASSERT_EQ(Got[K], Ref[K]) << Tag << ": instruction " << K;
        EXPECT_EQ(Dec.ok(), RefDec.ok()) << Tag;
        EXPECT_EQ(Dec.atEnd(), RefDec.atEnd()) << Tag;
        EXPECT_EQ(Dec.bitPosition(), RefDec.bitPosition()) << Tag;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Fuzz: malformed streams must produce identical prefixes and verdicts
// from both decoders, and never read out of bounds (asan preset).
//===----------------------------------------------------------------------===//

namespace {

/// Shared fuzz fixture: a fixed random corpus, its encoded blob, and
/// tables at a narrow and the default width (narrow tables route more
/// symbols through the escape path).
struct FuzzCorpus {
  StreamCodecs SC;
  std::vector<uint8_t> Blob;
  std::vector<size_t> Offsets;
  std::shared_ptr<const FastTables> Narrow, Wide;

  FuzzCorpus() {
    Rng R(90210);
    auto Corpus = randomCorpus(R, 8, 120);
    SC = StreamCodecs::build(Corpus);
    BitWriter W;
    for (const auto &Region : Corpus) {
      Offsets.push_back(W.bitSize());
      EXPECT_TRUE(SC.encodeRegion(Region, W).ok());
    }
    Blob = W.takeBytes();
    Narrow = FastTables::build(SC, FastTables::MinBits);
    Wide = FastTables::build(SC, FastTables::DefaultBits);
  }

  void expectAgreement(const std::vector<uint8_t> &Bytes, size_t StartBit,
                       const std::string &Tag) const {
    DecodeTrace Slow = decodeSlow(SC, Bytes, StartBit);
    expectSameDecode(decodeFast(SC, Wide, Bytes, StartBit), Slow,
                     Tag + " wide");
    expectSameDecode(decodeFast(SC, Narrow, Bytes, StartBit), Slow,
                     Tag + " narrow");
  }
};

} // namespace

TEST(FastDecodeFuzz, TruncatedStreamsAgreeAtEveryLength) {
  // Every byte-length prefix of the blob, decoded from region 0: the cut
  // can land inside any codeword of any stream, which is exactly where the
  // fast decoder's zero-padding and overrun accounting must match the
  // BitReader's.
  FuzzCorpus F;
  for (size_t Len = 0; Len <= F.Blob.size(); ++Len) {
    std::vector<uint8_t> Cut(F.Blob.begin(), F.Blob.begin() + Len);
    F.expectAgreement(Cut, 0, "truncate " + std::to_string(Len));
  }
}

TEST(FastDecodeFuzz, BitFlipsAgreeOnVerdictAndPrefix) {
  FuzzCorpus F;
  Rng R(1337);
  for (int Trial = 0; Trial != 300; ++Trial) {
    std::vector<uint8_t> Bytes = F.Blob;
    size_t Bit = R.nextBelow(Bytes.size() * 8);
    Bytes[Bit / 8] ^= static_cast<uint8_t>(0x80u >> (Bit % 8));
    size_t Start = F.Offsets[R.nextBelow(F.Offsets.size())];
    F.expectAgreement(Bytes, Start,
                      "flip bit " + std::to_string(Bit) + " trial " +
                          std::to_string(Trial));
  }
}

TEST(FastDecodeFuzz, GarbageStreamsAgreeAndNeverCrash) {
  // Pure noise, every buffer length 0..64 and random start bits: both
  // decoders must walk the same instruction prefix, return the same
  // verdict, and stay inside the buffer (the asan job proves the latter).
  FuzzCorpus F;
  Rng R(5150);
  for (int Trial = 0; Trial != 300; ++Trial) {
    std::vector<uint8_t> Bytes(R.nextBelow(65));
    for (uint8_t &Byte : Bytes)
      Byte = static_cast<uint8_t>(R.next());
    size_t Start = Bytes.empty() ? 0 : R.nextBelow(Bytes.size() * 8 + 1);
    F.expectAgreement(Bytes, Start, "garbage trial " + std::to_string(Trial));
  }
}

//===----------------------------------------------------------------------===//
// Differential execution: FastDecode on and off are observationally
// identical end to end, across random programs, all workloads, and every
// table width.
//===----------------------------------------------------------------------===//

namespace {

/// Instruction budget for every squashed run here: about ten times the
/// longest (a workload at WorkloadScale), so a runtime regression that
/// spins fails in well under a second instead of at the default limit.
constexpr uint64_t RunBudget = 10'000'000;

struct RunObservables {
  RunStatus Status;
  uint32_t ExitCode;
  std::vector<uint8_t> Output;
  uint64_t Decompressions;
  uint64_t DecodedInstructions;
};

RunObservables runWith(const SquashedProgram &SP, std::vector<uint8_t> Input,
                       bool FastDecode, unsigned TableBits = 11,
                       bool DecodeAhead = false) {
  SquashedProgram Copy = SP;
  Copy.Opts.FastDecode = FastDecode;
  Copy.Opts.DecodeTableBits = TableBits;
  Copy.Opts.DecodeAhead = DecodeAhead;
  SquashedRun Run = runSquashed(Copy, std::move(Input), RunBudget);
  return {Run.Run.Status, Run.Run.ExitCode, Run.Output,
          Run.Runtime.Decompressions, Run.Runtime.DecodedInstructions};
}

void expectSameRun(const RunObservables &Got, const RunObservables &Want,
                   const std::string &Tag) {
  ASSERT_EQ(Got.Status, Want.Status) << Tag;
  EXPECT_EQ(Got.ExitCode, Want.ExitCode) << Tag;
  EXPECT_EQ(Got.Output, Want.Output) << Tag << ": output diverged";
  EXPECT_EQ(Got.Decompressions, Want.Decompressions) << Tag;
  EXPECT_EQ(Got.DecodedInstructions, Want.DecodedInstructions) << Tag;
}

class FastDecodeDifferential : public ::testing::TestWithParam<int> {};

constexpr double WorkloadScale = 0.05;

workloads::Workload buildWorkload(int Index) {
  using namespace workloads;
  switch (Index) {
  case 0:
    return buildAdpcm(WorkloadScale);
  case 1:
    return buildEpic(WorkloadScale);
  case 2:
    return buildG721Dec(WorkloadScale);
  case 3:
    return buildG721Enc(WorkloadScale);
  case 4:
    return buildGsm(WorkloadScale);
  case 5:
    return buildJpegDec(WorkloadScale);
  case 6:
    return buildJpegEnc(WorkloadScale);
  case 7:
    return buildMpeg2Dec(WorkloadScale);
  case 8:
    return buildMpeg2Enc(WorkloadScale);
  case 9:
    return buildPgp(WorkloadScale);
  default:
    return buildRasta(WorkloadScale);
  }
}

const char *workloadName(int Index) {
  static const char *Names[] = {"adpcm",    "epic",     "g721_dec",
                                "g721_enc", "gsm",      "jpeg_dec",
                                "jpeg_enc", "mpeg2dec", "mpeg2enc",
                                "pgp",      "rasta"};
  return Names[Index];
}

} // namespace

TEST_P(FastDecodeDifferential, RandomProgramsIdenticalOnAndOff) {
  const uint64_t Seed = static_cast<uint64_t>(GetParam()) * 2477 + 13;
  const std::string Tag = "seed " + std::to_string(Seed);

  Program Prog = testgen::randomProgram(Seed);
  compactProgram(Prog).take();
  Image Compacted = layoutProgram(Prog);
  Profile Prof = profileImage(Compacted, {}).take();

  // θ = 1.0 with a small buffer bound: every block a candidate, several
  // regions, maximum decoder coverage.
  Options Opts;
  Opts.Theta = 1.0;
  Opts.BufferBoundBytes = 256;
  SquashResult SR = squashProgram(Prog, Prof, Opts).take();

  RunObservables Slow = runWith(SR.SP, {}, /*FastDecode=*/false);
  ASSERT_EQ(Slow.Status, RunStatus::Halted) << Tag;
  expectSameRun(runWith(SR.SP, {}, /*FastDecode=*/true), Slow, Tag + " fast");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDecodeDifferential,
                         ::testing::Range(0, 64));

namespace {

class FastDecodeWorkloads : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(FastDecodeWorkloads, ByteIdenticalOnAndOff) {
  workloads::Workload W = buildWorkload(GetParam());
  compactProgram(W.Prog).take();
  Image Baseline = layoutProgram(W.Prog);
  Profile Prof = profileImage(Baseline, W.ProfilingInput).take();
  Options Opts;
  Opts.Theta = 0.1; // The timing input reaches compressed code here.
  SquashResult SR = squashProgram(W.Prog, Prof, Opts).take();
  ASSERT_FALSE(SR.Identity) << W.Name;

  RunObservables Slow = runWith(SR.SP, W.TimingInput, /*FastDecode=*/false);
  ASSERT_EQ(Slow.Status, RunStatus::Halted) << W.Name;
  ASSERT_GT(Slow.Decompressions, 0u)
      << W.Name << ": timing input never reached compressed code";
  expectSameRun(runWith(SR.SP, W.TimingInput, /*FastDecode=*/true), Slow,
                std::string(W.Name) + " fast");
  // Decode-ahead on top of the fast decoder is equally invisible.
  expectSameRun(runWith(SR.SP, W.TimingInput, /*FastDecode=*/true, 11,
                        /*DecodeAhead=*/true),
                Slow, std::string(W.Name) + " decode-ahead");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FastDecodeWorkloads,
                         ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return workloadName(Info.param);
                         });

TEST(FastDecode, TableWidthSweepIsBehaviorInvariant) {
  workloads::Workload W = buildWorkload(0);
  compactProgram(W.Prog).take();
  Image Baseline = layoutProgram(W.Prog);
  Profile Prof = profileImage(Baseline, W.ProfilingInput).take();
  Options Opts;
  Opts.Theta = 0.1;
  SquashResult SR = squashProgram(W.Prog, Prof, Opts).take();

  RunObservables Slow = runWith(SR.SP, W.TimingInput, /*FastDecode=*/false);
  ASSERT_EQ(Slow.Status, RunStatus::Halted);
  for (unsigned Bits : {4u, 8u, 11u, 14u})
    expectSameRun(runWith(SR.SP, W.TimingInput, /*FastDecode=*/true, Bits),
                  Slow, "table bits " + std::to_string(Bits));
}

//===----------------------------------------------------------------------===//
// Attach-time table validation
//===----------------------------------------------------------------------===//

TEST(FastDecode, TruncatedHostTableRejectedAtAttach) {
  // A host-mirror code table damaged at rest (FaultKind::DecodeTableTruncated)
  // must be refused by attach's StreamCodecs::validate() — a clean Fault
  // run, never a decode-time surprise or a table probe out of bounds.
  workloads::Workload W = buildWorkload(0);
  compactProgram(W.Prog).take();
  Image Baseline = layoutProgram(W.Prog);
  Profile Prof = profileImage(Baseline, W.ProfilingInput).take();
  Options Opts;
  Opts.Theta = 0.1;
  SquashResult SR = squashProgram(W.Prog, Prof, Opts).take();

  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    SquashedProgram SP = SR.SP;
    FaultInjector FI(17 + Seed * 2654435761ull);
    std::optional<FaultReport> FR =
        FI.inject(SP, FaultKind::DecodeTableTruncated);
    ASSERT_TRUE(FR.has_value());
    SCOPED_TRACE(FR->Description);
    EXPECT_FALSE(SP.Codecs.validate().ok());
    SquashedRun Run = runSquashed(SP, W.TimingInput, RunBudget);
    EXPECT_EQ(Run.Run.Status, RunStatus::Fault);
    EXPECT_FALSE(Run.Run.FaultMessage.empty());
  }
}
