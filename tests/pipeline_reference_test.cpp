//===- tests/pipeline_reference_test.cpp - Pipeline refactor goldens ------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The pass-manager pipeline must be BYTE-IDENTICAL to the monolithic
// driver it replaced. referenceSquash below is a frozen copy of that
// driver's body (pre-pass-manager squashProgram, stats bookkeeping elided);
// every random program (the differential suite's 64 seeds, across the
// option matrix) and every workload is squashed through both and the
// resulting images compared byte for byte.
//
// ImageGolden additionally pins the CRC-32 of every workload's image under
// the three configurations the end-to-end benchmark runs, so a change that
// alters both pipelines alike (a deleted option, a reworked coder) still
// shows up as a mismatch. RunGolden pins what running those images does
// (instructions, cycles, output, runtime counters) and each workload's
// block profile, so a change to the interpreter or the runtime that keeps
// images identical but alters execution shows up as well.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "compact/Compact.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "squash/Driver.h"
#include "support/Checksum.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace vea;
using namespace squash;
using testgen::randomProgram;

namespace {

/// The squash pipeline exactly as the monolithic driver ran it, minus
/// timing. Any behavioural change to the passes or their ordering shows up
/// as an image mismatch against this copy.
Expected<SquashResult> referenceSquash(Program Prog, const Profile &Prof,
                                       const Options &Opts) {
  if (std::string Err = Prog.verify(); !Err.empty())
    return Status::error(StatusCode::MalformedProgram,
                         "squash: input does not verify: " + Err);

  SquashResult R;
  const uint32_t OriginalCodeBytes =
      static_cast<uint32_t>(4 * Prog.instructionCount());

  // Section 5: cold code.
  {
    Cfg G0(Prog);
    Expected<ColdCodeResult> Cold =
        identifyColdCode(G0, Prof, Opts.Theta, Opts.ColdCutoffCap);
    if (!Cold)
      return Cold.status();
    R.Cold = std::move(Cold.get());
  }

  // Section 6.2: unswitch cold jump tables.
  std::vector<uint8_t> Candidate = R.Cold.IsCold;
  Expected<UnswitchStats> US =
      unswitchJumpTables(Prog, Candidate, Opts.Unswitch);
  if (!US)
    return US.status();
  R.Unswitch = US.get();

  Cfg G(Prog);

  // Remaining candidacy filters.
  for (unsigned Id = 0; Id != G.numBlocks(); ++Id) {
    if (!Candidate[Id])
      continue;
    if (G.functionCallsSetjmp(G.functionOf(Id))) {
      Candidate[Id] = 0;
      continue;
    }
    if (G.hasIndirectCall(Id)) {
      Candidate[Id] = 0;
      continue;
    }
  }
  // A computed jump with unknown targets poisons its whole function (the
  // original quadratic form, deliberately).
  for (unsigned Id = 0; Id != G.numBlocks(); ++Id) {
    const BasicBlock &B = G.block(Id);
    if (B.Insts.back().Op == Opcode::Jmp && !B.Switch) {
      unsigned F = G.functionOf(Id);
      for (unsigned J = 0; J != G.numBlocks(); ++J)
        if (G.functionOf(J) == F)
          Candidate[J] = 0;
    }
  }

  // Section 4: regions.
  Expected<Partition> PartOr = formRegions(G, Candidate, Opts, &R.Regions);
  if (!PartOr)
    return PartOr.status();
  Partition Part = std::move(PartOr.get());

  if (Part.Regions.empty()) {
    R.Identity = true;
    Expected<Image> Img = layoutProgramOrError(Prog);
    if (!Img)
      return Img.status();
    R.SP.Img = std::move(Img.get());
    R.SP.Opts = Opts;
    R.SP.ProfileBlockCount = static_cast<uint32_t>(Prof.BlockCounts.size());
    R.SP.Footprint.NeverCompressedWords =
        static_cast<uint32_t>(Prog.instructionCount());
    R.SP.Footprint.OriginalCodeBytes = OriginalCodeBytes;
    return R;
  }

  // Section 6.1: buffer safety.
  std::vector<uint8_t> Safe = analyzeBufferSafe(G, Part, &R.BufferSafe);

  // Section 2: rewrite.
  Expected<SquashedProgram> SPOr = rewriteProgram(Prog, G, Part, Safe, Opts);
  if (!SPOr)
    return SPOr.status();
  R.SP = std::move(SPOr.get());
  R.SP.Footprint.OriginalCodeBytes = OriginalCodeBytes;
  R.SP.ProfileBlockCount = static_cast<uint32_t>(Prof.BlockCounts.size());
  return R;
}

/// Squashes through both pipelines and compares everything a consumer of
/// the image could observe.
void expectPipelinesAgree(const Program &Prog, const Profile &Prof,
                          const Options &Opts, const std::string &Tag) {
  SquashResult Ref = referenceSquash(Prog, Prof, Opts).take();
  SquashResult New = squashProgram(Prog, Prof, Opts).take();

  ASSERT_EQ(Ref.Identity, New.Identity) << Tag;
  EXPECT_EQ(Ref.SP.Img.Base, New.SP.Img.Base) << Tag;
  ASSERT_EQ(Ref.SP.Img.Bytes, New.SP.Img.Bytes)
      << Tag << ": pass-manager image diverged from the monolithic driver";
  EXPECT_EQ(Ref.SP.Layout.BlobBytes, New.SP.Layout.BlobBytes) << Tag;
  EXPECT_EQ(Ref.SP.Footprint.totalCodeBytes(),
            New.SP.Footprint.totalCodeBytes())
      << Tag;
  EXPECT_EQ(Ref.Cold.FrequencyCutoff, New.Cold.FrequencyCutoff) << Tag;
  EXPECT_EQ(Ref.Regions.PackedRegions, New.Regions.PackedRegions) << Tag;
  EXPECT_EQ(Ref.Unswitch.Unswitched, New.Unswitch.Unswitched) << Tag;
}

class PipelineReference : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(PipelineReference, ByteIdenticalOnRandomPrograms) {
  const uint64_t Seed = static_cast<uint64_t>(GetParam()) * 2477 + 13;
  const std::string SeedTag = "seed " + std::to_string(Seed);

  Program Prog = randomProgram(Seed);
  compactProgram(Prog).take();
  Image Compacted = layoutProgram(Prog);

  Profile Prof;
  {
    Machine::Config PC;
    PC.MaxInstructions = 20'000'000;
    PC.CollectBlockProfile = true;
    Machine MP(Compacted, PC);
    ASSERT_EQ(MP.run().Status, RunStatus::Halted) << SeedTag;
    Prof = MP.takeProfile();
  }

  // The differential suite's configuration matrix: maximum candidate
  // coverage, small buffer bound (multiple regions) — plus the per-stage
  // ablation toggles and their DisabledPasses twins.
  Options Common;
  Common.Theta = 1.0;
  Common.BufferBoundBytes = 256;
  expectPipelinesAgree(Prog, Prof, Common, SeedTag + " base");

  {
    Options O = Common;
    O.Unswitch = false;
    expectPipelinesAgree(Prog, Prof, O, SeedTag + " no-unswitch");
  }
  {
    Options O = Common;
    O.BufferSafeCalls = false;
    expectPipelinesAgree(Prog, Prof, O, SeedTag + " no-buffer-safe");
  }
  {
    Options O = Common;
    O.Theta = 0.0;
    expectPipelinesAgree(Prog, Prof, O, SeedTag + " theta-zero");
  }
  {
    Options O = Common;
    O.CacheSlots = 4;
    O.ReuseBufferedRegion = true;
    expectPipelinesAgree(Prog, Prof, O, SeedTag + " cache-4");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineReference, ::testing::Range(0, 64));

namespace {

class PipelineReferenceWorkloads : public ::testing::TestWithParam<int> {};

constexpr double WorkloadScale = 0.05;

workloads::Workload buildWorkload(int Index, double Scale = WorkloadScale) {
  using namespace workloads;
  switch (Index) {
  case 0:
    return buildAdpcm(Scale);
  case 1:
    return buildEpic(Scale);
  case 2:
    return buildG721Dec(Scale);
  case 3:
    return buildG721Enc(Scale);
  case 4:
    return buildGsm(Scale);
  case 5:
    return buildJpegDec(Scale);
  case 6:
    return buildJpegEnc(Scale);
  case 7:
    return buildMpeg2Dec(Scale);
  case 8:
    return buildMpeg2Enc(Scale);
  case 9:
    return buildPgp(Scale);
  default:
    return buildRasta(Scale);
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

TEST_P(PipelineReferenceWorkloads, ByteIdenticalOnWorkloads) {
  workloads::Workload W = buildWorkload(GetParam());
  compactProgram(W.Prog).take();
  Image Baseline = layoutProgram(W.Prog);
  Profile Prof = profileImage(Baseline, W.ProfilingInput).take();

  Options Opts;
  Opts.Theta = 1e-2;
  expectPipelinesAgree(W.Prog, Prof, Opts, W.Name);

  Options Small = Opts;
  Small.BufferBoundBytes = 256;
  expectPipelinesAgree(W.Prog, Prof, Small, W.Name + " k256");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PipelineReferenceWorkloads,
                         ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return workloadName(Info.param);
                         });

namespace {

/// One pinned image: the CRC-32 of SquashedProgram::Img.Bytes for a
/// workload (at GoldenScale) squashed under a named configuration.
struct ImageGoldenRow {
  const char *Workload;
  const char *Config;
  uint32_t Crc;
};

// The workloads at full size, as the end-to-end benchmark builds them.
constexpr double GoldenScale = 1.0;

// "huffman-0.01" is the paper's headline configuration, "auto-layout-0.01"
// the offline compressor with every codec and profile layout on, and
// "huffman-0.1" the trap-heavy configuration.
constexpr ImageGoldenRow ImageGoldenRows[] = {
    {"adpcm", "huffman-0.01", 0xABBAC71Fu},
    {"adpcm", "auto-layout-0.01", 0xB4FDB0B2u},
    {"adpcm", "huffman-0.1", 0xEA6D9ADEu},
    {"epic", "huffman-0.01", 0x62000F25u},
    {"epic", "auto-layout-0.01", 0xB82C7616u},
    {"epic", "huffman-0.1", 0x13436ADBu},
    {"g721_dec", "huffman-0.01", 0x82533FC0u},
    {"g721_dec", "auto-layout-0.01", 0xA36B4A96u},
    {"g721_dec", "huffman-0.1", 0x80395DEEu},
    {"g721_enc", "huffman-0.01", 0x4D5440C8u},
    {"g721_enc", "auto-layout-0.01", 0x5D2AEE5Au},
    {"g721_enc", "huffman-0.1", 0xC643F8AFu},
    {"gsm", "huffman-0.01", 0x00CE01D8u},
    {"gsm", "auto-layout-0.01", 0x0603C311u},
    {"gsm", "huffman-0.1", 0x23F0B821u},
    {"jpeg_dec", "huffman-0.01", 0x49FE0832u},
    {"jpeg_dec", "auto-layout-0.01", 0xAB92274Au},
    {"jpeg_dec", "huffman-0.1", 0xC35AD100u},
    {"jpeg_enc", "huffman-0.01", 0xC831D526u},
    {"jpeg_enc", "auto-layout-0.01", 0x758BB60Du},
    {"jpeg_enc", "huffman-0.1", 0xAB4A0AC6u},
    {"mpeg2dec", "huffman-0.01", 0x1FCEA1FEu},
    {"mpeg2dec", "auto-layout-0.01", 0x1FAE1292u},
    {"mpeg2dec", "huffman-0.1", 0x328260F2u},
    {"mpeg2enc", "huffman-0.01", 0xAF5573F0u},
    {"mpeg2enc", "auto-layout-0.01", 0x1290B53Au},
    {"mpeg2enc", "huffman-0.1", 0x3310E60Au},
    {"pgp", "huffman-0.01", 0x6700B7D3u},
    {"pgp", "auto-layout-0.01", 0x3A99C2BAu},
    {"pgp", "huffman-0.1", 0x29FE3E18u},
    {"rasta", "huffman-0.01", 0x27A9B290u},
    {"rasta", "auto-layout-0.01", 0x5CF5CF59u},
    {"rasta", "huffman-0.1", 0xCD5DB9E9u},
};

Options imageGoldenOptions(const std::string &Config) {
  Options O;
  O.Theta = Config == "huffman-0.1" ? 0.1 : 0.01;
  if (Config == "auto-layout-0.01") {
    O.Codec = "auto";
    O.ProfileLayout = true;
  }
  return O;
}

class ImageGolden : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(ImageGolden, ImageCrcMatchesPinnedRow) {
  workloads::Workload W = buildWorkload(GetParam(), GoldenScale);
  compactProgram(W.Prog).take();
  Profile Prof = profileImage(layoutProgram(W.Prog), W.ProfilingInput).take();

  unsigned Checked = 0;
  for (const ImageGoldenRow &Row : ImageGoldenRows) {
    if (W.Name != Row.Workload)
      continue;
    ++Checked;
    SquashResult R =
        squashProgram(W.Prog, Prof, imageGoldenOptions(Row.Config)).take();
    const uint32_t Crc =
        vea::crc32(R.SP.Img.Bytes.data(), R.SP.Img.Bytes.size());
    char Hex[16];
    std::snprintf(Hex, sizeof(Hex), "0x%08X", Crc);
    EXPECT_EQ(Crc, Row.Crc) << W.Name << " " << Row.Config << ": image CRC "
                            << Hex;
  }
  EXPECT_EQ(Checked, 3u) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ImageGolden, ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return workloadName(Info.param);
                         });

namespace {

/// One pinned run: what runSquashed reports for a workload (at GoldenScale)
/// squashed under one of the ImageGolden configurations and run on its
/// timing input.
struct RunGoldenRow {
  const char *Workload;
  const char *Config;
  uint64_t Instructions;
  uint64_t Cycles;
  uint32_t ExitCode;
  uint32_t OutputCrc;
  const char *FaultMessage;
  uint64_t Decompressions;
  uint64_t Traps; ///< Entry + restore stub calls, stub creates and reuses.
  uint64_t StubCreates;
};

/// One pinned profile: the CRC-32 of profileImage's BlockCounts (as raw
/// little-endian uint64_t words) and its instruction total.
struct ProfileGoldenRow {
  const char *Workload;
  uint32_t BlockCountsCrc;
  uint64_t TotalInstructions;
};

constexpr RunGoldenRow RunGoldenRows[] = {
    {"adpcm", "huffman-0.01", 9650826, 9866962, 133, 0x77AC7E07u, "",
     69, 100, 31},
    {"adpcm", "auto-layout-0.01", 9650826, 9811234, 133, 0x77AC7E07u, "",
     69, 100, 31},
    {"adpcm", "huffman-0.1", 9652358, 11935350, 133, 0x77AC7E07u, "",
     727, 980, 253},
    {"epic", "huffman-0.01", 8174883, 8341467, 86, 0x08052EF3u, "",
     55, 58, 3},
    {"epic", "auto-layout-0.01", 8174883, 8283921, 86, 0x08052EF3u, "",
     55, 58, 3},
    {"epic", "huffman-0.1", 8175309, 9052901, 86, 0x08052EF3u, "",
     281, 295, 14},
    {"g721_dec", "huffman-0.01", 7706403, 7899107, 198, 0x10E48303u, "",
     63, 86, 23},
    {"g721_dec", "auto-layout-0.01", 7706403, 7834487, 198, 0x10E48303u, "",
     63, 86, 23},
    {"g721_dec", "huffman-0.1", 7708136, 10287184, 198, 0x10E48303u, "",
     814, 1095, 281},
    {"g721_enc", "huffman-0.01", 7187281, 7351929, 146, 0xC171E498u, "",
     53, 76, 23},
    {"g721_enc", "auto-layout-0.01", 7187281, 7314903, 146, 0xC171E498u, "",
     53, 76, 23},
    {"g721_enc", "huffman-0.1", 7188579, 9141211, 146, 0xC171E498u, "",
     617, 831, 214},
    {"gsm", "huffman-0.01", 5357914, 6068634, 213, 0x9C09F068u, "",
     234, 308, 74},
    {"gsm", "auto-layout-0.01", 5357914, 5777088, 213, 0x9C09F068u, "",
     234, 308, 74},
    {"gsm", "huffman-0.1", 5366788, 14557364, 213, 0x9C09F068u, "",
     2890, 3572, 682},
    {"jpeg_dec", "huffman-0.01", 16316696, 17835664, 226, 0xDB105DF4u, "",
     480, 548, 68},
    {"jpeg_dec", "auto-layout-0.01", 16316696, 17250754, 226, 0xDB105DF4u, "",
     480, 548, 68},
    {"jpeg_dec", "huffman-0.1", 16476691, 182466099, 226, 0xDB105DF4u, "",
     52317, 57599, 5282},
    {"jpeg_enc", "huffman-0.01", 13074782, 13927334, 99, 0x0CFCFE72u, "",
     272, 278, 6},
    {"jpeg_enc", "auto-layout-0.01", 13074782, 13574876, 99, 0x0CFCFE72u, "",
     272, 278, 6},
    {"jpeg_enc", "huffman-0.1", 13191706, 131456738, 99, 0x0CFCFE72u, "",
     38127, 41941, 3814},
    {"mpeg2dec", "huffman-0.01", 4924630, 6648686, 3, 0x46230AA0u, "",
     547, 794, 247},
    {"mpeg2dec", "auto-layout-0.01", 4924630, 6067178, 3, 0x46230AA0u, "",
     547, 794, 247},
    {"mpeg2dec", "huffman-0.1", 4925630, 8024894, 3, 0x46230AA0u, "",
     980, 1454, 474},
    {"mpeg2enc", "huffman-0.01", 10708133, 13077933, 174, 0x02611EC0u, "",
     751, 1031, 280},
    {"mpeg2enc", "auto-layout-0.01", 10708133, 12144813, 174, 0x02611EC0u, "",
     751, 1031, 280},
    {"mpeg2enc", "huffman-0.1", 10715867, 23318923, 174, 0x02611EC0u, "",
     3984, 5960, 1976},
    {"pgp", "huffman-0.01", 11341254, 11537430, 31, 0xEE082BBEu, "",
     64, 64, 0},
    {"pgp", "auto-layout-0.01", 11341254, 11458374, 31, 0xEE082BBEu, "",
     64, 64, 0},
    {"pgp", "huffman-0.1", 11366487, 38711431, 31, 0xEE082BBEu, "",
     8572, 8831, 259},
    {"rasta", "huffman-0.01", 9172064, 9368600, 183, 0x28C6A965u, "",
     63, 84, 21},
    {"rasta", "auto-layout-0.01", 9172064, 9318326, 183, 0x28C6A965u, "",
     63, 84, 21},
    {"rasta", "huffman-0.1", 9191084, 31023940, 183, 0x28C6A965u, "",
     6918, 9614, 2696},
};

constexpr ProfileGoldenRow ProfileGoldenRows[] = {
    {"adpcm", 0x284C79FCu, 3877550},
    {"epic", 0x19835AD3u, 5850824},
    {"g721_dec", 0x7A120534u, 3672750},
    {"g721_enc", 0x1F057AACu, 3116122},
    {"gsm", 0xEA31AEE7u, 3901366},
    {"jpeg_dec", 0x4CB29DC7u, 12874765},
    {"jpeg_enc", 0x99223DA4u, 10768046},
    {"mpeg2dec", 0xCE69226Eu, 3642661},
    {"mpeg2enc", 0xA805C8E4u, 8206028},
    {"pgp", 0xE5E1999Du, 6106884},
    {"rasta", 0x50C66AE9u, 4390893},
};

class RunGolden : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(RunGolden, RunOutcomeMatchesPinnedRows) {
  workloads::Workload W = buildWorkload(GetParam(), GoldenScale);
  compactProgram(W.Prog).take();
  Profile Prof = profileImage(layoutProgram(W.Prog), W.ProfilingInput).take();

  const uint32_t ProfCrc = vea::crc32(
      reinterpret_cast<const uint8_t *>(Prof.BlockCounts.data()),
      Prof.BlockCounts.size() * sizeof(uint64_t));
  char ProfText[96];
  std::snprintf(ProfText, sizeof(ProfText), "{\"%s\", 0x%08Xu, %llu},",
                W.Name.c_str(), ProfCrc,
                static_cast<unsigned long long>(Prof.TotalInstructions));
  unsigned ProfChecked = 0;
  for (const ProfileGoldenRow &Row : ProfileGoldenRows) {
    if (W.Name != Row.Workload)
      continue;
    ++ProfChecked;
    EXPECT_EQ(ProfCrc, Row.BlockCountsCrc) << "profile row " << ProfText;
    EXPECT_EQ(Prof.TotalInstructions, Row.TotalInstructions)
        << "profile row " << ProfText;
  }
  EXPECT_EQ(ProfChecked, 1u) << "profile row " << ProfText;

  static const char *const Configs[] = {"huffman-0.01", "auto-layout-0.01",
                                        "huffman-0.1"};
  for (const char *Config : Configs) {
    SquashResult R =
        squashProgram(W.Prog, Prof, imageGoldenOptions(Config)).take();
    SquashedRun Run = runSquashed(R.SP, W.TimingInput);
    const RuntimeSystem::Stats &S = Run.Runtime;
    const uint64_t Traps = S.EntryStubCalls + S.RestoreStubCalls +
                           S.StubCreates + S.StubReuses;
    const uint32_t OutCrc = vea::crc32(Run.Output.data(), Run.Output.size());
    char Text[256];
    std::snprintf(Text, sizeof(Text),
                  "{\"%s\", \"%s\", %llu, %llu, %u, 0x%08Xu, \"%s\", %llu, "
                  "%llu, %llu},",
                  W.Name.c_str(), Config,
                  static_cast<unsigned long long>(Run.Run.Instructions),
                  static_cast<unsigned long long>(Run.Run.Cycles),
                  Run.Run.ExitCode, OutCrc, Run.Run.FaultMessage.c_str(),
                  static_cast<unsigned long long>(S.Decompressions),
                  static_cast<unsigned long long>(Traps),
                  static_cast<unsigned long long>(S.StubCreates));

    unsigned Checked = 0;
    for (const RunGoldenRow &Row : RunGoldenRows) {
      if (W.Name != Row.Workload || std::string(Config) != Row.Config)
        continue;
      ++Checked;
      EXPECT_EQ(Run.Run.Instructions, Row.Instructions) << Text;
      EXPECT_EQ(Run.Run.Cycles, Row.Cycles) << Text;
      EXPECT_EQ(Run.Run.ExitCode, Row.ExitCode) << Text;
      EXPECT_EQ(OutCrc, Row.OutputCrc) << Text;
      EXPECT_EQ(Run.Run.FaultMessage, Row.FaultMessage) << Text;
      EXPECT_EQ(S.Decompressions, Row.Decompressions) << Text;
      EXPECT_EQ(Traps, Row.Traps) << Text;
      EXPECT_EQ(S.StubCreates, Row.StubCreates) << Text;
    }
    EXPECT_EQ(Checked, 1u) << Text;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, RunGolden, ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return workloadName(Info.param);
                         });
