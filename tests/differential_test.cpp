//===- tests/differential_test.cpp - Differential-execution fuzzing -------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The lock-step property behind the decode cache and the region coders:
// every transformation of a program — compaction, squashing under each
// codec, and execution through 1..4 decode-cache slots — must be
// observationally equivalent to the plain build. Each random program (64
// seeds, shared generator in RandomProgramGen.h) is run under every
// configuration and all architectural results (exit code, output stream,
// halt status) are compared against the plain baseline.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "compact/Compact.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "squash/Driver.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;
using testgen::randomProgram;

namespace {

constexpr uint64_t MaxInstructions = 20'000'000;

/// The architectural observables every configuration must agree on.
struct Observed {
  RunStatus Status;
  uint32_t ExitCode = 0;
  std::vector<uint8_t> Output;
  std::string FaultMessage;
};

Observed runPlain(const Image &Img) {
  Machine::Config MC;
  MC.MaxInstructions = MaxInstructions;
  Machine M(Img, MC);
  RunResult R = M.run();
  return {R.Status, R.ExitCode, M.output(), R.FaultMessage};
}

Observed runSquashed(const SquashResult &SR) {
  Machine::Config MC;
  MC.MaxInstructions = MaxInstructions;
  Machine M(SR.SP.Img, MC);
  RuntimeSystem RT(SR.SP);
  if (!SR.Identity) {
    if (Status St = RT.attach(M); !St.ok())
      return {RunStatus::Fault, 0, {}, St.toString()};
  }
  RunResult R = M.run();
  return {R.Status, R.ExitCode, M.output(), R.FaultMessage};
}

void expectSame(const Observed &Got, const Observed &Want,
                const std::string &Tag) {
  ASSERT_EQ(Got.Status, RunStatus::Halted) << Tag << ": " << Got.FaultMessage;
  EXPECT_EQ(Got.ExitCode, Want.ExitCode) << Tag;
  EXPECT_EQ(Got.Output, Want.Output) << Tag << " output diverged";
}

class Differential : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(Differential, AllConfigurationsAgree) {
  const uint64_t Seed = static_cast<uint64_t>(GetParam()) * 2477 + 13;
  const std::string SeedTag = "seed " + std::to_string(Seed);

  // Configuration 1: plain — the uncompacted, unsquashed reference.
  Observed Base;
  {
    Program Plain = randomProgram(Seed);
    Base = runPlain(layoutProgram(Plain));
    ASSERT_EQ(Base.Status, RunStatus::Halted)
        << SeedTag << " plain: " << Base.FaultMessage;
  }

  // Configuration 2: compacted.
  Program Prog = randomProgram(Seed);
  compactProgram(Prog).take();
  Image Compacted = layoutProgram(Prog);
  expectSame(runPlain(Compacted), Base, SeedTag + " compacted");

  Profile Prof;
  {
    Machine::Config PC;
    PC.MaxInstructions = MaxInstructions;
    PC.CollectBlockProfile = true;
    Machine MP(Compacted, PC);
    ASSERT_EQ(MP.run().Status, RunStatus::Halted);
    Prof = MP.takeProfile();
  }

  // Everything below squashes at θ = 1.0 (every block a candidate: maximum
  // runtime-machinery coverage) with a small buffer bound so the program
  // splits into several regions — without that the cache-slot sweep would
  // never fill more than one slot.
  Options Common;
  Common.Theta = 1.0;
  Common.BufferBoundBytes = 256;

  // Configuration 3: squashed with the default (Huffman) coder.
  expectSame(runSquashed(squashProgram(Prog, Prof, Common).take()), Base,
             SeedTag + " squashed");

  // Configurations 4..7: the decode cache at every slot count. Slot count
  // 1 with reuse enabled is the degenerate cache (single resident region);
  // 2..4 exercise fills, hits, LRU eviction, and direct resident stubs.
  for (uint32_t Slots : {1u, 2u, 3u, 4u}) {
    Options Cached = Common;
    Cached.CacheSlots = Slots;
    Cached.ReuseBufferedRegion = true;
    Cached.DirectResidentStubs = true;
    SquashResult SR = squashProgram(Prog, Prof, Cached).take();
    expectSame(runSquashed(SR), Base,
               SeedTag + " cache-slots=" + std::to_string(Slots));
  }

  // Configurations 8 and 9: the pattern coder, forced and auto-selected
  // (huffman is Common's default, covered above). Each image must agree
  // with the plain baseline.
  for (const char *Codec : {"pattern", "auto"}) {
    Options CodecOpts = Common;
    CodecOpts.Codec = Codec;
    expectSame(runSquashed(squashProgram(Prog, Prof, CodecOpts).take()), Base,
               SeedTag + " codec=" + std::string(Codec));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(0, 64));
