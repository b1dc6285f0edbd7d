//===- tests/randomprog_test.cpp - Random-program equivalence property ----===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// Property test: squash must preserve the behaviour of arbitrary programs,
// not just the curated workloads. The generator (tests/RandomProgramGen.h,
// shared with the differential suite) emits random—but always
// terminating—programs and the test runs each at θ = 1.0 (everything
// compressed, including the entry function: maximum runtime-machinery
// coverage) and at intermediate settings.
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

class RandomProgram : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(RandomProgram, SquashPreservesBehaviour) {
  Program Prog = randomProgram(static_cast<uint64_t>(GetParam()) * 977 + 5);
  compactProgram(Prog).take();
  Image Baseline = layoutProgram(Prog);

  Machine::Config MC;
  MC.MaxInstructions = 20'000'000;
  Machine M(Baseline, MC);
  RunResult Base = M.run();
  ASSERT_EQ(Base.Status, RunStatus::Halted) << Base.FaultMessage;

  Machine::Config PC;
  PC.MaxInstructions = 20'000'000;
  PC.CollectBlockProfile = true;
  Machine MP(Baseline, PC);
  ASSERT_EQ(MP.run().Status, RunStatus::Halted);
  Profile Prof = MP.takeProfile();

  for (double Theta : {0.0, 1e-2, 1.0}) {
    for (uint32_t K : {128u, 512u}) {
      Options Opts;
      Opts.Theta = Theta;
      Opts.BufferBoundBytes = K;
      SquashResult SR = squashProgram(Prog, Prof, Opts).take();

      Machine M2(SR.SP.Img, MC);
      RuntimeSystem RT(SR.SP);
      if (!SR.Identity) {
        ASSERT_TRUE(RT.attach(M2).ok());
      }
      RunResult R = M2.run();
      ASSERT_EQ(R.Status, RunStatus::Halted)
          << "seed " << GetParam() << " theta " << Theta << " K " << K
          << ": " << R.FaultMessage;
      EXPECT_EQ(R.ExitCode, Base.ExitCode)
          << "seed " << GetParam() << " theta " << Theta << " K " << K;
      EXPECT_EQ(M2.output(), M.output())
          << "seed " << GetParam() << " theta " << Theta << " K " << K;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram, ::testing::Range(0, 24));
