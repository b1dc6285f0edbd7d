//===- tests/equivalence_test.cpp - Squashed-program equivalence ----------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// The central integration property: for every workload, threshold, and
// option combination, the squashed program must produce exactly the same
// output and exit code as the original — on the profiling input AND on the
// timing input (which exercises profile-cold code, i.e. the decompressor,
// restore stubs, and re-entry paths).
//
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "squash/Driver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

namespace {

struct PreparedWorkload {
  workloads::Workload W;
  Image Baseline;
  Profile Prof;
  RunResult BaseProf, BaseTime;
  std::vector<uint8_t> OutProf, OutTime;
};

/// Builds + compacts + profiles one workload at test scale, caching the
/// baseline runs.
PreparedWorkload prepare(workloads::Workload W) {
  PreparedWorkload P;
  P.W = std::move(W);
  compactProgram(P.W.Prog).take();
  P.Baseline = layoutProgram(P.W.Prog);
  P.Prof = profileImage(P.Baseline, P.W.ProfilingInput).take();
  {
    Machine M(P.Baseline);
    M.setInput(P.W.ProfilingInput);
    P.BaseProf = M.run();
    P.OutProf = M.output();
  }
  {
    Machine M(P.Baseline);
    M.setInput(P.W.TimingInput);
    P.BaseTime = M.run();
    P.OutTime = M.output();
  }
  EXPECT_EQ(P.BaseProf.Status, RunStatus::Halted);
  EXPECT_EQ(P.BaseTime.Status, RunStatus::Halted);
  return P;
}

void expectEquivalent(const PreparedWorkload &P, const Options &Opts,
                      const std::string &Tag) {
  SquashResult SR = squashProgram(P.W.Prog, P.Prof, Opts).take();

  auto RunOne = [&](const std::vector<uint8_t> &Input,
                    const RunResult &Base,
                    const std::vector<uint8_t> &BaseOut, const char *Which) {
    Machine M(SR.SP.Img);
    RuntimeSystem RT(SR.SP);
    if (!SR.Identity) {
      ASSERT_TRUE(RT.attach(M).ok());
    }
    M.setInput(Input);
    RunResult R = M.run();
    ASSERT_EQ(R.Status, RunStatus::Halted)
        << P.W.Name << " " << Tag << " " << Which << ": "
        << R.FaultMessage;
    EXPECT_EQ(R.ExitCode, Base.ExitCode)
        << P.W.Name << " " << Tag << " " << Which;
    EXPECT_EQ(M.output(), BaseOut)
        << P.W.Name << " " << Tag << " " << Which << " output diverged";
    // Squashed code executes at most a few extra instructions per
    // decompression (stub + jump slot); it must not balloon.
    EXPECT_LT(R.Instructions, Base.Instructions + Base.Instructions / 4 +
                                  10000)
        << P.W.Name << " " << Tag;
  };
  RunOne(P.W.ProfilingInput, P.BaseProf, P.OutProf, "profiling");
  RunOne(P.W.TimingInput, P.BaseTime, P.OutTime, "timing");
}

/// Test scale: small inputs keep each run in the hundred-thousand
/// instruction range.
constexpr double TestScale = 0.06;

class WorkloadEquivalence : public ::testing::TestWithParam<int> {};

const char *workloadName(int Index) {
  static const char *Names[] = {"adpcm",    "epic",     "g721_dec",
                                "g721_enc", "gsm",      "jpeg_dec",
                                "jpeg_enc", "mpeg2dec", "mpeg2enc",
                                "pgp",      "rasta"};
  return Names[Index];
}

workloads::Workload buildOne(int Index) {
  using namespace workloads;
  switch (Index) {
  case 0:
    return buildAdpcm(TestScale);
  case 1:
    return buildEpic(TestScale);
  case 2:
    return buildG721Dec(TestScale);
  case 3:
    return buildG721Enc(TestScale);
  case 4:
    return buildGsm(TestScale);
  case 5:
    return buildJpegDec(TestScale);
  case 6:
    return buildJpegEnc(TestScale);
  case 7:
    return buildMpeg2Dec(TestScale);
  case 8:
    return buildMpeg2Enc(TestScale);
  case 9:
    return buildPgp(TestScale);
  default:
    return buildRasta(TestScale);
  }
}

} // namespace

TEST_P(WorkloadEquivalence, AcrossThresholds) {
  PreparedWorkload P = prepare(buildOne(GetParam()));
  for (double Theta : {0.0, 1e-3, 1e-2, 1.0}) {
    Options Opts;
    Opts.Theta = Theta;
    expectEquivalent(P, Opts, "theta=" + std::to_string(Theta));
  }
}

TEST_P(WorkloadEquivalence, AcrossBufferBounds) {
  PreparedWorkload P = prepare(buildOne(GetParam()));
  for (uint32_t K : {64u, 256u, 2048u}) {
    Options Opts;
    Opts.Theta = 1e-2;
    Opts.BufferBoundBytes = K;
    expectEquivalent(P, Opts, "K=" + std::to_string(K));
  }
}

TEST_P(WorkloadEquivalence, AcrossOptionToggles) {
  PreparedWorkload P = prepare(buildOne(GetParam()));
  Options Base;
  Base.Theta = 1e-2;

  Options NoPack = Base;
  NoPack.PackRegions = false;
  expectEquivalent(P, NoPack, "no-pack");

  Options NoSafe = Base;
  NoSafe.BufferSafeCalls = false;
  expectEquivalent(P, NoSafe, "no-buffer-safe");

  Options NoUnswitch = Base;
  NoUnswitch.Unswitch = false;
  expectEquivalent(P, NoUnswitch, "no-unswitch");

  Options Reuse = Base;
  Reuse.ReuseBufferedRegion = true;
  expectEquivalent(P, Reuse, "reuse-buffer");

  Options Whole = Base;
  Whole.WholeFunctionRegions = true;
  expectEquivalent(P, Whole, "whole-function");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadEquivalence,
                         ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return workloadName(Info.param);
                         });
