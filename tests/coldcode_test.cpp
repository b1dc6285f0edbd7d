//===- tests/coldcode_test.cpp - Section 5 threshold algorithm tests ------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "squash/ColdCode.h"

#include <gtest/gtest.h>

using namespace vea;
using namespace squash;

/// Builds a program with \p N straight-line blocks of \p BlockSize
/// instructions each, and a synthetic profile with given per-block counts.
static Program blockChain(unsigned N, unsigned BlockSize) {
  ProgramBuilder PB("t");
  FunctionBuilder F = PB.beginFunction("main");
  for (unsigned B = 0; B != N; ++B) {
    if (B != 0) {
      std::string Label = "b";
      Label += std::to_string(B);
      F.label(Label);
    }
    for (unsigned I = 0; I + 1 < BlockSize; ++I)
      F.addi(1, 1, 1);
    if (B + 1 == N) {
      F.halt();
    } else {
      F.addi(1, 1, 1);
    }
  }
  PB.setEntry("main");
  return PB.build();
}

static Profile makeProfile(std::vector<uint64_t> Counts, unsigned BlockSize) {
  Profile P;
  P.BlockCounts = std::move(Counts);
  P.TotalInstructions = 0;
  for (uint64_t C : P.BlockCounts)
    P.TotalInstructions += C * BlockSize;
  return P;
}

TEST(ColdCode, ThetaZeroMeansNeverExecutedOnly) {
  Program Prog = blockChain(4, 10);
  Cfg G(Prog);
  Profile Prof = makeProfile({100, 0, 5, 0}, 10);
  ColdCodeResult R = identifyColdCode(G, Prof, 0.0).take();
  EXPECT_EQ(R.FrequencyCutoff, 0u);
  EXPECT_EQ(R.IsCold[0], 0);
  EXPECT_EQ(R.IsCold[1], 1);
  EXPECT_EQ(R.IsCold[2], 0);
  EXPECT_EQ(R.IsCold[3], 1);
  EXPECT_EQ(R.ColdInstructions, 20u);
}

TEST(ColdCode, ThetaOneMakesEverythingCold) {
  Program Prog = blockChain(3, 10);
  Cfg G(Prog);
  Profile Prof = makeProfile({1000, 10, 1}, 10);
  ColdCodeResult R = identifyColdCode(G, Prof, 1.0).take();
  for (uint8_t C : R.IsCold)
    EXPECT_EQ(C, 1);
  EXPECT_DOUBLE_EQ(R.coldFraction(), 1.0);
}

TEST(ColdCode, FrequencyClassesAdmittedWhole) {
  // Blocks with freq {0, 1, 1, 100}: tot = (1+1)*10 + 100*10 = 1020.
  // A theta budget that covers one-but-not-both freq-1 blocks must not
  // admit the class: "every block with frequency <= N is cold".
  Program Prog = blockChain(4, 10);
  Cfg G(Prog);
  Profile Prof = makeProfile({0, 1, 1, 100}, 10);
  double Budget15 = 15.0 / static_cast<double>(Prof.TotalInstructions);
  ColdCodeResult R = identifyColdCode(G, Prof, Budget15).take();
  EXPECT_EQ(R.FrequencyCutoff, 0u); // Class of weight 20 does not fit 15.

  double Budget20 = 20.0 / static_cast<double>(Prof.TotalInstructions);
  R = identifyColdCode(G, Prof, Budget20).take();
  EXPECT_EQ(R.FrequencyCutoff, 1u);
  EXPECT_EQ(R.IsCold[1], 1);
  EXPECT_EQ(R.IsCold[2], 1);
  EXPECT_EQ(R.IsCold[3], 0);
}

TEST(ColdCode, CutoffIsLargestAdmissibleFrequency) {
  Program Prog = blockChain(5, 10);
  Cfg G(Prog);
  Profile Prof = makeProfile({0, 2, 4, 8, 1000}, 10);
  // Weights: 0, 20, 40, 80, 10000; tot = 10140.
  // Cumulative: f<=2 -> 20; f<=4 -> 60; f<=8 -> 140.
  ColdCodeResult R =
      identifyColdCode(G, Prof, 60.0 / Prof.TotalInstructions).take();
  EXPECT_EQ(R.FrequencyCutoff, 4u);
  R = identifyColdCode(G, Prof, 139.0 / Prof.TotalInstructions).take();
  EXPECT_EQ(R.FrequencyCutoff, 4u);
  R = identifyColdCode(G, Prof, 140.0 / Prof.TotalInstructions).take();
  EXPECT_EQ(R.FrequencyCutoff, 8u);
}

TEST(ColdCode, MismatchedProfileIsError) {
  Program Prog = blockChain(2, 4);
  Cfg G(Prog);
  Profile Prof = makeProfile({1}, 4); // Wrong size.
  vea::Expected<ColdCodeResult> R = identifyColdCode(G, Prof, 0.0);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), vea::StatusCode::InvalidArgument);
  EXPECT_NE(R.status().toString().find("profile"), std::string::npos);
}
