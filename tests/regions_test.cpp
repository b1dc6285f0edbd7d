//===- tests/regions_test.cpp - Section 4 region formation tests ----------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "squash/BufferSafe.h"
#include "squash/Regions.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace vea;
using namespace squash;

/// A program with one hot function and several cold helper functions of
/// the given sizes (instructions each, straight-line).
static Program hotAndCold(const std::vector<unsigned> &ColdSizes) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    for (size_t I = 0; I != ColdSizes.size(); ++I)
      F.call("cold" + std::to_string(I));
    F.li(16, 0);
    F.halt();
  }
  for (size_t I = 0; I != ColdSizes.size(); ++I) {
    FunctionBuilder F = PB.beginFunction("cold" + std::to_string(I));
    for (unsigned K = 0; K + 1 < ColdSizes[I]; ++K)
      F.addi(1, 1, 1);
    F.ret();
  }
  PB.setEntry("main");
  return PB.build();
}

/// Marks every block except main's as compressible.
static std::vector<uint8_t> allColdButMain(const Cfg &G) {
  std::vector<uint8_t> U(G.numBlocks(), 1);
  U[G.idOf("main")] = 0;
  return U;
}

TEST(Regions, PartitionInvariants) {
  Program P = hotAndCold({30, 40, 50, 60, 10, 10, 10});
  Cfg G(P);
  Options Opts;
  Opts.BufferBoundBytes = 256; // 64 instructions
  RegionStats Stats;
  Partition Part = formRegions(G, allColdButMain(G), Opts, &Stats).take();

  // Every block is in at most one region; RegionOf is consistent.
  std::unordered_set<unsigned> Seen;
  for (size_t R = 0; R != Part.Regions.size(); ++R) {
    uint32_t Words = 0;
    for (unsigned B : Part.Regions[R].Blocks) {
      EXPECT_TRUE(Seen.insert(B).second) << "block in two regions";
      EXPECT_EQ(Part.RegionOf[B], static_cast<int32_t>(R));
      Words += G.block(B).size();
    }
    // The K bound holds for every region.
    EXPECT_LE(Words, Opts.BufferBoundBytes / 4);
    // Region blocks are sorted by id (original order).
    EXPECT_TRUE(std::is_sorted(Part.Regions[R].Blocks.begin(),
                               Part.Regions[R].Blocks.end()));
  }
  // Never-compressed blocks have RegionOf == -1.
  EXPECT_EQ(Part.RegionOf[G.idOf("main")], -1);
  EXPECT_GT(Stats.PackedRegions, 0u);
}

TEST(Regions, OnlyCandidatesCompressed) {
  Program P = hotAndCold({20, 20});
  Cfg G(P);
  std::vector<uint8_t> U(G.numBlocks(), 0);
  U[G.idOf("cold1")] = 1;
  Options Opts;
  Partition Part = formRegions(G, U, Opts, nullptr).take();
  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    if (!U[B]) {
      EXPECT_EQ(Part.RegionOf[B], -1);
    }
  }
}

TEST(Regions, UnprofitableTinyBlocksRejected) {
  // A 2-instruction function costs a 2-word entry stub; at gamma = 0.66
  // the savings (0.34 * 2) never beat the stub, so no region forms.
  Program P = hotAndCold({2});
  Cfg G(P);
  Options Opts;
  RegionStats Stats;
  Partition Part = formRegions(G, allColdButMain(G), Opts, &Stats).take();
  EXPECT_TRUE(Part.Regions.empty());
  EXPECT_GT(Stats.RejectedRoots, 0u);
}

TEST(Regions, PackingMergesSmallRegions) {
  std::vector<unsigned> Sizes(12, 12); // Twelve small functions.
  Program P = hotAndCold(Sizes);
  Cfg G(P);
  Options NoPack;
  NoPack.PackRegions = false;
  RegionStats S1;
  formRegions(G, allColdButMain(G), NoPack, &S1).take();

  Options Pack;
  Pack.PackRegions = true;
  RegionStats S2;
  Partition Part = formRegions(G, allColdButMain(G), Pack, &S2).take();

  EXPECT_LT(S2.PackedRegions, S1.PackedRegions);
  EXPECT_GT(S2.Merges, 0u);
  // Packed regions still respect the K bound.
  for (const auto &R : Part.Regions)
    EXPECT_LE(R.sizeWords(G), Pack.BufferBoundBytes / 4);
  // The same blocks are compressed either way.
  EXPECT_EQ(S1.CompressibleInstructions, S2.CompressibleInstructions);
}

TEST(Regions, BufferBoundSplitsLargeFunction) {
  // One 200-instruction function under K = 128 bytes (32 instructions)
  // must split across several regions... but a straight-line function is
  // one block, which exceeds K and cannot be placed at all.
  Program P = hotAndCold({200});
  Cfg G(P);
  Options Opts;
  Opts.BufferBoundBytes = 128;
  Partition Part = formRegions(G, allColdButMain(G), Opts, nullptr).take();
  EXPECT_TRUE(Part.Regions.empty());

  // With blocks smaller than K, the function splits into multiple regions.
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.call("big");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("big");
    for (int B = 0; B != 10; ++B) {
      if (B != 0) {
        std::string Label = "b";
        Label += std::to_string(B);
        F.label(Label);
      }
      for (int I = 0; I != 19; ++I)
        F.addi(1, 1, 1);
    }
    F.ret();
  }
  PB.setEntry("main");
  Program P2 = PB.build();
  Cfg G2(P2);
  std::vector<uint8_t> U(G2.numBlocks(), 1);
  U[G2.idOf("main")] = 0;
  Partition Part2 = formRegions(G2, U, Opts, nullptr).take();
  EXPECT_GE(Part2.Regions.size(), 2u);
}

TEST(Regions, EntryPointsIncludeCallersBranchesAndAddressTaken) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.call("f");
    F.la(1, "g"); // g's address escapes.
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("f");
    F.li(1, 1);
    F.label("inner"); // Only reached from inside f.
    F.subi(1, 1, 1);
    F.bne(1, "inner");
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("g");
    F.ret();
  }
  PB.setEntry("main");
  Program P = PB.build();
  Cfg G(P);

  std::vector<int32_t> RegionOf(G.numBlocks(), -1);
  std::vector<unsigned> Blocks = {G.idOf("f"), G.idOf("f.inner"),
                                  G.idOf("g")};
  for (unsigned B : Blocks)
    RegionOf[B] = 0;
  std::vector<unsigned> Entries = regionEntryPoints(G, Blocks, RegionOf, 0);
  std::unordered_set<unsigned> E(Entries.begin(), Entries.end());
  EXPECT_TRUE(E.count(G.idOf("f")));       // called from outside
  EXPECT_TRUE(E.count(G.idOf("g")));       // address taken
  EXPECT_FALSE(E.count(G.idOf("f.inner"))); // purely internal
}

TEST(BufferSafe, SeedsAndPropagation) {
  ProgramBuilder PB("t");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.call("callsCold");
    F.call("leaf");
    F.call("indirect");
    F.li(16, 0);
    F.halt();
  }
  {
    FunctionBuilder F = PB.beginFunction("callsCold");
    F.call("coldfn");
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("coldfn");
    for (int I = 0; I != 20; ++I)
      F.addi(1, 1, 1);
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("leaf");
    F.addi(0, 16, 1);
    F.ret();
  }
  {
    FunctionBuilder F = PB.beginFunction("indirect");
    F.la(1, "tab");
    F.ldw(1, 1, 0);
    F.callIndirect(1);
    F.ret();
  }
  PB.addSymbolTable("tab", {"leaf"});
  PB.setEntry("main");
  Program P = PB.build();
  Cfg G(P);

  // Compress coldfn only.
  std::vector<uint8_t> U(G.numBlocks(), 0);
  U[G.idOf("coldfn")] = 1;
  Options Opts;
  Partition Part = formRegions(G, U, Opts, nullptr).take();
  ASSERT_EQ(Part.Regions.size(), 1u);

  BufferSafeStats Stats;
  std::vector<uint8_t> Safe = analyzeBufferSafe(G, Part, &Stats);
  auto FuncIdx = [&](const char *Name) {
    return G.functionOf(G.idOf(Name));
  };
  EXPECT_FALSE(Safe[FuncIdx("coldfn")]);    // compressed
  EXPECT_FALSE(Safe[FuncIdx("callsCold")]); // calls compressed code
  EXPECT_FALSE(Safe[FuncIdx("main")]);      // transitively unsafe
  EXPECT_TRUE(Safe[FuncIdx("leaf")]);       // pure leaf
  EXPECT_FALSE(Safe[FuncIdx("indirect")]);  // indirect call
  EXPECT_EQ(Stats.Functions, 5u);
  EXPECT_EQ(Stats.SafeFunctions, 1u);
}

TEST(Regions, InvariantsHoldAfterPackingAndRenumbering) {
  // Many small functions force the packer to merge and renumber regions;
  // the partition invariants must survive that rewrite.
  std::vector<unsigned> Sizes(16, 10);
  Program P = hotAndCold(Sizes);
  Cfg G(P);
  Options Opts;
  Opts.PackRegions = true;
  Opts.BufferBoundBytes = 128; // 32 instructions: several merges per region
  RegionStats Stats;
  Partition Part = formRegions(G, allColdButMain(G), Opts, &Stats).take();
  ASSERT_GT(Stats.Merges, 0u);

  // RegionOf maps into live regions only, and every region id is the
  // block's back-pointer: the two views agree exactly.
  std::unordered_set<unsigned> InSomeRegion;
  for (size_t R = 0; R != Part.Regions.size(); ++R) {
    EXPECT_FALSE(Part.Regions[R].Blocks.empty()) << "empty region survived";
    EXPECT_TRUE(std::is_sorted(Part.Regions[R].Blocks.begin(),
                               Part.Regions[R].Blocks.end()));
    for (unsigned B : Part.Regions[R].Blocks) {
      EXPECT_TRUE(InSomeRegion.insert(B).second) << "block in two regions";
      EXPECT_EQ(Part.RegionOf[B], static_cast<int32_t>(R));
    }
    EXPECT_LE(Part.Regions[R].sizeWords(G), Opts.BufferBoundBytes / 4);
  }
  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    if (Part.RegionOf[B] < 0) {
      EXPECT_EQ(InSomeRegion.count(B), 0u);
    } else {
      ASSERT_LT(static_cast<size_t>(Part.RegionOf[B]), Part.Regions.size())
          << "RegionOf points past the live region list";
      EXPECT_EQ(InSomeRegion.count(B), 1u);
    }
  }
}

TEST(Regions, WholeFunctionRegionsAblation) {
  std::vector<unsigned> Sizes(6, 20);
  Program P = hotAndCold(Sizes);
  Cfg G(P);
  Options Whole;
  Whole.WholeFunctionRegions = true;
  RegionStats Stats;
  Partition Part = formRegions(G, allColdButMain(G), Whole, &Stats).take();
  ASSERT_FALSE(Part.Regions.empty());

  // The strawman forms one region per fully-cold function: no region may
  // span functions, and every block of a compressed function is in it.
  for (size_t R = 0; R != Part.Regions.size(); ++R) {
    unsigned Func = G.functionOf(Part.Regions[R].Blocks.front());
    for (unsigned B : Part.Regions[R].Blocks) {
      EXPECT_EQ(G.functionOf(B), Func) << "region spans functions";
      EXPECT_EQ(Part.RegionOf[B], static_cast<int32_t>(R));
    }
  }
  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    if (Part.RegionOf[B] < 0)
      continue;
    for (unsigned Other = 0; Other != G.numBlocks(); ++Other) {
      if (G.functionOf(Other) == G.functionOf(B)) {
        EXPECT_EQ(Part.RegionOf[Other], Part.RegionOf[B])
            << "partial function compressed under WholeFunctionRegions";
      }
    }
  }

  // The ablation compresses the same straight-line functions the paper's
  // scheme would here, so both schemes agree on the compressed block set.
  Options Default;
  RegionStats DefStats;
  formRegions(G, allColdButMain(G), Default, &DefStats).take();
  EXPECT_EQ(Stats.CompressibleInstructions, DefStats.CompressibleInstructions);
}
