//===- tests/RandomProgramGen.h - Random terminating programs --*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The random-program generator shared by the equivalence property test
/// (randomprog_test) and the differential-execution suite
/// (differential_test). It emits random—but always terminating—programs:
/// forward-branch DAG control flow, jump tables, acyclic call graphs, and
/// counted loops only in leaf functions.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_TESTS_RANDOMPROGRAMGEN_H
#define SQUASH_TESTS_RANDOMPROGRAMGEN_H

#include "ir/Builder.h"
#include "support/Random.h"

#include <string>
#include <vector>

namespace testgen {

/// Registers the generator hands out for scratch computation.
inline constexpr unsigned ScratchRegs[] = {1, 2, 3, 4, 5, 6, 16, 17, 18, 19};

/// Prefix followed by N in decimal. Built by appending to a named string:
/// GCC 12 reports a false -Wrestrict on an inlined "literal" + std::string&&.
inline std::string numbered(const char *Prefix, uint64_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

inline unsigned pickReg(vea::Rng &R) {
  return ScratchRegs[R.nextBelow(std::size(ScratchRegs))];
}

/// Emits a random arithmetic/memory instruction confined to the arena.
inline void emitRandomOp(vea::FunctionBuilder &F, vea::Rng &R) {
  unsigned A = pickReg(R), B = pickReg(R), C = pickReg(R);
  switch (R.nextBelow(12)) {
  case 0:
    F.add(C, A, B);
    break;
  case 1:
    F.sub(C, A, B);
    break;
  case 2:
    F.mul(C, A, B);
    break;
  case 3:
    F.xor_(C, A, B);
    break;
  case 4:
    F.slli(C, A, static_cast<uint32_t>(R.nextBelow(8)));
    break;
  case 5:
    F.srli(C, A, static_cast<uint32_t>(R.nextBelow(8)));
    break;
  case 6:
    F.addi(C, A, static_cast<uint32_t>(R.nextBelow(256)));
    break;
  case 7: { // Guarded divide: divisor forced odd (nonzero).
    F.ori(B, B, 1);
    F.udiv(C, A, B);
    break;
  }
  case 8: { // Arena store.
    F.andi(7, A, 252);
    F.la(8, "arena");
    F.add(8, 8, 7);
    F.stw(B, 8, 0);
    break;
  }
  case 9: { // Arena load.
    F.andi(7, A, 252);
    F.la(8, "arena");
    F.add(8, 8, 7);
    F.ldw(C, 8, 0);
    break;
  }
  case 10:
    F.cmplt(C, A, B);
    break;
  default:
    F.ori(C, A, static_cast<uint32_t>(R.nextBelow(256)));
    break;
  }
}

/// Builds a random, always-terminating program.
inline vea::Program randomProgram(uint64_t Seed) {
  using namespace vea;
  Rng R(Seed);
  ProgramBuilder PB(numbered("rand", Seed));
  PB.addBss("arena", 512);

  unsigned NumFuncs = 3 + static_cast<unsigned>(R.nextBelow(5));

  // main: seed registers, call every function, checksum the arena. main
  // never returns (it halts), so it needs no frame around its calls.
  {
    FunctionBuilder F = PB.beginFunction("main");
    for (unsigned Reg : ScratchRegs)
      F.li(Reg, static_cast<int32_t>(R.nextBelow(100000)));
    F.li(10, 0);
    for (unsigned FI = 0; FI != NumFuncs; ++FI) {
      F.call(numbered("f", FI));
      F.add(10, 10, 0); // Accumulate each function's result.
    }
    // Checksum the arena.
    F.la(11, "arena");
    F.li(12, 128);
    F.label("ck");
    F.ldw(13, 11, 0);
    F.add(10, 10, 13);
    F.addi(11, 11, 4);
    F.subi(12, 12, 1);
    F.bne(12, "ck");
    F.mov(16, 10);
    F.sys(SysFunc::PutWord);
    F.andi(16, 10, 0xFF);
    F.halt();
  }

  for (unsigned FI = 0; FI != NumFuncs; ++FI) {
    FunctionBuilder F = PB.beginFunction(numbered("f", FI));
    // Functions may call only higher-numbered functions (acyclic), and a
    // function either calls or loops — never both (guarantees
    // termination with the shared counter register r9).
    bool CanCall = FI + 1 < NumFuncs && R.chance(1, 2);
    bool Loops = !CanCall && R.chance(2, 3);
    unsigned NumBlocks = 2 + static_cast<unsigned>(R.nextBelow(6));

    if (CanCall)
      F.enter(8);
    if (Loops)
      F.li(9, static_cast<int32_t>(1 + R.nextBelow(5)));

    for (unsigned B = 0; B != NumBlocks; ++B) {
      if (B != 0)
        F.label(numbered("b", B));
      unsigned Ops = 2 + static_cast<unsigned>(R.nextBelow(8));
      for (unsigned O = 0; O != Ops; ++O)
        emitRandomOp(F, R);
      if (CanCall && R.chance(1, 3)) {
        unsigned Callee =
            FI + 1 + static_cast<unsigned>(R.nextBelow(NumFuncs - FI - 1));
        F.mov(16, pickReg(R));
        F.call(numbered("f", Callee));
      }
      // Terminator: forward conditional branch, a forward jump table
      // (exercising unswitching and table relocation), or fallthrough.
      if (B + 1 < NumBlocks) {
        unsigned Target =
            B + 1 + static_cast<unsigned>(R.nextBelow(NumBlocks - B - 1));
        switch (R.nextBelow(4)) {
        case 0:
          F.beq(pickReg(R), numbered("b", Target));
          break;
        case 1:
          if (Target != B + 1) {
            F.bne(pickReg(R), numbered("b", Target));
          }
          break;
        case 2: {
          // Jump table over 2-4 strictly-forward targets; the index is
          // bounded by construction.
          unsigned NCases = 2 + static_cast<unsigned>(
                                    R.nextBelow(NumBlocks - B - 1 < 3
                                                    ? NumBlocks - B - 1
                                                    : 3));
          std::vector<std::string> Targets;
          for (unsigned C = 0; C != NCases; ++C)
            Targets.push_back(
                numbered("b", B + 1 + R.nextBelow(NumBlocks - B - 1)));
          // The index and scratch registers are dead after a switch (the
          // table idiom clobbers them; the unswitched chain does not), so
          // use r7/r8, which generated code never reads across
          // instructions. Masking with NCases-1 keeps the index strictly
          // below NCases (the result is a submask of NCases-1).
          F.andi(7, pickReg(R), NCases - 1);
          F.switchJump(7, 8, numbered("jt", B), Targets,
                       /*SizeKnown=*/R.chance(4, 5));
          break;
        }
        default:
          break; // Plain fallthrough.
        }
      }
    }
    // Loop tail: counted backward branch (leaf functions only).
    if (Loops) {
      F.subi(9, 9, 1);
      F.bne(9, "b1");
    }
    F.mov(0, pickReg(R));
    if (CanCall)
      F.leave(8);
    else
      F.ret();
  }

  PB.setEntry("main");
  return PB.build();
}

} // namespace testgen

#endif // SQUASH_TESTS_RANDOMPROGRAMGEN_H
