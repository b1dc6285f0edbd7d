//===- isa/Disasm.cpp - VEA-32 disassembler -------------------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "isa/Disasm.h"

#include <cstdio>

using namespace vea;

static std::string reg(unsigned R) {
  std::string S = "r";
  S += std::to_string(R);
  return S;
}

static std::string branchTarget(const MInst &Inst, int64_t PC) {
  int32_t Disp = Inst.disp21();
  if (PC < 0) {
    std::string S = Disp >= 0 ? "+" : "";
    S += std::to_string(Disp);
    return S;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llx",
                static_cast<unsigned long long>(PC + 4 + 4 * int64_t(Disp)));
  return Buf;
}

std::string vea::disassemble(const MInst &Inst, int64_t PC) {
  const OpcodeInfo &Info = opcodeInfo(Inst.Op);
  std::string Name = Info.Name;
  switch (Info.Form) {
  case Format::Mem:
    return Name + " " + reg(Inst.ra()) + ", " + std::to_string(Inst.disp16()) +
           "(" + reg(Inst.rb()) + ")";
  case Format::Branch:
    return Name + " " + reg(Inst.ra()) + ", " + branchTarget(Inst, PC);
  case Format::Jump:
    return Name + " " + reg(Inst.ra()) + ", (" + reg(Inst.rb()) + ")";
  case Format::OpRRR:
    return Name + " " + reg(Inst.rc()) + ", " + reg(Inst.ra()) + ", " +
           reg(Inst.rb());
  case Format::OpRRI:
    return Name + " " + reg(Inst.rc()) + ", " + reg(Inst.ra()) + ", " +
           std::to_string(Inst.lit8());
  case Format::Sys:
    if (Inst.Op == Opcode::Sentinel)
      return "sentinel";
    return Name + " " + std::to_string(Inst.sfunc());
  }
  return "<?>";
}

std::string vea::disassembleWord(uint32_t Word, int64_t PC) {
  if (!isLegalWord(Word) && (Word >> 26) != 0) {
    // Permit disassembly of squash-internal opcodes for diagnostics.
    unsigned OpBits = Word >> 26;
    if (OpBits >= NumOpcodes) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), ".word 0x%08x", Word);
      return Buf;
    }
  }
  return disassemble(decode(Word), PC);
}
