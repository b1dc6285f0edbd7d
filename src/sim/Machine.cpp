//===- sim/Machine.cpp - VEA-32 interpreter -------------------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "support/Span.h"

#include <cstdio>

using namespace vea;

TrapHandler::~TrapHandler() = default;

Machine::Machine(const Image &Img) : Machine(Img, Config()) {}

Machine::Machine(const Image &Img, Config Cfg)
    : Mem(Cfg.MemBytes, 0), MaxInsts(Cfg.MaxInstructions) {
  if (Img.limit() > Cfg.MemBytes || Img.Base > Cfg.MemBytes) {
    // Construction cannot fail loudly in a library; arm the fault so run()
    // reports it immediately instead of executing garbage.
    Faulted = true;
    FaultMessage = "machine: image does not fit in memory";
    return;
  }
  std::copy(Img.Bytes.begin(), Img.Bytes.end(), Mem.begin() + Img.Base);
  Base = Img.Base;
  PC = Img.EntryPC;
  Regs.fill(0);
  Regs[RegSP] = Cfg.MemBytes - 16; // A little headroom at the very top.
  Decoded.assign(Img.CodeBytes / WordBytes,
                 DecodedInst{Undecoded, 0, 0, 0, 0});

  if (Cfg.Icache.Enabled)
    Icache = std::make_unique<IcacheModel>(Cfg.Icache);

  if (Cfg.CollectBlockProfile) {
    ProfileOn = true;
    BlockOfWord.assign(Img.CodeBytes / WordBytes, -1);
    for (size_t Id = 0; Id != Img.Blocks.size(); ++Id) {
      const BlockLayout &BL = Img.Blocks[Id];
      if (BL.SizeWords != 0)
        BlockOfWord[(BL.Addr - Base) / WordBytes] =
            static_cast<int32_t>(Id);
    }
    BlockCounts.assign(Img.Blocks.size(), 0);
  }
}

void Machine::setInput(std::vector<uint8_t> Input) {
  In = std::move(Input);
  InPos = 0;
}

void Machine::registerTrapRange(uint32_t Begin, uint32_t End,
                                TrapHandler *Handler) {
  TrapBegin = Begin;
  TrapEnd = End;
  Trap = Handler;
}

void Machine::fault(const std::string &Message) {
  if (Faulted)
    return;
  Faulted = true;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), " (pc=0x%x)", PC);
  FaultMessage = Message + Buf;
  if (FlightRecorder::armed())
    FlightRecorder::instance().noteFault("machine", FaultMessage);
}

/// \p What followed by " at 0x" and \p Addr in hex.
static std::string atAddress(const char *What, uint32_t Addr) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s at 0x%x", What, Addr);
  return Buf;
}

bool Machine::loadWord(uint32_t Addr, uint32_t &Value) {
  if (Addr < Base || uint64_t{Addr} + 4 > Mem.size()) {
    fault(atAddress("out-of-bounds word load", Addr));
    return false;
  }
  if (Addr % 4 != 0) {
    fault("misaligned word load");
    return false;
  }
  Value = static_cast<uint32_t>(Mem[Addr]) |
          (static_cast<uint32_t>(Mem[Addr + 1]) << 8) |
          (static_cast<uint32_t>(Mem[Addr + 2]) << 16) |
          (static_cast<uint32_t>(Mem[Addr + 3]) << 24);
  return true;
}

bool Machine::storeWord(uint32_t Addr, uint32_t Value) {
  if (Addr < Base || uint64_t{Addr} + 4 > Mem.size()) {
    fault(atAddress("out-of-bounds word store", Addr));
    return false;
  }
  if (Addr % 4 != 0) {
    fault("misaligned word store");
    return false;
  }
  Mem[Addr] = static_cast<uint8_t>(Value);
  Mem[Addr + 1] = static_cast<uint8_t>(Value >> 8);
  Mem[Addr + 2] = static_cast<uint8_t>(Value >> 16);
  Mem[Addr + 3] = static_cast<uint8_t>(Value >> 24);
  invalidateDecoded(Addr);
  return true;
}

bool Machine::loadByte(uint32_t Addr, uint8_t &Value) {
  if (Addr < Base || Addr >= Mem.size()) {
    fault(atAddress("out-of-bounds byte load", Addr));
    return false;
  }
  Value = Mem[Addr];
  return true;
}

bool Machine::storeByte(uint32_t Addr, uint8_t Value) {
  if (Addr < Base || Addr >= Mem.size()) {
    fault(atAddress("out-of-bounds byte store", Addr));
    return false;
  }
  Mem[Addr] = Value;
  invalidateDecoded(Addr);
  return true;
}

void Machine::execSys(uint32_t Func) {
  switch (static_cast<SysFunc>(Func)) {
  case SysFunc::Halt:
    Halted = true;
    ExitCode = reg(16);
    return;
  case SysFunc::PutChar:
    Out.push_back(static_cast<uint8_t>(reg(16)));
    return;
  case SysFunc::GetChar:
    setReg(0, InPos < In.size() ? In[InPos++] : 0xFFFFFFFFu);
    return;
  case SysFunc::PutInt: {
    char Buf[16];
    int Len = std::snprintf(Buf, sizeof(Buf), "%d",
                            static_cast<int32_t>(reg(16)));
    Out.insert(Out.end(), Buf, Buf + Len);
    return;
  }
  case SysFunc::PutWord: {
    uint32_t V = reg(16);
    Out.push_back(static_cast<uint8_t>(V));
    Out.push_back(static_cast<uint8_t>(V >> 8));
    Out.push_back(static_cast<uint8_t>(V >> 16));
    Out.push_back(static_cast<uint8_t>(V >> 24));
    return;
  }
  case SysFunc::GetWord:
    if (InPos + 4 <= In.size()) {
      uint32_t V = static_cast<uint32_t>(In[InPos]) |
                   (static_cast<uint32_t>(In[InPos + 1]) << 8) |
                   (static_cast<uint32_t>(In[InPos + 2]) << 16) |
                   (static_cast<uint32_t>(In[InPos + 3]) << 24);
      InPos += 4;
      setReg(0, V);
      setReg(1, 1);
    } else {
      setReg(0, 0);
      setReg(1, 0);
    }
    return;
  case SysFunc::Setjmp: {
    uint32_t Buf = reg(16);
    for (unsigned R = 0; R != NumRegs; ++R)
      if (!storeWord(Buf + R * 4, reg(R)))
        return;
    if (!storeWord(Buf + NumRegs * 4, PC + 4))
      return;
    setReg(0, 0);
    return;
  }
  case SysFunc::Longjmp: {
    uint32_t Buf = reg(16);
    uint32_t Val = reg(17);
    for (unsigned R = 0; R != NumRegs; ++R) {
      uint32_t V;
      if (!loadWord(Buf + R * 4, V))
        return;
      setReg(R, V);
    }
    uint32_t Resume;
    if (!loadWord(Buf + NumRegs * 4, Resume))
      return;
    setReg(0, Val ? Val : 1);
    PC = Resume;
    PCOverridden = true;
    return;
  }
  }
  fault("unknown syscall " + std::to_string(Func));
}

Machine::DecodedInst Machine::predecode(uint32_t Word) {
  if (!isLegalWord(Word))
    return {Opcode::Sentinel, 0, 0, 0, Word};
  MInst I = decode(Word);
  DecodedInst D{I.Op, static_cast<uint8_t>(I.ra()),
                static_cast<uint8_t>(I.rb()),
                static_cast<uint8_t>(I.rc()), 0};
  switch (formatOf(I.Op)) {
  case Format::Mem:
    D.Imm = static_cast<uint32_t>(I.disp16());
    break;
  case Format::Branch:
    D.Imm = 4 + 4 * static_cast<uint32_t>(I.disp21());
    break;
  case Format::OpRRI:
    D.Imm = I.lit8();
    break;
  case Format::Sys:
    D.Imm = I.sfunc();
    break;
  case Format::Jump:
  case Format::OpRRR:
    break;
  }
  return D;
}

// Inline: run() is the only caller, and folding the step into its loop
// saves a call per retired instruction.
inline bool Machine::step() {
  // Trap dispatch happens on instruction fetch, modelling control arriving
  // at the decompressor's entry points.
  if (Trap && PC >= TrapBegin && PC < TrapEnd)
    return Trap->handleTrap(*this, PC) && !Faulted && !Halted;

  if (PC % 4 != 0) {
    fault("misaligned pc");
    return false;
  }
  if (PC < Base || uint64_t{PC} + 4 > Mem.size()) {
    fault("pc out of bounds");
    return false;
  }

  // The fetch goes through the simulated I-cache when one is configured;
  // a miss charges its penalty through the same cycle account the runtime
  // services use, so the conservation ledger can attribute it exactly.
  if (Icache)
    Cycles += Icache->access(PC);

  // Code words decode once into the table; a store to a word drops its
  // entry (invalidateDecoded), so rewritten code decodes afresh. A PC past
  // the table (code copied into data or the stack) decodes on every fetch.
  auto FetchWord = [&] {
    return static_cast<uint32_t>(Mem[PC]) |
           (static_cast<uint32_t>(Mem[PC + 1]) << 8) |
           (static_cast<uint32_t>(Mem[PC + 2]) << 16) |
           (static_cast<uint32_t>(Mem[PC + 3]) << 24);
  };
  const uint32_t Slot = (PC - Base) / WordBytes;
  DecodedInst I;
  if (Slot < Decoded.size()) {
    DecodedInst &Cached = Decoded[Slot];
    if (Cached.Op == Undecoded)
      Cached = predecode(FetchWord());
    I = Cached;
  } else {
    I = predecode(FetchWord());
  }
  if (I.Op == Opcode::Sentinel) {
    fault("illegal instruction word " + std::to_string(I.Imm));
    return false;
  }

  if (ProfileOn && Slot < BlockOfWord.size()) {
    int32_t Block = BlockOfWord[Slot];
    if (Block >= 0)
      ++BlockCounts[Block];
  }

  ++Insts;
  ++Cycles;

  uint32_t NextPC = PC + 4;
  const uint32_t BranchTarget = PC + I.Imm;

  switch (I.Op) {
  case Opcode::Ldw: {
    uint32_t V;
    if (!loadWord(reg(I.Rb) + I.Imm, V))
      return false;
    setReg(I.Ra, V);
    break;
  }
  case Opcode::Ldb: {
    uint8_t V;
    if (!loadByte(reg(I.Rb) + I.Imm, V))
      return false;
    setReg(I.Ra, V);
    break;
  }
  case Opcode::Stw:
    if (!storeWord(reg(I.Rb) + I.Imm, reg(I.Ra)))
      return false;
    break;
  case Opcode::Stb:
    if (!storeByte(reg(I.Rb) + I.Imm, static_cast<uint8_t>(reg(I.Ra))))
      return false;
    break;
  case Opcode::Lda:
    setReg(I.Ra, reg(I.Rb) + I.Imm);
    break;
  case Opcode::Ldah:
    setReg(I.Ra, reg(I.Rb) + (I.Imm << 16));
    break;

  case Opcode::Br:
  case Opcode::Bsr:
    setReg(I.Ra, PC + 4);
    NextPC = BranchTarget;
    break;
  case Opcode::Beq:
    if (reg(I.Ra) == 0)
      NextPC = BranchTarget;
    break;
  case Opcode::Bne:
    if (reg(I.Ra) != 0)
      NextPC = BranchTarget;
    break;
  case Opcode::Blt:
    if (static_cast<int32_t>(reg(I.Ra)) < 0)
      NextPC = BranchTarget;
    break;
  case Opcode::Ble:
    if (static_cast<int32_t>(reg(I.Ra)) <= 0)
      NextPC = BranchTarget;
    break;
  case Opcode::Bgt:
    if (static_cast<int32_t>(reg(I.Ra)) > 0)
      NextPC = BranchTarget;
    break;
  case Opcode::Bge:
    if (static_cast<int32_t>(reg(I.Ra)) >= 0)
      NextPC = BranchTarget;
    break;
  case Opcode::Blbc:
    if ((reg(I.Ra) & 1) == 0)
      NextPC = BranchTarget;
    break;
  case Opcode::Blbs:
    if ((reg(I.Ra) & 1) == 1)
      NextPC = BranchTarget;
    break;

  case Opcode::Jmp:
  case Opcode::Jsr:
  case Opcode::Ret: {
    uint32_t Target = reg(I.Rb) & ~3u;
    setReg(I.Ra, PC + 4);
    NextPC = Target;
    break;
  }

#define RRR_CASE(OPC, EXPR)                                                   \
  case Opcode::OPC: {                                                         \
    uint32_t A = reg(I.Ra), B = reg(I.Rb);                                    \
    (void)A;                                                                  \
    (void)B;                                                                  \
    setReg(I.Rc, (EXPR));                                                     \
    break;                                                                    \
  }
    RRR_CASE(Add, A + B)
    RRR_CASE(Sub, A - B)
    RRR_CASE(Mul, A *B)
    RRR_CASE(Umulh, static_cast<uint32_t>(
                        (static_cast<uint64_t>(A) * B) >> 32))
    RRR_CASE(And, A &B)
    RRR_CASE(Or, A | B)
    RRR_CASE(Xor, A ^ B)
    RRR_CASE(Bic, A & ~B)
    RRR_CASE(Sll, A << (B & 31))
    RRR_CASE(Srl, A >> (B & 31))
    RRR_CASE(Sra, static_cast<uint32_t>(static_cast<int32_t>(A) >>
                                        (B & 31)))
    RRR_CASE(Cmpeq, A == B ? 1u : 0u)
    RRR_CASE(Cmplt,
             static_cast<int32_t>(A) < static_cast<int32_t>(B) ? 1u : 0u)
    RRR_CASE(Cmple,
             static_cast<int32_t>(A) <= static_cast<int32_t>(B) ? 1u : 0u)
    RRR_CASE(Cmpult, A < B ? 1u : 0u)
    RRR_CASE(Cmpule, A <= B ? 1u : 0u)
#undef RRR_CASE

  case Opcode::Udiv:
  case Opcode::Urem: {
    uint32_t A = reg(I.Ra), B = reg(I.Rb);
    if (B == 0) {
      fault("division by zero");
      return false;
    }
    setReg(I.Rc, I.Op == Opcode::Udiv ? A / B : A % B);
    break;
  }

#define RRI_CASE(OPC, EXPR)                                                   \
  case Opcode::OPC: {                                                         \
    uint32_t A = reg(I.Ra), B = I.Imm;                                        \
    (void)A;                                                                  \
    (void)B;                                                                  \
    setReg(I.Rc, (EXPR));                                                     \
    break;                                                                    \
  }
    RRI_CASE(Addi, A + B)
    RRI_CASE(Subi, A - B)
    RRI_CASE(Muli, A *B)
    RRI_CASE(Andi, A &B)
    RRI_CASE(Ori, A | B)
    RRI_CASE(Xori, A ^ B)
    RRI_CASE(Slli, A << (B & 31))
    RRI_CASE(Srli, A >> (B & 31))
    RRI_CASE(Srai, static_cast<uint32_t>(static_cast<int32_t>(A) >>
                                         (B & 31)))
    RRI_CASE(Cmpeqi, A == B ? 1u : 0u)
    RRI_CASE(Cmplti, static_cast<int32_t>(A) <
                             static_cast<int32_t>(B)
                         ? 1u
                         : 0u)
    RRI_CASE(Cmplei, static_cast<int32_t>(A) <=
                             static_cast<int32_t>(B)
                         ? 1u
                         : 0u)
    RRI_CASE(Cmpulti, A < B ? 1u : 0u)
    RRI_CASE(Cmpulei, A <= B ? 1u : 0u)
#undef RRI_CASE

  case Opcode::Sys:
    execSys(I.Imm);
    if (Faulted || Halted)
      return false;
    break;

  case Opcode::Sentinel:
  case Opcode::Bsrx:
  case Opcode::NumOpcodes:
    // Unreachable: predecode() turns every illegal word into a Sentinel
    // entry, which faults before dispatch.
    fault("illegal instruction");
    return false;
  }

  if (Faulted)
    return false;
  if (PCOverridden)
    PCOverridden = false; // Longjmp already set the PC.
  else
    PC = NextPC;
  return true;
}

RunResult Machine::run() {
  RunResult R;
  auto FillCounters = [&] {
    R.Instructions = Insts;
    R.Cycles = Cycles;
    if (Icache) {
      R.IcacheFetches = Icache->stats().Fetches;
      R.IcacheMisses = Icache->stats().Misses;
      R.IcacheMissCycles = Icache->stats().MissCycles;
    }
  };
  while (!Halted && !Faulted) {
    if (Insts >= MaxInsts) {
      R.Status = RunStatus::InstLimit;
      FillCounters();
      return R;
    }
    if (!step())
      break;
  }
  R.Status = Halted ? RunStatus::Halted : RunStatus::Fault;
  R.ExitCode = ExitCode;
  R.FaultMessage = FaultMessage;
  FillCounters();
  return R;
}

Profile Machine::takeProfile() {
  Profile P;
  P.BlockCounts = std::move(BlockCounts);
  P.TotalInstructions = Insts;
  return P;
}

void vea::exportRunMetrics(MetricsRegistry &R, const RunResult &Run,
                           const std::string &Prefix) {
  R.setCounter(Prefix + "instructions", Run.Instructions);
  R.setCounter(Prefix + "cycles", Run.Cycles);
  R.setCounter(Prefix + "exit_code", Run.ExitCode);
  R.setCounter(Prefix + "halted", Run.Status == RunStatus::Halted ? 1 : 0);
  if (Run.IcacheFetches) {
    R.setCounter(Prefix + "icache_fetches", Run.IcacheFetches);
    R.setCounter(Prefix + "icache_misses", Run.IcacheMisses);
    R.setCounter(Prefix + "icache_miss_cycles", Run.IcacheMissCycles);
  }
}
