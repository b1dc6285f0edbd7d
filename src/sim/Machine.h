//===- sim/Machine.h - VEA-32 interpreter ----------------------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A byte-addressed VEA-32 machine: executes an Image, provides the I/O
/// syscalls workloads use, collects the per-basic-block execution profile
/// squash consumes (the paper's "execution counts for the program's basic
/// blocks"), and accounts cycles. The squash runtime plugs in through the
/// TrapHandler interface: when the PC enters a registered address range the
/// handler (the decompressor) takes over, exactly as the trap would land in
/// the native decompressor's code on the paper's Alpha.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SIM_MACHINE_H
#define SQUASH_SIM_MACHINE_H

#include "isa/Isa.h"
#include "link/Layout.h"
#include "sim/Icache.h"
#include "support/Metrics.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vea {

class Machine;

/// Hook invoked when execution reaches a registered address range. The
/// squash runtime (entry stubs' decompressor target) implements this.
class TrapHandler {
public:
  virtual ~TrapHandler();

  /// Called instead of fetching at \p PC. Must update machine state
  /// (registers, memory, PC) and return true, or call Machine::fault() and
  /// return false.
  virtual bool handleTrap(Machine &M, uint32_t PC) = 0;
};

enum class RunStatus : uint8_t {
  Halted,    ///< Program executed sys Halt.
  Fault,     ///< Illegal instruction, bad memory access, etc.
  InstLimit, ///< Instruction budget exhausted (runaway guard).
};

struct RunResult {
  RunStatus Status = RunStatus::Fault;
  uint32_t ExitCode = 0;
  std::string FaultMessage;
  uint64_t Instructions = 0; ///< Program instructions retired.
  uint64_t Cycles = 0;       ///< Instructions + charged runtime-service work.

  // Simulated I-cache counters; all zero when the model is disabled.
  uint64_t IcacheFetches = 0;
  uint64_t IcacheMisses = 0;
  uint64_t IcacheMissCycles = 0; ///< Miss penalty included in Cycles.
};

/// Registers a run's machine counters (instructions retired, cycles, exit
/// code, halt status) under \p Prefix (DESIGN.md §12).
void exportRunMetrics(MetricsRegistry &R, const RunResult &Run,
                      const std::string &Prefix = "run.");

/// The per-basic-block execution profile squash consumes.
struct Profile {
  std::vector<uint64_t> BlockCounts; ///< Indexed by Cfg block id.
  uint64_t TotalInstructions = 0;    ///< The paper's tot_instr_ct.
};

class Machine {
public:
  struct Config {
    uint32_t MemBytes = 8u << 20;
    uint64_t MaxInstructions = 2'000'000'000ull;
    bool CollectBlockProfile = false;
    /// Simulated I-cache; disabled by default so cycle counts stay
    /// bit-stable with the flat fetch model.
    IcacheConfig Icache;
  };

  explicit Machine(const Image &Img, Config Cfg);
  explicit Machine(const Image &Img);

  void setInput(std::vector<uint8_t> Input);
  const std::vector<uint8_t> &output() const { return Out; }

  /// Registers \p Handler for PCs in [Begin, End).
  void registerTrapRange(uint32_t Begin, uint32_t End, TrapHandler *Handler);

  /// Runs until halt, fault, or the instruction limit.
  RunResult run();

  /// Returns the collected block profile (requires CollectBlockProfile).
  Profile takeProfile();

  // --- State access for trap handlers and tests --------------------------
  uint32_t reg(unsigned R) const { return Regs[R]; }
  /// Writes to r31 are discarded: Regs[RegZero] is re-zeroed after every
  /// write, which keeps both accessors branch-free.
  void setReg(unsigned R, uint32_t Value) {
    Regs[R] = Value;
    Regs[RegZero] = 0;
  }
  uint32_t pc() const { return PC; }
  void setPC(uint32_t NewPC) { PC = NewPC; }

  /// Checked loads/stores; on failure record a fault and return false.
  bool loadWord(uint32_t Addr, uint32_t &Value);
  bool storeWord(uint32_t Addr, uint32_t Value);
  bool loadByte(uint32_t Addr, uint8_t &Value);
  bool storeByte(uint32_t Addr, uint8_t Value);

  /// Charges extra cycles (runtime-service work such as decompression).
  void addCycles(uint64_t N) { Cycles += N; }
  uint64_t cycles() const { return Cycles; }
  uint64_t instructions() const { return Insts; }

  /// True when the simulated I-cache is modelled; fetch misses then add
  /// their penalty to cycles() via the same charging discipline.
  bool icacheEnabled() const { return Icache != nullptr; }

  /// The model's counters, or nullptr when disabled.
  const IcacheStats *icacheStats() const {
    return Icache ? &Icache->stats() : nullptr;
  }

  /// Invalidates cached lines overlapping [Addr, Addr + Bytes). Runtime
  /// services call this after writing code into guest memory (region
  /// fills, stub rewrites); no-op when the model is disabled.
  void icacheFlushRange(uint32_t Addr, uint32_t Bytes) {
    if (Icache)
      Icache->flushRange(Addr, Bytes);
  }

  /// Records a fault; the run loop stops after the current step.
  void fault(const std::string &Message);
  bool faulted() const { return Faulted; }

  uint32_t memBytes() const { return static_cast<uint32_t>(Mem.size()); }

  /// Raw memory access for privileged runtime services (the decompressor
  /// reads the compressed blob directly, as native code would). Read-only:
  /// every write goes through storeWord/storeByte, which keep the
  /// predecoded instruction table coherent.
  const uint8_t *memData() const { return Mem.data(); }

private:
  /// One predecoded instruction word. Imm holds the operand the opcode
  /// uses: the sign-extended disp16 (Mem), the branch's byte offset from
  /// the PC, 4 + 4 * disp21 (Branch), lit8 (OpRRI), or sfunc (Sys). An
  /// illegal word predecodes to Sentinel with the raw word in Imm, for the
  /// fault message.
  struct DecodedInst {
    Opcode Op;
    uint8_t Ra, Rb, Rc;
    uint32_t Imm;
  };
  static_assert(sizeof(DecodedInst) == 8, "predecoded entry must stay compact");

  /// Marks a table entry that has not been decoded since its word was
  /// last written.
  static constexpr Opcode Undecoded = Opcode::NumOpcodes;

  static DecodedInst predecode(uint32_t Word);

  /// Drops the predecoded entry of the word containing \p Addr: the
  /// simulator's analogue of the I-cache flush after writing code.
  void invalidateDecoded(uint32_t Addr) {
    uint32_t Off = Addr - Base;
    if (Off < Decoded.size() * WordBytes)
      Decoded[Off / WordBytes].Op = Undecoded;
  }

  bool step(); ///< Returns false when the run should stop.
  void execSys(uint32_t Func);

  std::vector<uint8_t> Mem;
  /// Predecoded entries for the words of [Base, Base + Img.CodeBytes),
  /// filled on first execution. PCs outside it decode on every fetch.
  std::vector<DecodedInst> Decoded;
  std::array<uint32_t, NumRegs> Regs = {};
  uint32_t PC = 0;
  uint32_t Base = 0; ///< Lowest mapped address (null page below faults).

  std::vector<uint8_t> In;
  size_t InPos = 0;
  std::vector<uint8_t> Out;

  uint64_t Insts = 0;
  uint64_t Cycles = 0;
  uint64_t MaxInsts;

  bool Halted = false;
  uint32_t ExitCode = 0;
  bool Faulted = false;
  bool PCOverridden = false; ///< Set by longjmp; suppresses PC += 4.
  std::string FaultMessage;

  // Trap dispatch.
  uint32_t TrapBegin = 0, TrapEnd = 0;
  TrapHandler *Trap = nullptr;

  // Simulated I-cache (null when disabled).
  std::unique_ptr<IcacheModel> Icache;

  // Profiling.
  bool ProfileOn = false;
  /// Per word of [Base, Base + Img.CodeBytes): block id, or -1 if the word
  /// does not start a block.
  std::vector<int32_t> BlockOfWord;
  std::vector<uint64_t> BlockCounts;
};

} // namespace vea

#endif // SQUASH_SIM_MACHINE_H
