//===- squash/CodecSelect.cpp - Per-region codec selection ----------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/CodecSelect.h"

#include "squash/Rewriter.h"

#include <array>
#include <string>

using namespace squash;
using namespace vea;

namespace {

/// One trial encode: exact payload bits plus the modeled decode charge.
struct Trial {
  uint64_t Bits = 0;
  uint64_t Cycles = 0;
};

/// bits x cycles in 128-bit so large regions cannot overflow the compare.
static unsigned __int128 objective(const Trial &T) {
  return static_cast<unsigned __int128>(T.Bits) * T.Cycles;
}

/// Exact serialized size of a codec's side tables.
template <typename CodecT> uint64_t serializedTableBits(const CodecT &C) {
  BitWriter Scratch;
  C.serializeTables(Scratch);
  return Scratch.bitSize();
}

} // namespace

Status CodecSelectPass::runDisabled(PipelineContext &Ctx) {
  Ctx.Plan = CodecPlan();
  return Status::success();
}

Status CodecSelectPass::run(PipelineContext &Ctx) {
  Ctx.Plan = CodecPlan();
  const Options &Opts = Ctx.options();
  const std::string &Mode = Opts.Codec;
  const bool Auto = Mode == "auto";
  CodecKind Forced = CodecKind::Huffman;
  if (!Auto && !codecKindByName(Mode, Forced))
    return Status::error(StatusCode::InvalidArgument,
                         "codec-select: unknown codec '" + Mode +
                             "' (huffman, pattern, auto)");
  // The legacy single-coder configuration needs no plan; an empty plan
  // keeps the rewriter's blob byte-identical to the pre-plan pipeline.
  if (Ctx.Part.Regions.empty() || (!Auto && Forced == CodecKind::Huffman))
    return Status::success();

  // Trial-encode against exactly what the rewriter will store: the
  // per-region instruction sequences lowered under the layout pass's
  // placement. The pattern tables built here are the image's tables.
  Expected<std::vector<std::vector<MInst>>> StoredOr =
      lowerStoredRegions(Ctx.program(), Ctx.cfg(), Ctx.Part,
                         Ctx.BufferSafeFuncs, Opts, Ctx.FuncOrder);
  if (!StoredOr)
    return StoredOr.status();
  const std::vector<std::vector<MInst>> &Stored = StoredOr.get();
  const size_t N = Stored.size();
  const CostModel &C = Opts.Costs;

  CodecPlan Plan;
  Plan.Pattern = PatternCodec::build(Stored);

  if (!Auto) {
    // Forced mode: every region uses the pattern coder. Trial-encode now
    // so a value outside the coder's alphabet is a clean pipeline Status
    // here instead of a surprise inside image emission.
    for (size_t R = 0; R != N; ++R) {
      uint64_t Bits = 0;
      DecodeWork Work;
      Status St = Plan.Pattern.measureRegion(Stored[R], Bits, Work);
      if (!St.ok())
        return St.context("codec-select: region " + std::to_string(R));
    }
    Plan.RegionCodec.assign(N, Forced);
    Ctx.Plan = std::move(Plan);
    return Status::success();
  }

  // Auto mode. The Huffman candidate is priced with codes built over the
  // whole corpus (the pre-selection baseline); the safety valve below
  // re-prices the surviving Huffman regions with their subset codes.
  const StreamCodecs HuffAll = StreamCodecs::build(Stored);

  std::vector<std::array<Trial, NumCodecKinds>> Trials(N);
  for (size_t R = 0; R != N; ++R) {
    auto Fail = [&](Status St) -> Status {
      St.context("codec-select: region " + std::to_string(R));
      return St;
    };
    BitWriter Scratch;
    if (Status St = HuffAll.encodeRegion(Stored[R], Scratch); !St.ok())
      return Fail(std::move(St));
    DecodeWork HuffWork;
    HuffWork.Instructions = Stored[R].size();
    Trials[R][0] = {Scratch.bitSize(),
                    codecDecodeCycles(C, CodecKind::Huffman, HuffWork)};
    uint64_t Bits = 0;
    DecodeWork Work;
    if (Status St = Plan.Pattern.measureRegion(Stored[R], Bits, Work);
        !St.ok())
      return Fail(std::move(St));
    Trials[R][1] = {Bits, codecDecodeCycles(C, CodecKind::Pattern, Work)};
  }

  // Per-region argmin of bits x cycles; ties break toward the lowest
  // CodecKind id so the choice is deterministic.
  std::vector<CodecKind> Pick(N, CodecKind::Huffman);
  bool AnyNonHuffman = false;
  for (size_t R = 0; R != N; ++R) {
    unsigned Best = 0;
    unsigned __int128 BestObj = objective(Trials[R][0]);
    for (unsigned K = 1; K != NumCodecKinds; ++K)
      if (objective(Trials[R][K]) < BestObj) {
        Best = K;
        BestObj = objective(Trials[R][K]);
      }
    Pick[R] = static_cast<CodecKind>(Best);
    AnyNonHuffman |= Best != 0;
  }
  if (!AnyNonHuffman)
    return Status::success(); // Empty plan: the legacy blob already wins.

  // Safety valve: model the whole blob under the plan exactly as emit()
  // will build it — side tables of every used codec plus per-region
  // payloads, with the Huffman codes rebuilt over only their remaining
  // regions — and keep the plan only if bytes x cycles is no worse than
  // the all-Huffman blob. Per-region wins that shrink the Huffman corpus
  // can bloat the remaining regions' codes; this check catches that.
  std::vector<std::vector<MInst>> HuffCorpus;
  for (size_t R = 0; R != N; ++R)
    if (Pick[R] == CodecKind::Huffman)
      HuffCorpus.push_back(Stored[R]);
  // Some region picked the pattern coder, so its tables are stored.
  uint64_t PlanBits = serializedTableBits(Plan.Pattern), PlanCycles = 0;
  StreamCodecs HuffSub;
  if (!HuffCorpus.empty()) {
    HuffSub = StreamCodecs::build(HuffCorpus);
    PlanBits += serializedTableBits(HuffSub);
  }
  for (size_t R = 0; R != N; ++R) {
    if (Pick[R] == CodecKind::Huffman) {
      BitWriter Scratch;
      if (Status St = HuffSub.encodeRegion(Stored[R], Scratch); !St.ok())
        return St.context("codec-select: region " + std::to_string(R));
      PlanBits += Scratch.bitSize();
      PlanCycles += Trials[R][0].Cycles;
    } else {
      const unsigned K = static_cast<unsigned>(Pick[R]);
      PlanBits += Trials[R][K].Bits;
      PlanCycles += Trials[R][K].Cycles;
    }
  }
  uint64_t AllBits = serializedTableBits(HuffAll);
  uint64_t AllCycles = 0;
  for (size_t R = 0; R != N; ++R) {
    AllBits += Trials[R][0].Bits;
    AllCycles += Trials[R][0].Cycles;
  }
  const uint64_t PlanBytes = (PlanBits + 7) / 8;
  const uint64_t AllBytes = (AllBits + 7) / 8;
  if (static_cast<unsigned __int128>(PlanBytes) * PlanCycles >
      static_cast<unsigned __int128>(AllBytes) * AllCycles)
    return Status::success(); // Revert to the all-Huffman legacy blob.

  Plan.RegionCodec = std::move(Pick);
  Ctx.Plan = std::move(Plan);
  return Status::success();
}
