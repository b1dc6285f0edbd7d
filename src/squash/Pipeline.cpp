//===- squash/Pipeline.cpp - Pass manager for the squash pipeline ---------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/Pipeline.h"

#include "link/Layout.h"
#include "squash/CodecSelect.h"
#include "squash/LayoutPass.h"
#include "support/Span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

using namespace squash;
using namespace vea;

//===----------------------------------------------------------------------===//
// PipelineContext
//===----------------------------------------------------------------------===//

PipelineContext::PipelineContext(Program &Prog, const Profile &Prof,
                                 const Options &Opts, SquashResult &Result)
    : Prog(Prog), Prof(Prof), Opts(Opts), Result(Result) {
  OriginalCodeBytes = static_cast<uint32_t>(4 * Prog.instructionCount());
}

const Cfg &PipelineContext::cfg() {
  if (!CachedCfg) {
    CachedCfg = std::make_unique<Cfg>(Prog);
    ++CfgBuildCount;
  }
  return *CachedCfg;
}

const std::vector<std::vector<unsigned>> &PipelineContext::functionBlocks() {
  const Cfg &G = cfg(); // Ensure the index matches the current CFG.
  if (FuncBlocks.empty() && G.numFunctions() != 0) {
    FuncBlocks.resize(G.numFunctions());
    for (unsigned Id = 0; Id != G.numBlocks(); ++Id)
      FuncBlocks[G.functionOf(Id)].push_back(Id);
  }
  return FuncBlocks;
}

void PipelineContext::invalidateCfg() {
  CachedCfg.reset();
  FuncBlocks.clear();
}

//===----------------------------------------------------------------------===//
// The standard passes
//===----------------------------------------------------------------------===//

namespace {

/// Section 5: identify cold code and seed the candidate set.
class ColdCodePass final : public Pass {
public:
  const char *name() const override { return "cold-code"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::ColdSeconds;
  }
  Status run(PipelineContext &Ctx) override {
    const Options &Opts = Ctx.options();
    Expected<ColdCodeResult> Cold = identifyColdCode(
        Ctx.cfg(), Ctx.profile(), Opts.Theta, Opts.ColdCutoffCap);
    if (!Cold)
      return Cold.status();
    Ctx.result().Cold = std::move(Cold.get());
    Ctx.Candidate = Ctx.result().Cold.IsCold;
    return Status::success();
  }
  Status runDisabled(PipelineContext &Ctx) override {
    // No cold blocks means no candidates: downstream passes still need a
    // correctly sized flag vector.
    Ctx.Candidate.assign(Ctx.cfg().numBlocks(), 0);
    Ctx.result().Cold.IsCold = Ctx.Candidate;
    return Status::success();
  }
};

/// Section 6.2: unswitch cold jump tables (block ids are stable across
/// this pass, so the cold flags remain valid). The program changes, so the
/// cached CFG is invalidated either way.
class UnswitchPass final : public Pass {
public:
  const char *name() const override { return "unswitch"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::UnswitchSeconds;
  }
  Status run(PipelineContext &Ctx) override {
    return apply(Ctx, Ctx.options().Unswitch);
  }
  Status runDisabled(PipelineContext &Ctx) override {
    // Skipping unswitching outright would leave switch blocks candidate
    // with jump tables full of original addresses; the correct "off"
    // behaviour is the paper's fallback, exclusion (same as
    // Options::Unswitch = false).
    return apply(Ctx, false);
  }

private:
  static Status apply(PipelineContext &Ctx, bool Enable) {
    Expected<UnswitchStats> US =
        unswitchJumpTables(Ctx.program(), Ctx.Candidate, Enable);
    if (!US)
      return US.status();
    Ctx.result().Unswitch = US.get();
    Ctx.invalidateCfg();
    return Status::success();
  }
};

/// Section 2.2 plus conservatism around indirect control flow: setjmp
/// callers are never compressed, and blocks with indirect calls would need
/// Jsr expansion from the buffer (see DESIGN.md).
class SetjmpIndirectFilterPass final : public Pass {
public:
  const char *name() const override { return "filter-setjmp-indirect"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::UnswitchSeconds;
  }
  Status run(PipelineContext &Ctx) override {
    const Cfg &G = Ctx.cfg();
    for (unsigned Id = 0; Id != G.numBlocks(); ++Id) {
      if (!Ctx.Candidate[Id])
        continue;
      if (G.functionCallsSetjmp(G.functionOf(Id)) || G.hasIndirectCall(Id))
        Ctx.Candidate[Id] = 0;
    }
    return Status::success();
  }
};

/// A computed jump with unknown targets poisons its whole function: one
/// scan marks poisoned functions, then only their block lists are cleared
/// (the monolithic driver rescanned every block per computed jump,
/// O(blocks^2) on jump-heavy programs).
class ComputedJumpFilterPass final : public Pass {
public:
  const char *name() const override { return "filter-computed-jump"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::UnswitchSeconds;
  }
  Status run(PipelineContext &Ctx) override {
    const Cfg &G = Ctx.cfg();
    std::vector<uint8_t> Poisoned(G.numFunctions(), 0);
    for (unsigned Id = 0; Id != G.numBlocks(); ++Id) {
      const BasicBlock &B = G.block(Id);
      if (B.Insts.back().Op == Opcode::Jmp && !B.Switch)
        Poisoned[G.functionOf(Id)] = 1;
    }
    const auto &FuncBlocks = Ctx.functionBlocks();
    for (unsigned F = 0; F != G.numFunctions(); ++F)
      if (Poisoned[F])
        for (unsigned Id : FuncBlocks[F])
          Ctx.Candidate[Id] = 0;
    return Status::success();
  }
};

/// Section 4: region formation and packing.
class RegionsPass final : public Pass {
public:
  const char *name() const override { return "regions"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::RegionSeconds;
  }
  Status run(PipelineContext &Ctx) override {
    Expected<Partition> PartOr = formRegions(Ctx.cfg(), Ctx.Candidate,
                                             Ctx.options(),
                                             &Ctx.result().Regions);
    if (!PartOr)
      return PartOr.status();
    Ctx.Part = std::move(PartOr.get());
    return Status::success();
  }
  Status runDisabled(PipelineContext &Ctx) override {
    // An empty partition downstream means the identity image; RegionOf
    // must still have one entry per block.
    Ctx.Part.Regions.clear();
    Ctx.Part.RegionOf.assign(Ctx.cfg().numBlocks(), -1);
    return Status::success();
  }
};

/// Section 6.1: buffer-safety analysis. Runs uniformly even when the
/// partition is empty so identity results carry real stats.
class BufferSafePass final : public Pass {
public:
  const char *name() const override { return "buffer-safe"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::BufferSafeSeconds;
  }
  Status run(PipelineContext &Ctx) override {
    Ctx.BufferSafeFuncs =
        analyzeBufferSafe(Ctx.cfg(), Ctx.Part, &Ctx.result().BufferSafe);
    return Status::success();
  }
  Status runDisabled(PipelineContext &Ctx) override {
    // No function is considered safe: the rewriter then treats every call
    // from compressed code conservatively (byte-identical to
    // Options::BufferSafeCalls = false).
    Ctx.BufferSafeFuncs.assign(Ctx.cfg().numFunctions(), 0);
    return Status::success();
  }
};

/// Section 2: rewrite — or, when no region was profitable, emit the
/// original layout unchanged (SquashResult::Identity).
class RewritePass final : public Pass {
public:
  const char *name() const override { return "rewrite"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::RewriteSeconds;
  }
  Status run(PipelineContext &Ctx) override {
    SquashResult &R = Ctx.result();
    if (Ctx.Part.Regions.empty())
      return emitIdentity(Ctx);
    Expected<SquashedProgram> SPOr =
        rewriteProgram(Ctx.program(), Ctx.cfg(), Ctx.Part,
                       Ctx.BufferSafeFuncs, Ctx.options(),
                       std::move(Ctx.Plan), Ctx.FuncOrder);
    if (!SPOr)
      return SPOr.status();
    R.SP = std::move(SPOr.get());
    R.SP.Footprint.OriginalCodeBytes = Ctx.OriginalCodeBytes;
    R.SP.ProfileBlockCount =
        static_cast<uint32_t>(Ctx.profile().BlockCounts.size());
    R.Stats.EncodeSeconds = R.SP.EncodeSeconds;
    return Status::success();
  }
  Status runDisabled(PipelineContext &Ctx) override {
    // Without the rewrite the only runnable artifact is the input program
    // itself.
    return emitIdentity(Ctx);
  }

private:
  static Status emitIdentity(PipelineContext &Ctx) {
    SquashResult &R = Ctx.result();
    R.Identity = true;
    // An identity image still honours the layout pass's placement — the
    // link-layer explicit-order seam is exactly this call.
    Expected<Image> Img =
        layoutProgramOrError(Ctx.program(), DefaultBase, Ctx.FuncOrder);
    if (!Img)
      return Img.status();
    R.SP.Img = std::move(Img.get());
    R.SP.Opts = Ctx.options();
    recordFunctionOrder(R.SP, Ctx.program(), Ctx.FuncOrder);
    R.SP.ProfileBlockCount =
        static_cast<uint32_t>(Ctx.profile().BlockCounts.size());
    R.SP.Footprint.NeverCompressedWords =
        static_cast<uint32_t>(Ctx.program().instructionCount());
    R.SP.Footprint.OriginalCodeBytes = Ctx.OriginalCodeBytes;
    return Status::success();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

Pass &PassManager::addPass(std::unique_ptr<Pass> P) {
  Passes.push_back(std::move(P));
  return *Passes.back();
}

bool PassManager::hasPass(const std::string &Name) const {
  return std::any_of(Passes.begin(), Passes.end(),
                     [&](const auto &P) { return Name == P->name(); });
}

std::vector<std::string> PassManager::passNames() const {
  std::vector<std::string> Names;
  Names.reserve(Passes.size());
  for (const auto &P : Passes)
    Names.push_back(P->name());
  return Names;
}

Status PassManager::run(PipelineContext &Ctx) {
  return runPrefix(Ctx, Passes.size());
}

Status PassManager::runUntil(PipelineContext &Ctx,
                             const std::string &LastPass) {
  for (size_t I = 0; I != Passes.size(); ++I)
    if (LastPass == Passes[I]->name())
      return runPrefix(Ctx, I + 1);
  return Status::error(StatusCode::InvalidArgument,
                       "pipeline: no pass named '" + LastPass + "'");
}

Status PassManager::runPrefix(PipelineContext &Ctx, size_t End) {
  // Typos in DisabledPasses must fail loudly: a silently ignored name
  // would make an ablation config measure the wrong thing. Validated
  // against the whole pipeline, not the prefix, so a prefix run accepts a
  // disabled pass it never reaches.
  for (const std::string &Name : Ctx.options().DisabledPasses)
    if (!hasPass(Name))
      return Status::error(StatusCode::InvalidArgument,
                           "pipeline: DisabledPasses names unknown pass '" +
                               Name + "'");

  const auto Start = std::chrono::steady_clock::now();
  Status St = Status::success();
  for (size_t I = 0; I != End; ++I) {
    Pass &P = *Passes[I];
    const auto &Disabled = Ctx.options().DisabledPasses;
    bool IsDisabled =
        std::find(Disabled.begin(), Disabled.end(), P.name()) != Disabled.end();

    if (Pre && !(St = Pre(P, Ctx)).ok()) {
      St.context(std::string("pipeline: pre-hook at ") + P.name());
      break;
    }

    const auto T0 = std::chrono::steady_clock::now();
    {
      // One span per pass, emitted natively here (not through the Pre/Post
      // hooks, which belong to callers). The codec-select decision is the
      // one pass verdict worth span args: how many regions it planned and
      // how many got a non-Huffman coder — read immediately, because the
      // rewrite pass later moves the plan out of the context.
      vea::SpanScope Sp(P.name(), "pass");
      St = IsDisabled ? P.runDisabled(Ctx) : P.run(Ctx);
      if (Sp.active() && std::strcmp(P.name(), "codec-select") == 0) {
        uint64_t NonHuffman = 0;
        for (CodecKind K : Ctx.Plan.RegionCodec)
          NonHuffman += K != CodecKind::Huffman;
        Sp.setArgs(Ctx.Plan.RegionCodec.size(), NonHuffman);
      }
    }
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - T0)
                         .count();

    SquashResult &R = Ctx.result();
    R.PassTrace.push_back({P.name(), Seconds, IsDisabled, St.ok()});
    if (double SquashStats::*Slot = P.statSlot())
      R.Stats.*Slot += Seconds;

    if (!St.ok()) {
      St.context(std::string("pipeline: ") + P.name());
      break;
    }
    if (Post && !(St = Post(P, Ctx)).ok()) {
      St.context(std::string("pipeline: post-hook at ") + P.name());
      break;
    }
  }
  Ctx.result().Stats.TotalSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return St;
}

//===----------------------------------------------------------------------===//
// The standard pipeline
//===----------------------------------------------------------------------===//

void squash::buildStandardPipeline(PassManager &PM) {
  PM.addPass(std::make_unique<ColdCodePass>());
  PM.addPass(std::make_unique<UnswitchPass>());
  PM.addPass(std::make_unique<SetjmpIndirectFilterPass>());
  PM.addPass(std::make_unique<ComputedJumpFilterPass>());
  PM.addPass(std::make_unique<RegionsPass>());
  PM.addPass(std::make_unique<BufferSafePass>());
  PM.addPass(std::make_unique<LayoutPass>());
  PM.addPass(std::make_unique<CodecSelectPass>());
  PM.addPass(std::make_unique<RewritePass>());
}

std::vector<std::string> squash::standardPassNames() {
  PassManager PM;
  buildStandardPipeline(PM);
  return PM.passNames();
}

std::string squash::formatPassTrace(const std::vector<PassTraceEntry> &Trace) {
  std::string Out;
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%-24s %12s  %s\n", "pass", "seconds",
                "status");
  Out += Buf;
  for (const PassTraceEntry &E : Trace) {
    std::snprintf(Buf, sizeof(Buf), "%-24s %12.6f  %s\n", E.Name.c_str(),
                  E.Seconds,
                  !E.Ok ? "FAILED" : (E.Disabled ? "disabled" : "ok"));
    Out += Buf;
  }
  return Out;
}
