//===- squash/Pipeline.h - Pass manager for the squash pipeline -*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The squash pipeline as a declarative pass list over a shared analysis
/// context (DESIGN.md §14). Each stage of the paper's tool flow is a named
/// Pass; a PassManager owns the ordered list and uniformly provides
/// per-pass wall-clock timing (feeding SquashStats and the squash.time.*
/// metric names), per-pass hooks (fault injection, logging), a pass trace,
/// and prefix/skip execution (runUntil, Options::DisabledPasses) so tools
/// and ablation benches never re-implement stage subsets by hand.
///
/// The PipelineContext carries the evolving state between passes: the
/// Program (which Unswitch rewrites), the Profile, the Options, the
/// SquashResult under construction, the candidate-block flags, the region
/// partition, the buffer-safety flags — and a CFG cache with explicit
/// invalidation. Passes call cfg() instead of building their own
/// vea::Cfg; Unswitch invalidates after mutating the program and every
/// later pass reuses one shared rebuild.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_PIPELINE_H
#define SQUASH_SQUASH_PIPELINE_H

#include "squash/Driver.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace squash {

/// Mutable state threaded through the pass pipeline. Constructed over a
/// Program/Profile/Options/SquashResult that must outlive it; the
/// SquashResult accumulates everything callers consume (stats, pass trace,
/// the squashed program itself).
class PipelineContext {
public:
  PipelineContext(vea::Program &Prog, const vea::Profile &Prof,
                  const Options &Opts, SquashResult &Result);

  vea::Program &program() { return Prog; }
  const vea::Profile &profile() const { return Prof; }
  const Options &options() const { return Opts; }
  SquashResult &result() { return Result; }

  /// The CFG of the current program, built on first use and cached until
  /// invalidateCfg(). Passes that mutate the program (Unswitch) must
  /// invalidate; every other pass reuses the shared instance.
  const vea::Cfg &cfg();

  /// Per-function block-id lists derived from (and cached with) the CFG.
  /// Lets passes touch "every block of function F" in time proportional to
  /// the function instead of scanning the whole program.
  const std::vector<std::vector<unsigned>> &functionBlocks();

  /// Drops the cached CFG (and derived indexes). The next cfg() call
  /// rebuilds from the current program.
  void invalidateCfg();

  /// How many times the CFG has been (re)built — the cache-effectiveness
  /// observable the pipeline tests assert on (the standard pipeline builds
  /// exactly twice: once before Unswitch, once after).
  unsigned cfgBuilds() const { return CfgBuildCount; }

  /// Evolving candidate-block flags (one per CFG block id): seeded by the
  /// cold-code pass, narrowed by unswitching and the candidacy filters,
  /// consumed by region formation.
  std::vector<uint8_t> Candidate;

  /// Region partition produced by the regions pass.
  Partition Part;

  /// Per-function buffer-safety flags produced by the buffer-safe pass.
  std::vector<uint8_t> BufferSafeFuncs;

  /// Per-region coder choices produced by the codec-select pass and
  /// consumed (moved out) by the rewrite pass. Empty = all Huffman.
  CodecPlan Plan;

  /// Hot-half function placement produced by the layout pass (a
  /// permutation of function indices) and consumed by the codec-select
  /// and rewrite passes, which must lower the same placed corpus.
  /// Empty = identity order, the byte-stable default.
  std::vector<unsigned> FuncOrder;

  /// 4 * instruction count of the *input* program (before unswitching
  /// grows it), recorded into FootprintBreakdown::OriginalCodeBytes.
  uint32_t OriginalCodeBytes = 0;

private:
  vea::Program &Prog;
  const vea::Profile &Prof;
  const Options &Opts;
  SquashResult &Result;
  std::unique_ptr<vea::Cfg> CachedCfg;
  std::vector<std::vector<unsigned>> FuncBlocks;
  unsigned CfgBuildCount = 0;
};

/// One stage of the squash pipeline. Passes are stateless between runs;
/// everything they read and write lives in the PipelineContext.
class Pass {
public:
  virtual ~Pass() = default;

  /// Stable pass name (Options::DisabledPasses, --stop-after, the trace).
  virtual const char *name() const = 0;

  /// Executes the pass. Errors abort the pipeline.
  virtual vea::Status run(PipelineContext &Ctx) = 0;

  /// What the pass must still do when listed in Options::DisabledPasses so
  /// that downstream passes stay correct. Default: nothing. Passes whose
  /// work is load-bearing override this with their conservative fallback
  /// (e.g. Unswitch excludes candidate switch blocks instead of
  /// transforming them).
  virtual vea::Status runDisabled(PipelineContext &Ctx) {
    (void)Ctx;
    return vea::Status::success();
  }

  /// SquashStats member this pass's wall time accumulates into, or null if
  /// only the pass trace records it. The mapping preserves the historical
  /// squash.time.* metric names (the three candidacy passes all fold into
  /// unswitch_seconds, exactly what the monolithic driver measured).
  virtual double SquashStats::*statSlot() const { return nullptr; }
};

/// Owns an ordered pass list and runs it over a context. Timing, tracing,
/// stat accumulation, DisabledPasses handling, and hook invocation are
/// uniform across passes — individual passes carry none of that logic.
class PassManager {
public:
  /// Called around every executed pass (fault injection, logging). A
  /// non-Ok return aborts the pipeline with that status.
  using Hook = std::function<vea::Status(const Pass &, PipelineContext &)>;

  /// Appends \p P to the pipeline and returns it for further configuration.
  Pass &addPass(std::unique_ptr<Pass> P);

  size_t size() const { return Passes.size(); }
  const Pass &pass(size_t I) const { return *Passes[I]; }
  bool hasPass(const std::string &Name) const;
  /// Pass names in execution order.
  std::vector<std::string> passNames() const;

  /// Hooks run before / after each pass (skipped passes included, so a
  /// fault injector can target any pipeline point).
  void setPreHook(Hook H) { Pre = std::move(H); }
  void setPostHook(Hook H) { Post = std::move(H); }

  /// Runs every pass in order. Each pass is individually timed; its
  /// seconds are appended to SquashResult::PassTrace and accumulated into
  /// its SquashStats slot, and the loop's total lands in
  /// SquashStats::TotalSeconds. Passes named in Options::DisabledPasses
  /// execute their runDisabled fallback instead (traced as disabled); a
  /// DisabledPasses entry naming no registered pass is an InvalidArgument
  /// error, not a silent no-op.
  vea::Status run(PipelineContext &Ctx);

  /// Runs the prefix of the pipeline up to and including \p LastPass;
  /// fails with InvalidArgument if no pass has that name. The context and
  /// result are left in the valid intermediate state the prefix produced
  /// (squash_tool --stop-after).
  vea::Status runUntil(PipelineContext &Ctx, const std::string &LastPass);

private:
  vea::Status runPrefix(PipelineContext &Ctx, size_t End);

  std::vector<std::unique_ptr<Pass>> Passes;
  Hook Pre, Post;
};

/// Appends the standard squash pipeline to \p PM — the paper's tool flow,
/// one pass per stage plus the two candidacy filters the monolithic driver
/// used to inline:
///
///   cold-code, unswitch, filter-setjmp-indirect, filter-computed-jump,
///   regions, buffer-safe, layout, codec-select, rewrite
void buildStandardPipeline(PassManager &PM);

/// Names of the standard passes, in order (squash_tool --print-pipeline).
std::vector<std::string> standardPassNames();

/// Renders \p Trace as an aligned, log-able table (one pass per row with
/// its seconds and executed/disabled/failed status).
std::string formatPassTrace(const std::vector<PassTraceEntry> &Trace);

} // namespace squash

#endif // SQUASH_SQUASH_PIPELINE_H
