//===- squash/LayoutPass.h - Profile-guided function layout ----*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "layout" pass: profile-guided placement of the hot (never-
/// compressed) half of the program. The paper compresses cold code and
/// leaves the hot residue in program order; with the simulated I-cache
/// (sim/Icache.h) that order becomes a measurable cost, and this pass
/// spends the profile on it, following the function-layout line of
/// "Optimizing Function Layout for Mobile Applications" (PAPERS.md) and
/// the classic Pettis-Hansen / C3 greedy chain merge:
///
///   1. Build a function-level adjacency graph: an edge (F, G) weighted by
///      the execution count of every block of F that direct-calls G.
///   2. Merge function chains greedily by descending edge weight (caller's
///      chain followed by callee's chain), deterministic tie-breaks.
///   3. Concatenate chains by descending heat; functions the profile never
///      saw keep program order at the end.
///
/// Placement is whole-function only — blocks keep their in-function order
/// — so fallthrough edges never cross a placement seam and guest behaviour
/// is byte-identical under any order (the rewriter re-resolves every
/// displacement). The pass runs between buffer-safe and codec-select and
/// writes PipelineContext::FuncOrder. Codec-select lowers the regions under
/// that order, so the coders are trained once, on the placed corpus, and
/// RewritePass feeds the same order to the rewriter (or, for identity
/// images, straight to link/Layout's explicit-order overload). Gated by
/// Options::ProfileLayout (default off: emits the identity order, keeping
/// every existing image byte-stable).
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_LAYOUTPASS_H
#define SQUASH_SQUASH_LAYOUTPASS_H

#include "squash/Pipeline.h"

#include <vector>

namespace squash {

/// Computes the hot-half function placement for \p G under \p Prof: a
/// permutation of function indices (C3-style greedy chain merge over the
/// call-adjacency graph). Deterministic for a given CFG and profile.
/// Exposed separately from the pass so benches can lay out an *unsquashed*
/// program with the same policy (bench/stat_layout's squash-off arms).
std::vector<unsigned> computeFunctionLayout(const vea::Cfg &G,
                                            const vea::Profile &Prof);

/// The "layout" pass (between buffer-safe and codec-select).
class LayoutPass final : public Pass {
public:
  const char *name() const override { return "layout"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::LayoutSeconds;
  }
  vea::Status run(PipelineContext &Ctx) override;
  vea::Status runDisabled(PipelineContext &Ctx) override;
};

} // namespace squash

#endif // SQUASH_SQUASH_LAYOUTPASS_H
