//===- squash/CodecSelect.h - Per-region codec selection -------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec-select pass: one of the "other algorithms for compression"
/// the paper's future work contemplates, made concrete. The pipeline
/// carries two region coders (huff/Codec.h) — the paper's splitting-
/// streams Huffman coder and a pattern-dictionary coder — and this pass
/// picks one per region by trial-encoding the region with each and
/// minimizing the modeled objective
///
///   payload bits x decode cycles
///
/// (a region's whole cost: it must be both stored and re-expanded on every
/// buffer miss). Ties break toward the lowest CodecKind id, so selection
/// is deterministic. A final safety valve re-models the full blob under
/// the chosen plan — including each used codec's side tables and the
/// Huffman codes rebuilt over only their remaining regions — and keeps the
/// plan only if it is no worse than all-Huffman on bytes x cycles, so
/// "auto" can never regress the paper's baseline coder.
///
/// Options::Codec selects the mode: "huffman" (empty plan, byte-identical
/// legacy blob), "pattern" (force every region), or "auto".
/// Any other name is an InvalidArgument pipeline failure.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_CODECSELECT_H
#define SQUASH_SQUASH_CODECSELECT_H

#include "huff/Codec.h"
#include "squash/CostModel.h"
#include "squash/Options.h"
#include "squash/Pipeline.h"

#include <cstdint>

namespace squash {

// codecDecodeCycles — the shared fill-pricing formula this pass optimizes
// against — lives in squash/CostModel.h next to the constants it uses.

/// The "codec-select" pass (between layout and rewrite). Trial-encodes the
/// regions lowered under PipelineContext::FuncOrder — the corpus the
/// rewriter will store — and writes its verdict into
/// PipelineContext::Plan; RewritePass hands the plan, whose pattern tables
/// are the image's, to rewriteProgram. Disabled (Options::DisabledPasses)
/// or in "huffman" mode it leaves the plan empty, reproducing the legacy
/// blob exactly.
class CodecSelectPass final : public Pass {
public:
  const char *name() const override { return "codec-select"; }
  double SquashStats::*statSlot() const override {
    return &SquashStats::CodecSelectSeconds;
  }
  vea::Status run(PipelineContext &Ctx) override;
  vea::Status runDisabled(PipelineContext &Ctx) override;
};

} // namespace squash

#endif // SQUASH_SQUASH_CODECSELECT_H
