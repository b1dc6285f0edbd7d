//===- squash/CostModel.h - Shared runtime cycle-cost model ----*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for every cycle constant the simulated
/// runtime charges and every formula the offline passes use to predict
/// those charges. The runtime trap path (RuntimeSystem::fillBuffer), the
/// codec-select objective, and the telemetry ledger all price work through
/// this header, so a constant edited here moves the whole system together
/// — and tests/costmodel_test.cpp fails if any of them re-derive a charge
/// that drifts from these formulas.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_COSTMODEL_H
#define SQUASH_SQUASH_COSTMODEL_H

#include "huff/Codec.h"

#include <cstdint>

namespace squash {

/// Cycle charges for the simulated runtime services (see DESIGN.md §6).
struct CostModel {
  uint64_t DecompSetupCycles = 64;    ///< Register save/restore + dispatch.
  uint64_t CyclesPerDecodedInstr = 24; ///< Canonical Huffman decode work.
  uint64_t IcacheFlushCycles = 32;    ///< Post-decompression flush.
  uint64_t CreateStubCycles = 16;     ///< Restore-stub create/reuse.
  /// Pattern-codec charge per instruction materialized from a dictionary
  /// pattern (a table copy, far cheaper than a canonical decode); escaped
  /// instructions pay CyclesPerDecodedInstr.
  uint64_t PatternCyclesPerCoveredInstr = 6;
};

/// Modeled cycle charge for decoding one region fill with codec \p Kind,
/// given the decode work the coder reported for the region. The same
/// formula prices a fill in the runtime (RuntimeSystem::fillBuffer) and a
/// candidate in the codec-select pass, so the selection objective and the
/// simulated cost can never drift apart.
inline uint64_t codecDecodeCycles(const CostModel &C, CodecKind Kind,
                                  const DecodeWork &W) {
  switch (Kind) {
  case CodecKind::Huffman:
    return C.CyclesPerDecodedInstr * W.Instructions;
  case CodecKind::Pattern:
    return C.PatternCyclesPerCoveredInstr * W.PatternCovered +
           C.CyclesPerDecodedInstr * W.Escapes;
  }
  return C.CyclesPerDecodedInstr * W.Instructions;
}

/// The three components a region fill charges, in the order the ledger
/// attributes them. Built by regionFillCharge so the runtime and any
/// offline predictor price a fill identically.
struct FillCharge {
  uint64_t Setup = 0;  ///< Trap setup (DecompSetupCycles).
  uint64_t Decode = 0; ///< Per-codec decode work (0 for a prefetched fill).
  uint64_t Flush = 0;  ///< Flat post-fill I-cache flush charge.

  uint64_t total() const { return Setup + Decode + Flush; }
};

/// Prices one region fill: trap setup, \p DecodeCycles of decode work, and
/// the flat I-cache flush constant. When \p ModeledIcache is true the
/// machine simulates the I-cache itself — the runtime invalidates the
/// written lines instead, the cost surfaces as fetch misses, and the flat
/// flush charge must be zero or the flush would be double-counted.
inline FillCharge regionFillCharge(const CostModel &C, uint64_t DecodeCycles,
                                   bool ModeledIcache) {
  FillCharge F;
  F.Setup = C.DecompSetupCycles;
  F.Decode = DecodeCycles;
  F.Flush = ModeledIcache ? 0 : C.IcacheFlushCycles;
  return F;
}

} // namespace squash

#endif // SQUASH_SQUASH_COSTMODEL_H
