//===- squash/Options.h - squash configuration -----------------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration knobs for the squash pipeline. Defaults follow the paper:
/// cold-code threshold θ, runtime-buffer size bound K = 512 bytes, assumed
/// compression factor γ = 0.66 (Section 3 reports compressed size ≈ 66% of
/// the original), and the optimizations of Sections 4 and 6 enabled.
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_OPTIONS_H
#define SQUASH_SQUASH_OPTIONS_H

#include "sim/Icache.h"
#include "squash/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace squash {

struct Options {
  /// The paper's θ: cold code may account for at most this fraction of the
  /// dynamic instruction count (Section 5).
  double Theta = 0.0;

  /// Upper bound on the cold-code frequency cutoff N, regardless of how
  /// much θ budget remains (UINT64_MAX = unbounded, the paper's rule).
  /// Profile-feedback re-squashes pin this to the original squash's
  /// cutoff so that merging live heat into the profile can only flip
  /// blocks hot, never reclassify previously-hot blocks as cold (see
  /// ColdCode.h and DESIGN.md §13).
  uint64_t ColdCutoffCap = UINT64_MAX;

  /// The paper's K: upper bound, in bytes, on the runtime buffer used to
  /// guide region formation (Section 4; default 512, chosen empirically in
  /// Figure 3).
  uint32_t BufferBoundBytes = 512;

  /// Assumed fixed compression factor γ used by the region profitability
  /// test E < (1-γ)I (Section 4).
  double Gamma = 0.66;

  /// Enables the region-packing post-pass (Section 4).
  bool PackRegions = true;

  /// Uses whole program-specified functions as the unit of compression
  /// instead of Section 4's sub-function regions. This is the strawman the
  /// paper argues against: a function is compressible only if *all* its
  /// blocks are cold, and the runtime buffer must hold the largest
  /// compressed function. Provided for the ablation benchmark; the paper's
  /// region scheme is the default.
  bool WholeFunctionRegions = false;

  /// Enables the buffer-safe call optimization (Section 6.1).
  bool BufferSafeCalls = true;

  /// Enables unswitching of cold jump tables (Section 6.2); when false,
  /// switch blocks and their targets are simply excluded from compression.
  bool Unswitch = true;

  /// Region coder selection: "huffman" (the paper's splitting-streams
  /// coder, the default), "pattern" (dictionary of frequent instruction
  /// n-grams with a Huffman escape), or "auto" (the codec-select pass
  /// picks the better coder per region by modeled size x decode-cost). Any other name is an
  /// InvalidArgument error from the pipeline.
  std::string Codec = "huffman";

  /// If true, a decompression request for the region already in the buffer
  /// is satisfied without re-decoding. The paper's decompressor always
  /// re-decodes; this knob exists for the ablation benchmark.
  bool ReuseBufferedRegion = false;

  /// Decode regions with the table-driven multi-symbol decoder
  /// (huff/FastDecoder.h) instead of the bit-serial canonical walk. Output
  /// and corruption verdicts are identical either way (pinned by the
  /// fastdecode conformance suite); only host wall-clock time changes —
  /// simulated cycle charges are the same.
  bool FastDecode = true;

  /// Probe-window width for the fast decoder's lookup tables, in bits;
  /// clamped to FastTables' supported range [4, 14]. Wider windows resolve
  /// more fields per probe but cost 2^Bits table entries per stream.
  unsigned DecodeTableBits = 11;

  /// Decode-ahead: after each decompressor trap, predict the next region
  /// from the observed transition history and pre-decode it on a host
  /// worker thread, so the predicted trap's fill only pays the setup and
  /// icache-flush charges instead of the per-instruction decode charge.
  /// Pure host-side staging: the worker reads only the immutable compressed
  /// blob and writes nothing to guest memory, and every prefetched fill is
  /// re-validated (offset-table word and expanded-words CRC) before use, so
  /// prefetch on/off never changes program output or fault behaviour.
  bool DecodeAhead = false;

  /// Number of slots the runtime buffer area is carved into. Each slot is
  /// large enough for the largest region (jump slot + expanded words), so
  /// the simulated buffer footprint scales linearly with this. With more
  /// than one slot the runtime keeps a resident-region table and serves
  /// repeat entries from a resident slot without re-decoding (LRU
  /// eviction); 1 reproduces the paper's single shared buffer exactly.
  uint32_t CacheSlots = 1;

  /// When the decode cache is active (CacheSlots > 1, or
  /// ReuseBufferedRegion), rewrite a resident region's entry stubs to
  /// branch straight into its slot, skipping the Decompress trap entirely;
  /// the original bsr word is restored on eviction. Has no effect when the
  /// cache is inactive (the paper's protocol always traps).
  bool DirectResidentStubs = true;

  /// Capacity of the restore-stub area (the paper observed at most 9 live
  /// stubs even at θ = 0.01).
  uint32_t MaxRestoreStubs = 32;

  /// Size of the reserved decompressor code region, in words (the paper's
  /// decompressor is a small native routine; 256 words = 1 KB).
  uint32_t DecompressorCodeWords = 256;

  /// Verify the image and blob CRC32 checksums when the runtime attaches.
  /// Layout consistency (segment ordering, offset-table bounds) is always
  /// checked; this knob only controls the full-content scan.
  bool ChecksumAtAttach = true;

  /// Retain a host-side uncompressed copy of every region so that a region
  /// whose lazy integrity check fails at decompression time can be refilled
  /// from the copy instead of faulting (graceful degradation). Costs host
  /// memory only; the simulated footprint is unchanged.
  bool RetainRecoveryCopies = true;

  /// Profile-guided layout of the hot (never-compressed) half: the
  /// "layout" pass builds a call-adjacency graph over the profile and
  /// greedy-merges function chains (Pettis-Hansen / C3 style) so hot
  /// callers and callees land on adjacent I-cache lines. Off by default:
  /// the pass then emits the identity order and the image is byte-stable.
  /// Layout only moves whole functions, so guest behaviour is identical
  /// either way; with the simulated I-cache enabled the difference shows
  /// up as conflict-miss cycles.
  bool ProfileLayout = false;

  /// Simulated I-cache for squashed runs (sim/Icache.h). Disabled by
  /// default: fetches are then flat and region fills charge the
  /// CostModel::IcacheFlushCycles constant, bit-stable with every prior
  /// gate. Enabled, fetches go through the tag-only cache model, fills
  /// invalidate the written lines instead of paying the flat constant, and
  /// the ledger gains the IcacheMiss term.
  vea::IcacheConfig Icache;

  /// Pipeline passes to skip, by name (see squash/Pipeline.h for the
  /// standard list). A disabled pass executes its conservative fallback
  /// instead of its transformation — e.g. disabling "unswitch" excludes
  /// candidate switch blocks (same as Unswitch = false) and disabling
  /// "buffer-safe" marks every function unsafe — so ablation benches and
  /// tools toggle whole stages without bespoke per-stage option plumbing.
  /// A name matching no pass is an InvalidArgument error, not a no-op.
  std::vector<std::string> DisabledPasses;

  CostModel Costs;
};

} // namespace squash

#endif // SQUASH_SQUASH_OPTIONS_H
