//===- squash/Driver.h - The squash pipeline -------------------*- C++ -*-===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level squash entry points: a (compacted) program plus an
/// execution profile goes in; a runnable squashed image with full
/// footprint accounting comes out. Since the pass-manager refactor the
/// pipeline itself lives in squash/Pipeline.h as named passes over a
/// shared analysis context; squashProgram builds and runs the standard
/// pass list:
///
///   cold-code (Sec. 5) -> unswitch (Sec. 6.2, invalidates the CFG cache)
///   -> filter-setjmp-indirect (Sec. 2.2) -> filter-computed-jump
///   -> regions (Sec. 4) -> buffer-safe (Sec. 6.1)
///   -> layout (profile-guided function placement) -> codec-select
///   -> rewrite (Sec. 2)
///
/// then the caller attaches the decompressor runtime via runSquashed.
/// Tools that need a prefix, a skip, or per-pass hooks drive a
/// PassManager directly (squash_tool --stop-after, Options::DisabledPasses,
/// the fault-injection harness).
///
//===----------------------------------------------------------------------===//

#ifndef SQUASH_SQUASH_DRIVER_H
#define SQUASH_SQUASH_DRIVER_H

#include "squash/BufferSafe.h"
#include "squash/ColdCode.h"
#include "squash/Options.h"
#include "squash/Regions.h"
#include "squash/Rewriter.h"
#include "squash/Runtime.h"
#include "squash/Unswitch.h"

#include <memory>
#include <string>
#include <vector>

namespace squash {

/// Wall-clock accounting for the offline pipeline, one entry per stage in
/// execution order (consumed by bench/stat_decode_cache).
struct SquashStats {
  double ColdSeconds = 0.0;       ///< Cold-code identification.
  double UnswitchSeconds = 0.0;   ///< Jump-table unswitching + filters.
  double RegionSeconds = 0.0;     ///< Region formation + packing.
  double BufferSafeSeconds = 0.0; ///< Buffer-safety analysis.
  double CodecSelectSeconds = 0.0; ///< Per-region codec trial + selection.
  double LayoutSeconds = 0.0;     ///< Profile-guided function placement.
  double RewriteSeconds = 0.0;    ///< Lowering, layout, image emission
                                  ///< (includes EncodeSeconds).
  double EncodeSeconds = 0.0;     ///< Per-region compression only.
  double TotalSeconds = 0.0;

  /// Registers per-stage wall times (gauges, seconds) under \p Prefix
  /// (DESIGN.md §12).
  void exportMetrics(vea::MetricsRegistry &R,
                     const std::string &Prefix = "squash.time.") const;
};

/// One executed (or skipped) pass in the pipeline's trace: what ran, for
/// how long, and how it ended (see squash/Pipeline.h; render with
/// formatPassTrace).
struct PassTraceEntry {
  std::string Name;
  double Seconds = 0.0;
  bool Disabled = false; ///< Ran its runDisabled fallback instead.
  bool Ok = true;        ///< False when this pass aborted the pipeline.
};

/// Everything squashProgram produces: the runnable image plus the stats
/// every experiment in the paper reports.
struct SquashResult {
  SquashedProgram SP;
  ColdCodeResult Cold;
  RegionStats Regions;
  BufferSafeStats BufferSafe;
  UnswitchStats Unswitch;
  SquashStats Stats;
  /// Per-pass execution record, in run order (every pass appears, even on
  /// identity results — the pass manager records uniformly).
  std::vector<PassTraceEntry> PassTrace;
  /// True when no region was profitable: the "squashed" image is simply
  /// the original layout (no machinery added, footprint unchanged).
  bool Identity = false;
};

/// Runs the standard squash pass pipeline on \p Prog (typically
/// post-compaction) with profile \p Prof. \p Prog is taken by value
/// because unswitching rewrites it. Fails — instead of aborting — on a
/// malformed program, a profile that does not match it, or any downstream
/// layout/encoding error; callers that cannot continue use
/// Expected::take(). A thin wrapper over buildStandardPipeline +
/// PassManager::run (squash/Pipeline.h) for callers that want the whole
/// pipeline, hook-free.
vea::Expected<SquashResult> squashProgram(vea::Program Prog,
                                          const vea::Profile &Prof,
                                          const Options &Opts);

/// Result of executing a squashed program.
struct SquashedRun {
  vea::RunResult Run;
  RuntimeSystem::Stats Runtime;
  std::vector<uint8_t> Output; ///< Bytes the program wrote (PutChar).
  /// Runtime event trace, oldest first (empty unless runSquashed was given
  /// a nonzero TraceCapacity). Bounded: when the ring fills, the oldest
  /// events are overwritten and TraceDropped counts them.
  std::vector<RuntimeSystem::Event> Trace;
  uint64_t TraceDropped = 0;
};

/// Executes a squashed image on \p Input with the decompressor attached.
/// If the image fails its attach-time validation the result is a Fault
/// run carrying the validation message; nothing is executed. A nonzero
/// \p TraceCapacity enables runtime event tracing into a ring of that many
/// events (see RuntimeSystem::enableTrace). \p Observer, when non-null, is
/// called on every Decompress-entry trap during the run (squash/DriftMonitor
/// plugs in here).
SquashedRun runSquashed(const SquashedProgram &SP, std::vector<uint8_t> Input,
                        uint64_t MaxInstructions = 2'000'000'000ull,
                        uint32_t TraceCapacity = 0,
                        TrapObserver *Observer = nullptr);

/// Profiles \p Img (an original / compacted image) on \p Input. Fails with
/// RuntimeFault if the program does not halt cleanly.
vea::Expected<vea::Profile> profileImage(const vea::Image &Img,
                                         std::vector<uint8_t> Input);

} // namespace squash

#endif // SQUASH_SQUASH_DRIVER_H
