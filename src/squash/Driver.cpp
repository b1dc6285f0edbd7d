//===- squash/Driver.cpp - The squash pipeline ----------------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "squash/Driver.h"

#include "squash/Pipeline.h"
#include "support/Span.h"

using namespace squash;
using namespace vea;

Expected<SquashResult> squash::squashProgram(Program Prog, const Profile &Prof,
                                             const Options &Opts) {
  SpanScope Root("squash.program", "pipeline");
  // The pipeline's passes assume a well-formed program (the Cfg builder
  // aborts on dangling labels); reject bad input here, recoverably.
  if (std::string Err = Prog.verify(); !Err.empty())
    return Status::error(StatusCode::MalformedProgram,
                         "squash: input does not verify: " + Err);

  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  if (Status St = PM.run(Ctx); !St.ok())
    return St;
  Root.setArgs(R.SP.Regions.size(), R.SP.Img.Bytes.size());
  return R;
}

SquashedRun squash::runSquashed(const SquashedProgram &SP,
                                std::vector<uint8_t> Input,
                                uint64_t MaxInstructions,
                                uint32_t TraceCapacity,
                                TrapObserver *Observer) {
  SpanScope Root("run.squashed", "driver");
  Machine::Config Cfg;
  Cfg.MaxInstructions = MaxInstructions;
  Cfg.Icache = SP.Opts.Icache;
  Machine M(SP.Img, Cfg);
  RuntimeSystem RT(SP);
  if (TraceCapacity)
    RT.enableTrace(TraceCapacity);
  RT.setTrapObserver(Observer);
  SquashedRun Out;
  {
    SpanScope Attach("runtime.attach", "driver");
    if (Status St = RT.attach(M); !St.ok()) {
      Out.Run.Status = RunStatus::Fault;
      Out.Run.FaultMessage = St.toString();
      Out.Runtime = RT.stats();
      return Out;
    }
  }
  M.setInput(std::move(Input));
  {
    SpanScope Exec("machine.run", "driver");
    Out.Run = M.run();
    Exec.setEndCycles(Out.Run.Cycles);
    Exec.setArgs(Out.Run.Instructions, Out.Run.Cycles);
  }
  Root.setEndCycles(Out.Run.Cycles);
  Out.Runtime = RT.stats();
  Out.Output = M.output();
  if (TraceCapacity) {
    Out.Trace = RT.events();
    Out.TraceDropped = RT.droppedEvents();
  }
  return Out;
}

void SquashStats::exportMetrics(vea::MetricsRegistry &R,
                                const std::string &Prefix) const {
  R.setGauge(Prefix + "cold_seconds", ColdSeconds);
  R.setGauge(Prefix + "unswitch_seconds", UnswitchSeconds);
  R.setGauge(Prefix + "region_seconds", RegionSeconds);
  R.setGauge(Prefix + "buffersafe_seconds", BufferSafeSeconds);
  R.setGauge(Prefix + "codec_select_seconds", CodecSelectSeconds);
  R.setGauge(Prefix + "layout_seconds", LayoutSeconds);
  R.setGauge(Prefix + "rewrite_seconds", RewriteSeconds);
  R.setGauge(Prefix + "encode_seconds", EncodeSeconds);
  R.setGauge(Prefix + "total_seconds", TotalSeconds);
}

Expected<Profile> squash::profileImage(const Image &Img,
                                       std::vector<uint8_t> Input) {
  Machine::Config Cfg;
  Cfg.CollectBlockProfile = true;
  Machine M(Img, Cfg);
  M.setInput(std::move(Input));
  RunResult RR = M.run();
  if (RR.Status != RunStatus::Halted)
    return Status::error(StatusCode::RuntimeFault,
                         "profileImage: program did not halt cleanly: " +
                             RR.FaultMessage);
  return M.takeProfile();
}
