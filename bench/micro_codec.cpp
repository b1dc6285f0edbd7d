//===- bench/micro_codec.cpp - Codec microbenchmarks ----------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
// google-benchmark timings for the pieces on squash's runtime-critical
// path: canonical Huffman encode/decode, splitting-streams region
// encode/decode (bit-serial and table-driven), and the simulator's
// interpreter loop. Decode speed is reported in both currencies: host
// wall-clock ns/symbol (what the fast decoder improves) and the CostModel's
// simulated cycles/symbol (which is decoder-independent by design) — both
// land in BENCH_micro_codec.json.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "huff/FastDecoder.h"
#include "huff/StreamCodec.h"
#include "ir/Builder.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "squash/Options.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace squash;
using namespace vea;

namespace {

std::vector<std::pair<uint32_t, uint64_t>> skewedAlphabet(size_t N) {
  std::vector<std::pair<uint32_t, uint64_t>> Pairs;
  for (size_t I = 0; I != N; ++I)
    Pairs.push_back({static_cast<uint32_t>(I), 1 + 10000 / (I + 1)});
  return Pairs;
}

/// Compiled code reuses a handful of hot registers far more often than the
/// rest of the file; uniform-random operands would flatten exactly the skew
/// the profile-guided codes exploit. Three out of four picks come from a
/// four-register hot set, the rest from the full file.
uint32_t pickReg(Rng &R) {
  static constexpr uint32_t Hot[4] = {1, 2, 3, 29};
  return R.nextBelow(4) ? Hot[R.nextBelow(4)] : R.nextBelow(31);
}

std::vector<MInst> syntheticRegion(size_t Len, uint64_t Seed) {
  Rng R(Seed);
  std::vector<MInst> Region;
  for (size_t I = 0; I != Len; ++I) {
    switch (R.nextBelow(4)) {
    case 0:
      Region.push_back(makeRRR(Opcode::Add, pickReg(R), pickReg(R),
                               pickReg(R)));
      break;
    case 1:
      // Stack/struct accesses cluster at small word-aligned offsets.
      Region.push_back(makeMem(Opcode::Ldw, pickReg(R), 30,
                               static_cast<int32_t>(R.nextBelow(8)) * 4));
      break;
    case 2:
      // Immediates follow the classic profile shape: mostly tiny
      // constants with a thin uniform tail.
      Region.push_back(makeRRI(Opcode::Addi, pickReg(R), pickReg(R),
                               R.nextBelow(5) ? R.nextBelow(8) : R.nextBelow(256)));
      break;
    default:
      // Branch targets are dominated by short forward hops.
      Region.push_back(makeBranch(Opcode::Beq, pickReg(R),
                                  static_cast<int32_t>(R.nextBelow(8)) + 1));
      break;
    }
  }
  return Region;
}

/// Tags a decode bench with the CostModel's per-instruction charge so the
/// JSON rows carry the simulated currency next to the measured wall clock.
void tagSimCycles(benchmark::State &State) {
  State.counters["sim_cycles_per_symbol"] = benchmark::Counter(
      static_cast<double>(squash::CostModel().CyclesPerDecodedInstr));
}

} // namespace

static void BM_HuffmanEncode(benchmark::State &State) {
  CanonicalCode C = CanonicalCode::build(skewedAlphabet(256));
  Rng R(1);
  std::vector<uint32_t> Message(4096);
  for (auto &S : Message)
    S = static_cast<uint32_t>(R.nextBelow(256));
  for (auto _ : State) {
    BitWriter W;
    for (uint32_t S : Message)
      C.encode(S, W);
    benchmark::DoNotOptimize(W.byteSize());
  }
  State.SetItemsProcessed(State.iterations() * Message.size());
}
BENCHMARK(BM_HuffmanEncode);

static void BM_HuffmanDecode(benchmark::State &State) {
  CanonicalCode C = CanonicalCode::build(skewedAlphabet(256));
  Rng R(1);
  BitWriter W;
  const size_t N = 4096;
  for (size_t I = 0; I != N; ++I)
    C.encode(static_cast<uint32_t>(R.nextBelow(256)), W);
  std::vector<uint8_t> Blob = W.takeBytes();
  for (auto _ : State) {
    BitReader Rd(Blob);
    uint64_t Sum = 0;
    for (size_t I = 0; I != N; ++I)
      Sum += C.decode(Rd);
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_HuffmanDecode);

static void BM_RegionEncode(benchmark::State &State) {
  auto Region = syntheticRegion(static_cast<size_t>(State.range(0)), 7);
  StreamCodecs SC = StreamCodecs::build({Region});
  for (auto _ : State) {
    BitWriter W;
    SC.encodeRegion(Region, W).check();
    benchmark::DoNotOptimize(W.byteSize());
  }
  State.SetItemsProcessed(State.iterations() * Region.size());
}
BENCHMARK(BM_RegionEncode)->Arg(32)->Arg(128)->Arg(512);

static void BM_RegionDecode(benchmark::State &State) {
  auto Region = syntheticRegion(static_cast<size_t>(State.range(0)), 7);
  StreamCodecs SC = StreamCodecs::build({Region});
  BitWriter W;
  SC.encodeRegion(Region, W).check();
  std::vector<uint8_t> Blob = W.takeBytes();
  for (auto _ : State) {
    BitReader Rd(Blob);
    StreamCodecs::RegionDecoder Dec(SC, Rd);
    MInst I;
    uint64_t Count = 0;
    while (Dec.next(I))
      ++Count;
    benchmark::DoNotOptimize(Count);
  }
  State.SetItemsProcessed(State.iterations() * Region.size());
  tagSimCycles(State);
}
BENCHMARK(BM_RegionDecode)->Arg(32)->Arg(128)->Arg(512);

// The table-driven decoder over the same streams: range(0) is the region
// length, range(1) the probe-window width in bits. The simulated charge is
// identical to BM_RegionDecode's — only the host wall clock moves.
static void BM_FastRegionDecode(benchmark::State &State) {
  auto Region = syntheticRegion(static_cast<size_t>(State.range(0)), 7);
  StreamCodecs SC = StreamCodecs::build({Region});
  BitWriter W;
  SC.encodeRegion(Region, W).check();
  std::vector<uint8_t> Blob = W.takeBytes();
  auto Tables = SC.fastTables(static_cast<unsigned>(State.range(1)));
  // Same chunked consumption as the runtime's region fill loop.
  std::array<MInst, 64> Chunk;
  for (auto _ : State) {
    FastDecoder Dec(SC, Tables, Blob.data(), Blob.size(), 0);
    uint64_t Count = 0;
    while (size_t Got = Dec.decodeRun(Chunk.data(), Chunk.size()))
      Count += Got;
    benchmark::DoNotOptimize(Count);
  }
  State.SetItemsProcessed(State.iterations() * Region.size());
  tagSimCycles(State);
}
BENCHMARK(BM_FastRegionDecode)
    ->Args({32, 11})
    ->Args({128, 11})
    ->Args({512, 11})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({512, 14});

// One-time table construction cost at each supported window width (paid at
// image attach, then memoized per stream).
static void BM_FastTableBuild(benchmark::State &State) {
  auto Region = syntheticRegion(512, 7);
  StreamCodecs SC = StreamCodecs::build({Region});
  size_t Bytes = 0;
  for (auto _ : State) {
    auto Tables =
        FastTables::build(SC, static_cast<unsigned>(State.range(0)));
    Bytes = Tables->tableBytes();
    benchmark::DoNotOptimize(Tables);
  }
  State.counters["table_bytes"] =
      benchmark::Counter(static_cast<double>(Bytes));
}
BENCHMARK(BM_FastTableBuild)->Arg(4)->Arg(8)->Arg(11)->Arg(14);

static void BM_InterpreterLoop(benchmark::State &State) {
  ProgramBuilder PB("bench");
  {
    FunctionBuilder F = PB.beginFunction("main");
    F.li(1, 10000);
    F.li(2, 0);
    F.label("loop");
    F.add(2, 2, 1);
    F.xori(3, 2, 0x55);
    F.srli(4, 3, 3);
    F.subi(1, 1, 1);
    F.bne(1, "loop");
    F.li(16, 0);
    F.halt();
  }
  PB.setEntry("main");
  Image Img = layoutProgram(PB.build());
  for (auto _ : State) {
    Machine M(Img);
    RunResult R = M.run();
    benchmark::DoNotOptimize(R.Instructions);
  }
  State.SetItemsProcessed(State.iterations() * 50003);
}
BENCHMARK(BM_InterpreterLoop);

namespace {

/// Console reporter that additionally records one BenchRow per run so the
/// micro benches emit the same BENCH_*.json shape as the figure benches.
class JsonRowReporter : public benchmark::ConsoleReporter {
public:
  bool ReportContext(const Context &Ctx) override {
    return benchmark::ConsoleReporter::ReportContext(Ctx);
  }

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.error_occurred)
        continue;
      vea::MetricsRegistry Reg;
      Reg.setCounter("micro.iterations",
                     static_cast<uint64_t>(R.iterations));
      Reg.setGauge("micro.real_time_ns", R.GetAdjustedRealTime());
      Reg.setGauge("micro.cpu_time_ns", R.GetAdjustedCPUTime());
      auto It = R.counters.find("items_per_second");
      if (It != R.counters.end()) {
        Reg.setGauge("micro.items_per_second", It->second.value);
        if (It->second.value > 0)
          Reg.setGauge("micro.wall_ns_per_symbol", 1e9 / It->second.value);
      }
      auto Sim = R.counters.find("sim_cycles_per_symbol");
      if (Sim != R.counters.end())
        Reg.setGauge("micro.sim_cycles_per_symbol", Sim->second.value);
      auto Tb = R.counters.find("table_bytes");
      if (Tb != R.counters.end())
        Reg.setGauge("micro.table_bytes", Tb->second.value);
      Rows.emplace_back(R.benchmark_name(), Reg.toJson());
    }
    benchmark::ConsoleReporter::ReportRuns(Runs);
  }

  std::vector<bench::BenchRow> Rows;
};

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  JsonRowReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  std::string Path = bench::writeBenchJson("micro_codec", Reporter.Rows);
  std::printf("wrote %zu row(s) to %s\n", Reporter.Rows.size(),
              Path.c_str());
  return 0;
}
