//===- bench/serving_acceptance.cpp - Serving-stack acceptance bench ------===//
//
// One self-verifying bench for the serving claims built on the paper's
// selection: warm plan-cache start, compile-once, dynamic batching, the
// batch-bucket ladder and the multi-model fleet. Six sections run in
// order over shared fixtures -- serving-mode engines and artifacts,
// sequential-Executor references, a sequential-capacity probe, and one
// open-loop serve point that checks every response bit for bit -- and add
// named checks to one list that decides the exit code:
//
//   plan_cache  googlenet at scale 1.0: a plan-cache hit from a fresh
//               engine (a fresh serving process) acquires the plan >= 10x
//               faster than the cold solve.
//   arena       googlenet: the planned arena's peak intermediate bytes are
//               strictly below per-layer allocation, and arena and
//               parallel-branch outputs equal the plain executor's.
//   compiled    resnet18, mobilenet, googlenet in serving mode: every plan
//               selects transform-bearing primitives, the compiled steady
//               state beats per-request instantiation, outputs identical.
//   open_loop   mobilenet, Poisson arrivals at 0.5-4x sequential capacity
//               through the dynamic batcher: every response identical, and
//               max-batch 4 out-sustains batch 1 at saturation.
//   ladder      the same traffic through the batch-bucket ladder: outputs
//               identical at every bucket x batch x width grid point and
//               serving point, no request-path solve after warmup, and
//               >= 1.3x the batch-1 slot path at saturation.
//   fleet       three models under one memory budget with eviction churn,
//               hot-swaps and a burst: outputs identical, budget held, no
//               re-solve, every request Ok exactly once.
//
// The saturation-throughput checks need real cores and report SKIP on
// hosts with fewer than 4 hardware threads. A broken precondition (a
// failed selection or compile, a plan-cache miss) exits 1 at once with a
// FAIL: line. Results land in BENCH_serving.json: one record per section
// and model, then every check with its verdict.
//
// Environment knobs are the shared bench ones (bench/BenchCommon.h).
// Plan-cache files land under PRIMSEL_CACHE/primsel-plan-cache-serving,
// wiped at start so the cold solve is honest.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "batch/Minibatch.h"
#include "engine/CompiledNet.h"
#include "engine/Engine.h"
#include "serve/Fleet.h"
#include "serve/OpenLoop.h"
#include "serve/Server.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace primsel;
using namespace primsel::bench;

namespace {

__attribute__((format(printf, 1, 2))) std::string strf(const char *Fmt,
                                                       ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

[[noreturn]] void fatal(const std::string &What) {
  std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  std::exit(1);
}

constexpr double MiB = 1024.0 * 1024.0;

/// What the bench reports: one JSON record per section and model, and
/// the named checks whose verdicts decide the exit code.
struct Report {
  unsigned HwThreads = 1;
  std::vector<JsonObject> Records;
  std::vector<JsonObject> Checks;
  unsigned Failed = 0;
  unsigned Skipped = 0;

  void check(const std::string &Name, bool Ok, const std::string &Detail) {
    add(Name, Ok ? "pass" : "fail", Detail);
    Failed += !Ok;
  }
  /// A saturation-throughput check: it needs cores to spread batches
  /// over, so narrower hosts report SKIP.
  void throughputCheck(const std::string &Name, bool Ok,
                       const std::string &Detail) {
    if (HwThreads >= 4) {
      check(Name, Ok, Detail);
      return;
    }
    add(Name, "skip",
        strf("host has %u hardware threads (< 4); measured: %s", HwThreads,
             Detail.c_str()));
    ++Skipped;
  }

private:
  void add(const std::string &Name, const char *Verdict,
           const std::string &Detail) {
    std::string Label(Verdict);
    for (char &C : Label)
      C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
    std::printf("%s %s: %s\n", Label.c_str(), Name.c_str(), Detail.c_str());
    std::fflush(stdout);
    Checks.push_back(JsonObject()
                         .set("name", Name)
                         .set("verdict", Verdict)
                         .set("detail", Detail));
  }
};

JsonObject record(const char *Section, const std::string &Model) {
  return JsonObject().set("section", Section).set("model", Model);
}

/// Serving-mode selection: weight-side transforms amortized out of the
/// per-inference costs, as every serving deployment compiles once.
EngineOptions servingOptions() {
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  return EOpts;
}

/// One model selected in serving mode and compiled once.
struct ServingModel {
  ServingModel(const PrimitiveLibrary &Lib, const std::string &Name,
               NetworkGraph Network)
      : Prov(Lib, MachineProfile::haswell(), 1),
        Eng(Lib, Prov, servingOptions()), Net(std::move(Network)),
        R(Eng.optimize(Net)) {
    if (R.Plan.empty())
      fatal("selection failed on " + Name);
    CN = Eng.compile(Net, R);
    if (!CN)
      fatal("compile failed on " + Name);
  }

  const NetworkGraph &execGraph() const { return R.executionGraph(Net); }

  AnalyticCostProvider Prov;
  Engine Eng;
  NetworkGraph Net;
  SelectionResult R;
  std::shared_ptr<const CompiledNet> CN;
};

/// Request inputs (seeds FirstSeed, FirstSeed + 1, ...) and the sequential
/// Executor's output for each: the oracle every serving configuration
/// must match bit for bit.
struct ReferenceSet {
  std::vector<Tensor3D> Inputs;
  std::vector<Tensor3D> Outputs;
  double MaxRunMs = 0.0; ///< slowest sequential forward pass
};

ReferenceSet sequentialReferences(const NetworkGraph &Net,
                                  const NetworkPlan &Plan,
                                  const PrimitiveLibrary &Lib, unsigned Count,
                                  uint64_t FirstSeed) {
  ReferenceSet Refs;
  const TensorShape &Sh = Net.node(0).OutShape;
  Executor Seq(Net, Plan, Lib);
  for (unsigned I = 0; I < Count; ++I) {
    Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
    In.fillRandom(FirstSeed + I);
    Timer RunTimer;
    Seq.run(In);
    Refs.MaxRunMs = std::max(Refs.MaxRunMs, RunTimer.millis());
    Refs.Outputs.push_back(Seq.networkOutput().clone());
    Refs.Inputs.push_back(std::move(In));
  }
  return Refs;
}

/// Mean sequential latency of \p CN on one default context: the capacity
/// anchor of the open-loop arrival rates.
double sequentialMs(const CompiledNet &CN, const std::vector<Tensor3D> &Inputs,
                    unsigned Iters) {
  std::unique_ptr<ExecutionContext> Ctx = CN.newContext({});
  Ctx->run(Inputs[0]); // warm-up
  Timer T;
  for (unsigned I = 0; I < Iters; ++I)
    Ctx->run(Inputs[I % Inputs.size()]);
  return T.millis() / Iters;
}

/// One open-loop serving point; every Ok output is checked against the
/// references.
struct ServePoint {
  double RatePerSec = 0.0;
  unsigned MaxBatch = 0;
  unsigned Workers = 0;
  serve::OpenLoopResult Res;
  LatencySummary Lat;
  double MeanBatch = 0.0;
  uint64_t BatchedBatches = 0;
  uint64_t FallbackBatches = 0;
  bool BitIdentical = true;

  JsonObject json() const {
    return JsonObject()
        .set("rate_per_sec", RatePerSec)
        .set("max_batch", MaxBatch)
        .set("workers", Workers)
        .set("offered_per_sec", Res.OfferedPerSec)
        .set("sustained_per_sec", Res.SustainedPerSec)
        .set("completed", Res.Completed)
        .set("rejected", Res.Rejected)
        .set("p50_ms", Lat.P50)
        .set("p95_ms", Lat.P95)
        .set("p99_ms", Lat.P99)
        .set("p999_ms", Lat.P999)
        .set("mean_batch", MeanBatch)
        .set("batched_batches", BatchedBatches)
        .set("fallback_batches", FallbackBatches)
        .set("bit_identical", BitIdentical);
  }
};

constexpr unsigned PointRequests = 120;

ServePoint servePoint(std::shared_ptr<const CompiledNet> CN,
                      std::shared_ptr<CompiledNetLadder> Ladder,
                      const ReferenceSet &Refs, double RatePerSec,
                      unsigned MaxBatch, unsigned Workers) {
  serve::ServerOptions SOpts;
  SOpts.Batch.MaxBatch = MaxBatch;
  SOpts.Batch.MaxDelayNs = 2000 * serve::nsPerUs;
  SOpts.Batch.MaxQueue = 512; // generous: measure throughput, not drops
  SOpts.Workers = Workers;
  SOpts.Ladder = std::move(Ladder);

  serve::OpenLoopOptions LOpts;
  LOpts.RatePerSec = RatePerSec;
  LOpts.Requests = PointRequests;
  LOpts.Seed = 7;

  ServePoint P;
  P.RatePerSec = RatePerSec;
  P.MaxBatch = MaxBatch;
  P.Workers = Workers;
  std::vector<unsigned> InputIndex;
  std::vector<serve::ServeResponse> Responses;
  {
    serve::Server Srv(std::move(CN), SOpts);
    P.Res =
        serve::runOpenLoop(Srv, Refs.Inputs, LOpts, &InputIndex, &Responses);
    Srv.shutdown();
    serve::BatcherStats BS = Srv.batcherStats();
    P.MeanBatch = BS.Batches ? static_cast<double>(BS.BatchedRequests) /
                                   static_cast<double>(BS.Batches)
                             : 0.0;
    serve::ServerStats SS = Srv.stats();
    P.BatchedBatches = SS.BatchedBatches;
    P.FallbackBatches = SS.FallbackBatches;
  }
  for (size_t I = 0; I < Responses.size(); ++I)
    if (Responses[I].ok() &&
        maxAbsDifference(Responses[I].Output,
                         Refs.Outputs[InputIndex[I]]) != 0.0f)
      P.BitIdentical = false;
  P.Lat = summarizeLatencies(P.Res.LatenciesMs);
  return P;
}

//===----------------------------------------------------------------------===//
// plan_cache: cold solve vs warm plan-cache hit.
//===----------------------------------------------------------------------===//

void planCacheSection(const BenchConfig &Config, const PrimitiveLibrary &Lib,
                      Report &Rep) {
  std::string CacheDir = Config.CacheDir + "/primsel-plan-cache-serving";
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);

  // Measured on the full-scale network: production serves full-size
  // inputs, and this is the problem size the §5.4 overhead story is about.
  NetworkGraph FullNet = googLeNet(1.0);
  EngineOptions EOpts;
  EOpts.PlanCacheDir = CacheDir;
  double ColdMillis, MemoryWarmMillis, DiskWarmMillis = 0.0;
  SelectionResult FullCold;
  {
    AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
    Engine Eng(Lib, Prov, EOpts);
    Timer T;
    FullCold = Eng.optimize(FullNet);
    ColdMillis = T.millis();
    Timer T2;
    SelectionResult Warm = Eng.optimize(FullNet);
    MemoryWarmMillis = T2.millis();
    if (!Warm.PlanCacheHit)
      fatal("second optimize was not a cache hit");
  }
  for (int Round = 0; Round < 3; ++Round) {
    // A fresh engine over the populated directory stands in for a fresh
    // serving process: the cost provider is also brand new, so the only
    // thing saving it from re-solving is the on-disk plan. Best of three
    // keeps one slow filesystem access from dominating the measurement.
    AnalyticCostProvider FreshProv(Lib, MachineProfile::haswell(), 1);
    Engine Eng(Lib, FreshProv, EOpts);
    Timer T;
    SelectionResult Warm = Eng.optimize(FullNet);
    double Millis = T.millis();
    DiskWarmMillis = Round == 0 ? Millis : std::min(DiskWarmMillis, Millis);
    if (!Warm.PlanCacheHit)
      fatal("fresh-engine optimize missed the disk cache");
    bool SamePlan = Warm.ModelledCostMs == FullCold.ModelledCostMs &&
                    Warm.Plan.OutLayout == FullCold.Plan.OutLayout &&
                    Warm.Plan.Chains == FullCold.Plan.Chains;
    for (NetworkGraph::NodeId N : FullNet.convNodes())
      SamePlan &= Warm.Plan.ConvPrim[N] == FullCold.Plan.ConvPrim[N];
    if (!SamePlan)
      fatal("cached plan differs from the solved plan");
  }
  double Ratio = ColdMillis / std::max(1e-9, DiskWarmMillis);
  std::printf("plan latency (googlenet, scale 1.0): cold %.2f ms, "
              "warm-in-process %.3f ms, warm-from-disk %.3f ms (cold/disk = "
              "%.0fx)\n",
              ColdMillis, MemoryWarmMillis, DiskWarmMillis, Ratio);
  Rep.Records.push_back(record("plan_cache", "googlenet")
                            .set("scale", 1.0)
                            .set("cold_ms", ColdMillis)
                            .set("warm_in_process_ms", MemoryWarmMillis)
                            .set("warm_from_disk_ms", DiskWarmMillis)
                            .set("cold_over_disk", Ratio));
  Rep.check("plan_cache.warm_start", Ratio >= 10.0,
            strf("warm-start >= 10x cold (%.0fx)", Ratio));
}

//===----------------------------------------------------------------------===//
// arena: per-layer baseline vs planned arena vs parallel branches.
//===----------------------------------------------------------------------===//

void arenaSection(const BenchConfig &Config, const PrimitiveLibrary &Lib,
                  Report &Rep) {
  NetworkGraph Net = googLeNet(Config.Scale);
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  Engine Eng(Lib, Prov);
  SelectionResult Cold = Eng.optimize(Net);
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(17);

  ExecutorOptions Plain;
  ExecutorOptions Packed;
  Packed.UseArena = true;
  ExecutorOptions Branches;
  Branches.UseArena = true;
  Branches.Threads = 4;
  Branches.ParallelBranches = true;

  Executor Base(Net, Cold.Plan, Lib, Plain);
  Executor Arena(Net, Cold.Plan, Lib, Packed);
  Executor Par(Net, Cold.Plan, Lib, Branches);

  auto TimeRuns = [&](Executor &E) {
    E.run(Input); // warm-up (first touch of the arena pages)
    Timer T;
    for (unsigned I = 0; I < Config.Iters; ++I)
      E.run(Input);
    return T.millis() / Config.Iters;
  };
  double BaseMs = TimeRuns(Base);
  double ArenaMs = TimeRuns(Arena);
  double ParMs = TimeRuns(Par);

  float ArenaDiff = maxAbsDifference(Base.networkOutput(),
                                     Arena.networkOutput());
  float ParDiff = maxAbsDifference(Base.networkOutput(), Par.networkOutput());
  size_t BaseBytes = Base.peakIntermediateBytes();
  size_t ArenaBytes = Arena.peakIntermediateBytes();

  std::printf("memory (googlenet, scale %.2f): baseline %.2f MiB, arena "
              "%.2f MiB (%.1f%% of baseline, %u packed values, %zu levels)\n",
              Config.Scale, BaseBytes / MiB, ArenaBytes / MiB,
              100.0 * ArenaBytes / BaseBytes,
              Arena.compiled().memoryPlan().NumArenaValues,
              Arena.compiled().memoryPlan().Levels.size());
  std::printf("steady state (mean of %u): per-layer %.2f ms (%.1f inf/s), "
              "arena %.2f ms (%.1f inf/s), arena+branches(4t) %.2f ms "
              "(%.1f inf/s)\n",
              Config.Iters, BaseMs, 1000.0 / BaseMs, ArenaMs,
              1000.0 / ArenaMs, ParMs, 1000.0 / ParMs);
  std::printf("output difference: arena %g, parallel %g\n",
              static_cast<double>(ArenaDiff), static_cast<double>(ParDiff));
  Rep.Records.push_back(record("arena", "googlenet")
                            .set("baseline_mib", BaseBytes / MiB)
                            .set("arena_mib", ArenaBytes / MiB)
                            .set("per_layer_ms", BaseMs)
                            .set("arena_ms", ArenaMs)
                            .set("arena_branches_ms", ParMs)
                            .set("arena_max_diff", ArenaDiff)
                            .set("parallel_max_diff", ParDiff));
  Rep.check("arena.peak_below_baseline", ArenaBytes < BaseBytes,
            "arena peak strictly below per-layer baseline");
  Rep.check("arena.outputs_identical", ArenaDiff == 0.0f && ParDiff == 0.0f,
            "outputs identical across executor configurations");
}

//===----------------------------------------------------------------------===//
// compiled: compile once vs instantiate per request.
//===----------------------------------------------------------------------===//

/// True for families whose instantiation performs a real weight-side
/// transform the compiled path hoists.
bool isTransformFamily(ConvFamily F) {
  switch (F) {
  case ConvFamily::Winograd:
  case ConvFamily::FFT:
  case ConvFamily::Im2:
  case ConvFamily::Kn2:
  case ConvFamily::Sparse:
  case ConvFamily::Quantized:
    return true;
  default:
    return false;
  }
}

void compiledSection(const BenchConfig &Config, const PrimitiveLibrary &Lib,
                     Report &Rep) {
  const std::pair<const char *, NetworkGraph (*)(double)> Models[] = {
      {"resnet18", resNet18},
      {"mobilenet", mobileNet},
      {"googlenet", googLeNet},
  };
  bool AllHaveLever = true, AllFaster = true, AllIdentical = true;
  for (const auto &[Name, Build] : Models) {
    ServingModel M(Lib, Name, Build(Config.Scale));
    const NetworkGraph &ExecNet = M.execGraph();
    unsigned TransformPrims = 0;
    for (NetworkGraph::NodeId N : ExecNet.convNodes())
      TransformPrims +=
          isTransformFamily(Lib.get(M.R.Plan.ConvPrim[N]).family());

    const TensorShape &Sh = ExecNet.node(0).OutShape;
    Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
    Input.fillRandom(19);

    // Cold path: every request pays instantiation (weight generation,
    // packing, kernel transforms) before its forward pass.
    Timer ColdTimer;
    Tensor3D ColdOut;
    for (unsigned I = 0; I < Config.Iters; ++I) {
      Executor Exec(ExecNet, M.R.Plan, Lib);
      Exec.run(Input);
      if (I + 1 == Config.Iters)
        ColdOut = Exec.networkOutput().clone();
    }
    double ColdMs = ColdTimer.millis() / Config.Iters;

    // Compiled path: prepared once, then steady state on one context.
    ExecutionContextOptions CtxOpts;
    CtxOpts.UseArena = true;
    std::unique_ptr<ExecutionContext> Ctx = M.CN->newContext(CtxOpts);
    Ctx->run(Input); // warm-up (first touch of the arena pages)
    std::vector<double> Latencies;
    Timer SteadyTimer;
    for (unsigned I = 0; I < Config.Iters; ++I)
      Latencies.push_back(Ctx->run(Input).TotalMillis);
    double CompiledMs = SteadyTimer.millis() / Config.Iters;
    LatencySummary Steady = summarizeLatencies(Latencies);
    bool Identical = maxAbsDifference(Ctx->networkOutput(), ColdOut) == 0.0f;
    double PreparedMiB = static_cast<double>(M.CN->preparedBytes()) / MiB;
    double Speedup = ColdMs / CompiledMs;

    AllHaveLever &= TransformPrims > 0;
    AllFaster &= CompiledMs < ColdMs;
    AllIdentical &= Identical;
    std::printf("%-10s cold %8.2f ms/req, compiled %8.2f ms/req (%.2fx), "
                "prepare %7.2f ms hoisted, %u transform prims, %.1f MiB "
                "prepared, outputs %s\n",
                Name, ColdMs, CompiledMs, Speedup, M.CN->prepareMillis(),
                TransformPrims, PreparedMiB,
                Identical ? "identical" : "DIFFER");
    std::printf("%-10s steady-state latency: p50 %.2f ms, p95 %.2f ms, "
                "p99 %.2f ms (worst %.2f ms)\n",
                Name, Steady.P50, Steady.P95, Steady.P99, Steady.Max);
    Rep.Records.push_back(
        record("compiled", Name)
            .set("cold_ms_per_request", ColdMs)
            .set("compiled_steady_ms_per_request", CompiledMs)
            .set("speedup", Speedup)
            .set("prepare_ms", M.CN->prepareMillis())
            .set("prepared_mib", PreparedMiB)
            .set("transform_primitives", TransformPrims)
            .set("compiled_inferences_per_sec", 1000.0 / CompiledMs)
            .set("p50_ms", Steady.P50)
            .set("p95_ms", Steady.P95)
            .set("p99_ms", Steady.P99)
            .set("bit_identical", Identical));
  }
  Rep.check("compiled.transform_lever", AllHaveLever,
            "every model's serving plan selects transform-bearing "
            "primitives");
  Rep.check("compiled.beats_cold", AllFaster,
            "compiled steady state strictly faster than per-request "
            "instantiation on every model");
  Rep.check("compiled.bit_identical", AllIdentical,
            "compiled outputs bit-identical to the cold executor");
}

//===----------------------------------------------------------------------===//
// open_loop and ladder: one mobilenet traffic fixture, two sections.
//===----------------------------------------------------------------------===//

/// Mobilenet under Poisson traffic. The ladder's anchor (its batch-1
/// bucket) serves both sections: it is the plan the full library selects,
/// because batch-1 scenarios never match the minibatch wrappers.
struct PoissonTraffic {
  std::shared_ptr<CompiledNetLadder> Ladder;
  std::shared_ptr<const CompiledNet> Anchor;
  ReferenceSet Refs;
  double SeqMs = 0.0;
  double CapacityPerSec = 0.0;
  /// Per-slot points at 4x capacity, shared by both sections.
  ServePoint Batch1, Batch4;
};

/// Fail unless \p T's anchor runs the plan \p FullLib selects: the same
/// primitive per node, and the same output on every reference input.
void checkAnchorIsFullLibraryPlan(const PoissonTraffic &T,
                                  const PrimitiveLibrary &BatchedLib,
                                  const PrimitiveLibrary &FullLib) {
  const NetworkGraph &Net = T.Anchor->graph();
  AnalyticCostProvider Prov(FullLib, MachineProfile::haswell(), 1);
  Engine Eng(FullLib, Prov, servingOptions());
  NetworkPlan Full = Eng.optimize(Net).Plan;
  if (Full.empty())
    fatal("selection failed on mobilenet");
  const NetworkPlan &A = T.Anchor->plan();
  bool Same = A.InLayout == Full.InLayout && A.OutLayout == Full.OutLayout;
  for (NetworkGraph::NodeId N : Net.convNodes())
    Same &= BatchedLib.get(A.ConvPrim[N]).name() ==
            FullLib.get(Full.ConvPrim[N]).name();
  Executor Seq(Net, Full, FullLib);
  for (size_t I = 0; I < T.Refs.Inputs.size(); ++I) {
    Seq.run(T.Refs.Inputs[I]);
    Same &= maxAbsDifference(Seq.networkOutput(), T.Refs.Outputs[I]) == 0.0f;
  }
  if (!Same)
    fatal("the ladder anchor's plan is not the full library's");
}

void openLoopSection(PoissonTraffic &T, Report &Rep) {
  const double Multipliers[] = {0.5, 1.0, 2.0, 4.0};
  std::vector<JsonObject> Sweep;
  bool AllIdentical = true;
  for (double M : Multipliers) {
    ServePoint P = servePoint(T.Anchor, nullptr, T.Refs, M * T.CapacityPerSec,
                              /*MaxBatch=*/4, /*Workers=*/1);
    AllIdentical &= P.BitIdentical;
    std::printf("rate %7.1f req/s (%.1fx cap): sustained %7.1f req/s, p50 "
                "%7.2f ms, p95 %7.2f ms, p99 %7.2f ms, mean batch %.2f, "
                "%u/%u ok, outputs %s\n",
                P.RatePerSec, M, P.Res.SustainedPerSec, P.Lat.P50, P.Lat.P95,
                P.Lat.P99, P.MeanBatch, P.Res.Completed, P.Res.Offered,
                P.BitIdentical ? "identical" : "DIFFER");
    Sweep.push_back(P.json());
  }

  // Saturation: max-batch 4 vs batch-size 1 on the same saturating load.
  double SatRate = 4.0 * T.CapacityPerSec;
  T.Batch1 = servePoint(T.Anchor, nullptr, T.Refs, SatRate, 1, 1);
  T.Batch4 = servePoint(T.Anchor, nullptr, T.Refs, SatRate, 4, 1);
  AllIdentical &= T.Batch1.BitIdentical && T.Batch4.BitIdentical;
  double B1 = T.Batch1.Res.SustainedPerSec, B4 = T.Batch4.Res.SustainedPerSec;
  double Speedup = B1 > 0.0 ? B4 / B1 : 0.0;
  std::printf("saturation (%.1f req/s offered): batch-1 %7.1f req/s, "
              "batch-4 %7.1f req/s (%.2fx)\n",
              SatRate, B1, B4, Speedup);

  Rep.Records.push_back(record("open_loop", "mobilenet")
                            .set("requests_per_point", PointRequests)
                            .set("sequential_ms_per_request", T.SeqMs)
                            .set("sweep", Sweep)
                            .set("saturation",
                                 JsonObject()
                                     .set("offered_per_sec", SatRate)
                                     .set("batch1_sustained_per_sec", B1)
                                     .set("batch4_sustained_per_sec", B4)
                                     .set("speedup", Speedup)));
  Rep.check("open_loop.bit_identical", AllIdentical,
            "batched responses bit-identical to the sequential executor at "
            "every sweep point");
  Rep.throughputCheck("open_loop.batch4_beats_batch1", B4 > B1,
                      strf("max-batch 4 sustains more than batch-size 1 at "
                           "saturation (%.2fx)",
                           Speedup));
}

void ladderSection(PoissonTraffic &T, Engine &Eng, Report &Rep) {
  CompiledNetLadder &Ladder = *T.Ladder;
  double SatRate = 4.0 * T.CapacityPerSec;

  // Warmup: saturating traffic makes misses queue every bucket on the
  // background thread, then the thread drains.
  ServePoint Warm = servePoint(T.Anchor, T.Ladder, T.Refs, SatRate, 4, 1);
  Ladder.waitForCompiles();
  LadderStats WarmLS = Ladder.stats();
  std::printf("ladder warmup: %u/%u ok, %llu batched / %llu fallback "
              "batches, %llu background compiles, %u resident buckets\n",
              Warm.Res.Completed, Warm.Res.Offered,
              static_cast<unsigned long long>(Warm.BatchedBatches),
              static_cast<unsigned long long>(Warm.FallbackBatches),
              static_cast<unsigned long long>(WarmLS.BackgroundCompiles),
              WarmLS.ResidentBuckets);
  bool AllIdentical = Warm.BitIdentical;

  // Direct grid: every resident bucket, every partial batch size it
  // accepts, pool widths 1 and 2, per image against the references.
  bool GridIdentical = true;
  unsigned GridPoints = 0;
  const std::vector<Tensor3D> &In = T.Refs.Inputs;
  for (const CompiledNetLadder::Rung &R : Ladder.residentRungs()) {
    for (unsigned Threads = 1; Threads <= 2; ++Threads) {
      ExecutionContextOptions BOpts;
      BOpts.Threads = Threads;
      ExecutionContext BCtx(R.Artifact, BOpts);
      for (int64_t K = 1; K <= R.Bucket; ++K) {
        std::vector<const Tensor3D *> Ptrs;
        for (int64_t I = 0; I < K; ++I)
          Ptrs.push_back(&In[static_cast<size_t>(I) % In.size()]);
        BCtx.run(Ptrs);
        for (int64_t I = 0; I < K; ++I)
          GridIdentical &=
              maxAbsDifference(BCtx.output(static_cast<size_t>(I)),
                               T.Refs.Outputs[static_cast<size_t>(I) %
                                              In.size()]) == 0.0f;
        ++GridPoints;
      }
    }
  }
  std::printf("ladder grid: %u bucket x batch x width points, outputs %s\n",
              GridPoints, GridIdentical ? "identical" : "DIFFER");
  AllIdentical &= GridIdentical;

  // After warmup the request path must never solve.
  const PlanCacheStats *PS = Eng.planCacheStats();
  uint64_t MissesBefore = PS ? PS->Misses : 0;

  const double Multipliers[] = {0.5, 1.0, 2.0, 4.0};
  std::vector<JsonObject> Sweep;
  uint64_t MeasuredFallbacks = 0;
  for (double M : Multipliers) {
    for (unsigned Workers = 1; Workers <= 2; ++Workers) {
      ServePoint P = servePoint(T.Anchor, T.Ladder, T.Refs,
                                M * T.CapacityPerSec, 4, Workers);
      AllIdentical &= P.BitIdentical;
      MeasuredFallbacks += P.FallbackBatches;
      std::printf("ladder rate %7.1f req/s (%.1fx cap) x %u worker%s: "
                  "sustained %7.1f req/s, p50 %7.2f ms, p99 %7.2f ms, p99.9 "
                  "%7.2f ms, %llu batched / %llu fallback, outputs %s\n",
                  P.RatePerSec, M, Workers, Workers == 1 ? " " : "s",
                  P.Res.SustainedPerSec, P.Lat.P50, P.Lat.P99, P.Lat.P999,
                  static_cast<unsigned long long>(P.BatchedBatches),
                  static_cast<unsigned long long>(P.FallbackBatches),
                  P.BitIdentical ? "identical" : "DIFFER");
      Sweep.push_back(P.json());
    }
  }

  // Saturation: the ladder against the open-loop section's per-slot
  // points at the same offered rate.
  ServePoint LadderSat = servePoint(T.Anchor, T.Ladder, T.Refs, SatRate, 4, 1);
  AllIdentical &= LadderSat.BitIdentical && T.Batch1.BitIdentical &&
                  T.Batch4.BitIdentical;
  MeasuredFallbacks += LadderSat.FallbackBatches;
  double Slot1 = T.Batch1.Res.SustainedPerSec;
  double SlotPar = T.Batch4.Res.SustainedPerSec;
  double LadderRate = LadderSat.Res.SustainedPerSec;
  double Speedup = Slot1 > 0.0 ? LadderRate / Slot1 : 0.0;
  double VsSlotPar = SlotPar > 0.0 ? LadderRate / SlotPar : 0.0;
  std::printf("ladder saturation (%.1f req/s offered): batch-1 slots %7.1f "
              "req/s, image-parallel slots %7.1f req/s, ladder %7.1f req/s "
              "(%.2fx vs batch-1, %.2fx vs slots)\n",
              SatRate, Slot1, SlotPar, LadderRate, Speedup, VsSlotPar);

  LadderStats FinalLS = Ladder.stats();
  uint64_t MissesAfter = PS ? PS->Misses : 0;
  bool NoSolves = MissesAfter == MissesBefore &&
                  FinalLS.SyncCompiles == WarmLS.SyncCompiles &&
                  MeasuredFallbacks == 0;
  std::printf("ladder request path after warmup: plan-cache misses %llu -> "
              "%llu, sync compiles %llu -> %llu, fallback batches %llu\n",
              static_cast<unsigned long long>(MissesBefore),
              static_cast<unsigned long long>(MissesAfter),
              static_cast<unsigned long long>(WarmLS.SyncCompiles),
              static_cast<unsigned long long>(FinalLS.SyncCompiles),
              static_cast<unsigned long long>(MeasuredFallbacks));

  Rep.Records.push_back(
      record("ladder", "mobilenet")
          .set("requests_per_point", PointRequests)
          .set("sequential_ms_per_request", T.SeqMs)
          .set("grid_points", GridPoints)
          .set("background_compiles", FinalLS.BackgroundCompiles)
          .set("sweep", Sweep)
          .set("saturation", JsonObject()
                                 .set("offered_per_sec", SatRate)
                                 .set("slot_batch1_per_sec", Slot1)
                                 .set("slot_parallel_per_sec", SlotPar)
                                 .set("ladder_per_sec", LadderRate)
                                 .set("speedup_vs_batch1", Speedup)
                                 .set("speedup_vs_slots", VsSlotPar))
          .set("request_path_solves_after_warmup",
               MissesAfter - MissesBefore));
  Rep.check("ladder.bit_identical", AllIdentical,
            "per-image outputs bit-identical to the sequential executor at "
            "every grid and serving point");
  Rep.check("ladder.no_request_path_solves", NoSolves,
            "zero request-path PBQP solves after warmup");
  Rep.throughputCheck("ladder.beats_batch1_slots", Speedup >= 1.3,
                      strf("ladder sustains >= 1.3x the batch-1 slot path "
                           "at saturation (%.2fx)",
                           Speedup));
}

void poissonSections(const BenchConfig &Config,
                     const PrimitiveLibrary &FullLib, Report &Rep) {
  // The §8 minibatch wrappers must be in the library for buckets to choose
  // @bser/@bpar.
  PrimitiveLibrary Lib = buildBatchedLibrary();
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  EngineOptions EOpts = servingOptions();
  EOpts.CachePlans = true; // the zero-request-path-solve check reads this
  Engine Eng(Lib, Prov, EOpts);

  // Background mode: bucket 1 compiles here, the rest on the ladder's own
  // thread -- the serving deployment the warmup check is about.
  LadderOptions LO;
  LO.MaxBatch = 4;
  LO.Background = true;
  PoissonTraffic T;
  T.Ladder = Eng.compileLadder(mobileNet(Config.Scale), LO);
  if (!T.Ladder)
    fatal("ladder compile failed");
  T.Anchor = T.Ladder->bucket(1);
  T.Refs = sequentialReferences(T.Anchor->graph(), T.Anchor->plan(), Lib, 4,
                                23);
  checkAnchorIsFullLibraryPlan(T, Lib, FullLib);
  T.SeqMs = sequentialMs(*T.Anchor, T.Refs.Inputs, std::max(8u, Config.Iters));
  T.CapacityPerSec = 1000.0 / T.SeqMs;
  std::printf("# poisson traffic: mobilenet, %u requests/point, sequential "
              "%.2f ms (capacity %.1f req/sec)\n",
              PointRequests, T.SeqMs, T.CapacityPerSec);

  openLoopSection(T, Rep);
  ladderSection(T, Eng, Rep);
}

//===----------------------------------------------------------------------===//
// fleet: three models, one memory budget, eviction churn and hot-swaps.
//===----------------------------------------------------------------------===//

NetworkGraph fleetModel(const std::string &Name, double Scale) {
  if (Name == "mobilenet")
    return mobileNet(Scale);
  if (Name == "resnet18")
    return resNet18(Scale);
  return tinyDag(32);
}

void fleetSection(const BenchConfig &Config, const PrimitiveLibrary &Lib,
                  Report &Rep) {
  struct ModelTraffic {
    std::string Name;
    size_t Bytes = 0;
    ReferenceSet Refs;
    unsigned Offered = 0;
    unsigned Ok = 0;
  };
  const std::vector<std::string> Names{"mobilenet", "resnet18", "tinydag"};
  const unsigned MaxBatch = 4;

  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  EngineOptions EOpts = servingOptions();
  EOpts.CachePlans = true; // one in-memory PlanCache for the whole fleet
  Engine Eng(Lib, Prov, EOpts);

  // Probe phase: solve and compile each model once (unlimited budget) to
  // learn artifact sizes and build the references. This also warms the
  // shared PlanCache: every compile the traffic phase does must hit it.
  std::vector<ModelTraffic> Models;
  {
    serve::RegistryOptions POpts;
    POpts.ArenaSlabsPerModel = MaxBatch;
    serve::ModelRegistry Probe(Eng, POpts);
    for (const std::string &Name : Names) {
      if (!Probe.addModel(Name, fleetModel(Name, Config.Scale)))
        fatal("duplicate model " + Name);
      std::shared_ptr<const CompiledNet> CN = Probe.acquire(Name);
      if (!CN)
        fatal("probe compile of " + Name + " failed");
      ModelTraffic M;
      M.Name = Name;
      M.Bytes = serve::ModelRegistry::artifactBytes(*CN, MaxBatch);
      M.Refs = sequentialReferences(CN->graph(), CN->plan(), Lib, 3,
                                    11 * (Models.size() + 1));
      Models.push_back(std::move(M));
    }
  }

  // Pin the budget strictly between the largest artifact and the fleet
  // total: every model fits alone, the fleet does not fit together, so
  // traffic must churn residency while shedding nothing.
  size_t MaxBytes = 0, SumBytes = 0;
  double MeanSeqMs = 0.0;
  for (const ModelTraffic &M : Models) {
    MaxBytes = std::max(MaxBytes, M.Bytes);
    SumBytes += M.Bytes;
    MeanSeqMs += M.Refs.MaxRunMs;
  }
  MeanSeqMs /= static_cast<double>(Models.size());
  const size_t Budget = (MaxBytes + SumBytes) / 2;

  const unsigned Requests = 90;
  const unsigned Burst = 16;
  const double RatePerSec = 2.0 * 1000.0 / std::max(MeanSeqMs, 0.01);
  std::printf("# fleet: %zu models, %u paced + %u burst requests, rate %.1f "
              "req/s, budget %.2f MiB (largest %.2f, fleet %.2f)\n",
              Models.size(), Requests, Burst, RatePerSec, Budget / MiB,
              MaxBytes / MiB, SumBytes / MiB);

  // Traffic phase: budgeted registry, fresh lanes, warm PlanCache.
  serve::RegistryOptions ROpts;
  ROpts.MemBudgetBytes = Budget;
  ROpts.ArenaSlabsPerModel = MaxBatch;
  serve::ModelRegistry Reg(Eng, ROpts);
  for (ModelTraffic &M : Models)
    Reg.addModel(M.Name, fleetModel(M.Name, Config.Scale));

  serve::FleetOptions FOpts;
  FOpts.Batch.MaxBatch = MaxBatch;
  FOpts.Batch.MaxDelayNs = 2000 * serve::nsPerUs;
  FOpts.Batch.MaxQueue = 512; // generous: measure churn, not drops
  FOpts.WorkersPerModel = 1;

  // Every offered request, tagged with the (model, input) it carried.
  struct Tagged {
    size_t Model = 0;
    size_t Input = 0;
  };
  std::vector<Tagged> Arrivals;
  std::vector<serve::SubmitTicket> BurstTickets;
  std::vector<serve::ServeResponse> Responses;
  unsigned Swaps = 0;
  uint64_t UnknownRejects = 0;
  double WallMs = 0.0;
  {
    serve::FleetServer Srv(Reg, FOpts);

    // Unknown models must reject immediately, touching no lane.
    serve::SubmitTicket Bogus =
        Srv.submit("no-such-model", Models[0].Refs.Inputs[0]);
    if (Bogus.Response.get().Status !=
        serve::ServeStatus::RejectedModelUnavailable)
      fatal("unknown model did not reject");
    UnknownRejects = Srv.unknownModelRejects();

    serve::OpenLoopOptions LOpts;
    LOpts.RatePerSec = RatePerSec;
    LOpts.Requests = Requests;
    LOpts.Seed = 29;
    Rng Pick(23);
    const std::vector<Tensor3D> &BurstInputs = Models[0].Refs.Inputs;
    Timer Wall;
    serve::runOpenLoop(
        serve::steadyClock(),
        [&](unsigned I, serve::TimeNs) {
          // Live upgrades race the traffic at the third points.
          if (I == Requests / 3 || I == 2 * Requests / 3) {
            Reg.recompileAndSwap(Models[Swaps % Models.size()].Name);
            ++Swaps;
          }
          // Halfway through, one lane takes a back-to-back burst: the
          // other lanes' requests must still complete untouched.
          if (I == Requests / 2)
            for (unsigned B = 0; B < Burst; ++B)
              BurstTickets.push_back(Srv.submit(
                  Models[0].Name, BurstInputs[B % BurstInputs.size()]));

          Tagged T;
          T.Model = Pick.nextBelow(Models.size());
          T.Input = Pick.nextBelow(Models[T.Model].Refs.Inputs.size());
          Arrivals.push_back(T);
          return Srv.submit(Models[T.Model].Name,
                            Models[T.Model].Refs.Inputs[T.Input]);
        },
        LOpts, &Responses);
    // The burst's responses follow the arrivals', tagged the same way.
    for (size_t B = 0; B < BurstTickets.size(); ++B) {
      Arrivals.push_back({0, B % BurstInputs.size()});
      Responses.push_back(BurstTickets[B].Response.get());
    }
    Srv.shutdown();
    WallMs = Wall.millis();
  }

  std::vector<double> LatenciesMs;
  bool AllIdentical = true;
  unsigned Completed = 0, Rejected = 0;
  for (size_t I = 0; I < Responses.size(); ++I) {
    const serve::ServeResponse &R = Responses[I];
    ModelTraffic &M = Models[Arrivals[I].Model];
    ++M.Offered;
    if (!R.ok()) {
      ++Rejected;
      continue;
    }
    ++Completed;
    ++M.Ok;
    LatenciesMs.push_back(R.totalMillis());
    AllIdentical &=
        maxAbsDifference(R.Output, M.Refs.Outputs[Arrivals[I].Input]) == 0.0f;
  }
  LatencySummary Lat = summarizeLatencies(LatenciesMs);
  serve::RegistryStats RS = Reg.stats();

  std::vector<JsonObject> PerModel;
  std::string FleetName;
  for (const ModelTraffic &M : Models) {
    std::printf("model %-10s %8.2f KiB: %3u/%3u ok\n", M.Name.c_str(),
                static_cast<double>(M.Bytes) / 1024.0, M.Ok, M.Offered);
    PerModel.push_back(JsonObject()
                           .set("name", M.Name)
                           .set("bytes", M.Bytes)
                           .set("offered", M.Offered)
                           .set("ok", M.Ok));
    FleetName += (FleetName.empty() ? "" : ",") + M.Name;
  }
  std::printf("# registry: %llu compiles (%llu plan-cache hits, %llu "
              "solves), %llu evictions, %llu swaps, %llu unavailable, peak "
              "%.2f MiB\n",
              static_cast<unsigned long long>(RS.Compiles),
              static_cast<unsigned long long>(RS.PlanCacheHits),
              static_cast<unsigned long long>(RS.Solves),
              static_cast<unsigned long long>(RS.Evictions),
              static_cast<unsigned long long>(RS.Swaps),
              static_cast<unsigned long long>(RS.Unavailable),
              RS.PeakResidentBytes / MiB);
  std::printf("# %u/%zu completed in %.1f ms, p50 %.2f ms, p95 %.2f ms, p99 "
              "%.2f ms\n",
              Completed, Responses.size(), WallMs, Lat.P50, Lat.P95, Lat.P99);
  Rep.Records.push_back(record("fleet", FleetName)
                            .set("budget_bytes", Budget)
                            .set("rate_per_sec", RatePerSec)
                            .set("models", PerModel)
                            .set("completed", Completed)
                            .set("rejected", Rejected)
                            .set("wall_ms", WallMs)
                            .set("p50_ms", Lat.P50)
                            .set("p95_ms", Lat.P95)
                            .set("p99_ms", Lat.P99)
                            .set("compiles", RS.Compiles)
                            .set("plan_cache_hits", RS.PlanCacheHits)
                            .set("solves", RS.Solves)
                            .set("evictions", RS.Evictions)
                            .set("swaps", RS.Swaps)
                            .set("unavailable", RS.Unavailable)
                            .set("peak_resident_bytes", RS.PeakResidentBytes)
                            .set("bit_identical", AllIdentical));

  Rep.check("fleet.bit_identical", AllIdentical,
            "mixed-fleet responses bit-identical to the sequential "
            "executor");
  Rep.check("fleet.budget_invariant",
            RS.PeakResidentBytes <= Budget && RS.Evictions >= 1 &&
                RS.Unavailable == 0,
            strf("budget invariant: peak %.2f MiB <= budget %.2f MiB with "
                 "%llu evictions and nothing shed",
                 RS.PeakResidentBytes / MiB, Budget / MiB,
                 static_cast<unsigned long long>(RS.Evictions)));
  Rep.check("fleet.no_resolve",
            RS.Solves == 0 && RS.Compiles >= 1 &&
                RS.PlanCacheHits == RS.Compiles,
            strf("eviction costs prepare time, never a re-solve: %llu "
                 "traffic-phase compiles, all plan-cache hits",
                 static_cast<unsigned long long>(RS.Compiles)));
  Rep.check("fleet.conservation",
            Completed == Responses.size() && Rejected == 0 &&
                RS.Swaps == Swaps && UnknownRejects == 1,
            strf("conservation: %u/%zu requests Ok through %u hot-swaps and "
                 "a %u-request burst; unknown model rejected cleanly",
                 Completed, Responses.size(), Swaps, Burst));
}

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();
  Report Rep;
  Rep.HwThreads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# serving acceptance: scale %.2f, %u iterations, %u hardware "
              "threads\n",
              Config.Scale, Config.Iters, Rep.HwThreads);

  planCacheSection(Config, Lib, Rep);
  arenaSection(Config, Lib, Rep);
  compiledSection(Config, Lib, Rep);
  poissonSections(Config, Lib, Rep);
  fleetSection(Config, Lib, Rep);

  writeBenchJson(JsonObject()
                     .set("bench", "serving_acceptance")
                     .set("scale", Config.Scale)
                     .set("iters", Config.Iters)
                     .set("hardware_threads", Rep.HwThreads)
                     .set("records", Rep.Records)
                     .set("checks", Rep.Checks),
                 "BENCH_serving.json");
  std::printf("# %zu checks: %zu pass, %u fail, %u skip\n", Rep.Checks.size(),
              Rep.Checks.size() - Rep.Failed - Rep.Skipped, Rep.Failed,
              Rep.Skipped);
  return Rep.Failed ? 1 : 0;
}
