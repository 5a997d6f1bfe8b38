//===- bench/serving_throughput.cpp - Serving-layer acceptance bench ------===//
//
// The serving story in one binary: how much does the plan cache save on
// request startup, and how much intermediate memory does the planned arena
// save during steady-state inference, on the heaviest evaluated network
// (GoogLeNet, whose inception towers also exercise the parallel-branch
// executor path).
//
// Three claims are checked and the process exits nonzero if any fails:
//   1. a warm plan-cache hit (fresh engine over a populated cache
//      directory, i.e. a fresh serving process) acquires the plan at
//      least 10x faster than the cold solve;
//   2. the memory-planned executor's peak intermediate-buffer bytes are
//      strictly below the per-layer-allocation baseline;
//   3. arena and parallel-branch execution produce outputs identical to
//      the plain executor.
//
// Environment knobs are the shared bench ones (PRIMSEL_SCALE,
// PRIMSEL_ITERS, PRIMSEL_CACHE); plan-cache files land under
// PRIMSEL_CACHE/primsel-plan-cache-serving and are wiped at start so the
// cold measurement is honest.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/Engine.h"
#include "support/Timer.h"

#include <cstdio>
#include <filesystem>

using namespace primsel;
using namespace primsel::bench;

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);

  std::string CacheDir = Config.CacheDir + "/primsel-plan-cache-serving";
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);

  // --- Plan latency: cold solve vs warm cache hit. -----------------------
  // Measured on the *full-scale* network: production serves full-size
  // inputs, and this is the problem size the §5.4 overhead story is
  // about. (The execution half below uses PRIMSEL_SCALE so the forward
  // passes stay inside a CI budget.)
  NetworkGraph FullNet = googLeNet(1.0);
  std::printf("# serving bench: googlenet (plan latency at scale 1.0, "
              "execution at scale %.2f)\n",
              Config.Scale);
  EngineOptions EOpts;
  EOpts.PlanCacheDir = CacheDir;
  double ColdMillis, MemoryWarmMillis;
  double DiskWarmMillis = 0.0;
  SelectionResult FullCold;
  {
    Engine Eng(Lib, Prov, EOpts);
    Timer T;
    FullCold = Eng.optimize(FullNet);
    ColdMillis = T.millis();
    Timer T2;
    SelectionResult Warm = Eng.optimize(FullNet);
    MemoryWarmMillis = T2.millis();
    if (!Warm.PlanCacheHit) {
      std::fprintf(stderr, "FAIL: second optimize was not a cache hit\n");
      return 1;
    }
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
    if (!Warm.PlanCacheHit) {
      std::fprintf(stderr, "FAIL: fresh-engine optimize missed the disk "
                           "cache\n");
      return 1;
    }
    bool SamePlan = Warm.ModelledCostMs == FullCold.ModelledCostMs &&
                    Warm.Plan.OutLayout == FullCold.Plan.OutLayout &&
                    Warm.Plan.Chains == FullCold.Plan.Chains;
    for (NetworkGraph::NodeId N : FullNet.convNodes())
      SamePlan &= Warm.Plan.ConvPrim[N] == FullCold.Plan.ConvPrim[N];
    if (!SamePlan) {
      std::fprintf(stderr, "FAIL: cached plan differs from the solved "
                           "plan\n");
      return 1;
    }
  }
  double Ratio = ColdMillis / std::max(1e-9, DiskWarmMillis);
  std::printf("plan latency: cold %.2f ms, warm-in-process %.3f ms, "
              "warm-from-disk %.3f ms (cold/disk = %.0fx)\n",
              ColdMillis, MemoryWarmMillis, DiskWarmMillis, Ratio);
  bool PlanOk = Ratio >= 10.0;

  // --- Steady state: per-layer baseline vs planned arena vs parallel. ----
  NetworkGraph Net = googLeNet(Config.Scale);
  AnalyticCostProvider ScaledProv(Lib, MachineProfile::haswell(), 1);
  Engine ScaledEng(Lib, ScaledProv);
  SelectionResult Cold = ScaledEng.optimize(Net);
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

  auto timeRuns = [&](Executor &E) {
    E.run(Input); // warm-up (first-touch of the arena pages)
    Timer T;
    for (unsigned I = 0; I < Config.Iters; ++I)
      E.run(Input);
    return T.millis() / Config.Iters;
  };
  double BaseMs = timeRuns(Base);
  double ArenaMs = timeRuns(Arena);
  double ParMs = timeRuns(Par);

  float ArenaDiff = maxAbsDifference(Base.networkOutput(),
                                     Arena.networkOutput());
  float ParDiff = maxAbsDifference(Base.networkOutput(),
                                   Par.networkOutput());
  size_t BaseBytes = Base.peakIntermediateBytes();
  size_t ArenaBytes = Arena.peakIntermediateBytes();

  std::printf("memory: baseline %.2f MiB, arena %.2f MiB (%.1f%% of "
              "baseline, %u packed values, %zu levels)\n",
              BaseBytes / (1024.0 * 1024.0), ArenaBytes / (1024.0 * 1024.0),
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

  bool MemOk = ArenaBytes < BaseBytes;
  bool EqOk = ArenaDiff == 0.0f && ParDiff == 0.0f;
  std::printf("%s warm-start >= 10x cold (%.0fx)\n", PlanOk ? "PASS" : "FAIL",
              Ratio);
  std::printf("%s arena peak strictly below per-layer baseline\n",
              MemOk ? "PASS" : "FAIL");
  std::printf("%s outputs identical across executor configurations\n",
              EqOk ? "PASS" : "FAIL");
  return PlanOk && MemOk && EqOk ? 0 : 1;
}
