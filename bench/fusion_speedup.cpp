//===- bench/fusion_speedup.cpp - Epilogue-fusion acceptance bench --------===//
//
// What does the graph-transform pipeline (transforms/Pass.h) buy at
// serving time? For each model this bench solves the selection problem at
// O0 (the graph as built) and at O1 (the default pass pipeline), builds
// the memory-planned executor for both, and measures forward passes.
//
// Three claims are checked and the process exits nonzero if any fails:
//   1. O1 materializes strictly fewer intermediate tensors than O0 on
//      every model (the fused Bias/ReLU layers' tensors are never
//      stored), and the per-layer allocation footprint shrinks with them;
//   2. the packed arena shrinks on at least one model (strictly);
//   3. O1 outputs are bit-identical to O0 outputs (fusion is exact).
//
// Wall-clock for both configurations is recorded in the table; the win is
// the eliminated store/load traffic of the absorbed layers, so it grows
// with tensor sizes (PRIMSEL_SCALE).
//
// Environment knobs are the shared bench ones (PRIMSEL_SCALE,
// PRIMSEL_ITERS).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/Engine.h"
#include "tensor/Transform.h"
#include "transforms/Pass.h"

#include <cstdio>

using namespace primsel;
using namespace primsel::bench;

namespace {

struct ConfigRun {
  SelectionResult R;
  size_t Values = 0;     ///< materialized tensors per forward pass
  size_t ArenaBytes = 0; ///< packed-arena extent
  size_t BaselineBytes = 0;
  double BestMillis = 0.0;
  Tensor3D Output{1, 1, 1, Layout::CHW};
};

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();

  bool AllOk = true;
  unsigned ArenaShrank = 0;
  std::printf("# epilogue-fusion serving comparison, scale %.2f, %u "
              "iters\n",
              Config.Scale, Config.Iters);
  std::printf("%-10s %5s %7s %9s %9s %9s %9s %8s %8s\n", "network", "cfg",
              "nodes", "values", "arenaKiB", "allocKiB", "ms/pass", "fused",
              "speedup");

  for (const char *Model : {"resnet18", "mobilenet", "googlenet"}) {
    std::optional<NetworkGraph> Net = buildModel(Model, Config.Scale);
    if (!Net) {
      std::fprintf(stderr, "FAIL: unknown model %s\n", Model);
      return 1;
    }

    AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
    ConfigRun Runs[2];
    const TensorShape &Sh = Net->node(0).OutShape;
    Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
    Input.fillRandom(11);

    for (int I = 0; I < 2; ++I) {
      EngineOptions EOpts;
      if (I == 1)
        EOpts.Passes = transforms::PassPipeline::defaultPassNames();
      Engine Eng(Lib, Prov, EOpts);
      ConfigRun &Run = Runs[I];
      Run.R = Eng.optimize(*Net);
      if (Run.R.Plan.empty()) {
        std::fprintf(stderr, "FAIL: %s selection failed\n", Model);
        return 1;
      }

      ExecutorOptions XOpts;
      XOpts.UseArena = true;
      std::unique_ptr<Executor> Exec = Eng.instantiate(*Net, Run.R, XOpts);
      const MemoryPlan &MP = Exec->compiled().memoryPlan();
      Run.Values = MP.Values.size();
      Run.ArenaBytes = Exec->arenaBytes();
      Run.BaselineBytes = MP.BaselineBytes;
      for (unsigned It = 0; It < Config.Iters; ++It) {
        RunResult RR = Exec->run(Input);
        if (It == 0 || RR.TotalMillis < Run.BestMillis)
          Run.BestMillis = RR.TotalMillis;
      }
      Run.Output = convertToLayout(Exec->networkOutput(), Layout::CHW);

      const NetworkGraph &ExecNet = Run.R.executionGraph(*Net);
      unsigned Fused = 0;
      for (const transforms::PassStats &S : Run.R.Passes)
        Fused += S.Rewrites;
      std::printf("%-10s %5s %7u %9zu %9.1f %9.1f %9.3f %8u %8s\n", Model,
                  I ? "O1" : "O0", ExecNet.numNodes(), Run.Values,
                  Run.ArenaBytes / 1024.0, Run.BaselineBytes / 1024.0,
                  Run.BestMillis, Fused,
                  I ? "" : "-");
    }

    double Speedup = Runs[1].BestMillis > 0.0
                         ? Runs[0].BestMillis / Runs[1].BestMillis
                         : 0.0;
    std::printf("%-10s %5s %60.2fx\n", Model, "O1/O0", Speedup);

    // --- Claim 1: strictly fewer materialized intermediates. -------------
    if (Runs[1].Values >= Runs[0].Values) {
      std::fprintf(stderr,
                   "FAIL: %s O1 materializes %zu values vs %zu at O0\n",
                   Model, Runs[1].Values, Runs[0].Values);
      AllOk = false;
    }
    if (Runs[1].BaselineBytes >= Runs[0].BaselineBytes) {
      std::fprintf(stderr,
                   "FAIL: %s O1 allocation footprint did not shrink\n",
                   Model);
      AllOk = false;
    }

    // --- Claim 2 bookkeeping: arena shrink (checked across models). -----
    if (Runs[1].ArenaBytes < Runs[0].ArenaBytes)
      ++ArenaShrank;

    // --- Claim 3: fusion is exact. ---------------------------------------
    if (!Runs[1].Output.sameShape(Runs[0].Output) ||
        maxAbsDifference(Runs[1].Output, Runs[0].Output) != 0.0f) {
      std::fprintf(stderr, "FAIL: %s O1 output diverges from O0\n", Model);
      AllOk = false;
    }
  }

  if (ArenaShrank == 0) {
    std::fprintf(stderr,
                 "FAIL: the packed arena shrank on no model at O1\n");
    AllOk = false;
  }

  if (!AllOk)
    return 1;
  std::printf("# OK: fewer materialized intermediates on every model, "
              "arena shrank on %u, outputs bit-identical\n",
              ArenaShrank);
  return 0;
}
