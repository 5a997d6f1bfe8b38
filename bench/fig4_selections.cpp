//===- bench/fig4_selections.cpp - Figure 4 --------------------------------===//
//
// Regenerates Figure 4: the PBQP-optimal primitive selections for AlexNet's
// five convolution layers on the Intel and ARM targets. The Intel column
// uses measured costs on the host (cached with the Figure 5 database); the
// ARM column uses the analytic Cortex-A57 model. The paper's qualitative
// findings to look for: conv1 (K=11, stride 4) goes to an im2 variant on
// both targets; conv2..conv5 go to Winograd, 2D/vf8 flavours on Intel and
// lower-memory 1D/vf4 flavours on ARM.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/Engine.h"
#include "runtime/ExecutionPlan.h"

#include <cstdio>

using namespace primsel;
using namespace primsel::bench;

static void printSelections(const char *Target, const NetworkGraph &Net,
                            const PrimitiveLibrary &Lib,
                            const SelectionResult &R) {
  std::printf("\n%s (solve %.2f ms, %s)\n", Target, R.SolveMillis,
              R.Solver.ProvablyOptimal ? "optimal" : "heuristic");
  for (auto N : Net.convNodes()) {
    const ConvPrimitive &P = Lib.get(R.Plan.ConvPrim[N]);
    std::printf("  %-8s %-28s [%s -> %s]\n", Net.node(N).L.Name.c_str(),
                P.name().c_str(), layoutName(P.inputLayout()),
                layoutName(P.outputLayout()));
  }
  unsigned Transforms = 0;
  for (const auto &[Edge, Chain] : R.Plan.Chains)
    Transforms += static_cast<unsigned>(Chain.size() - 1);
  std::printf("  (legalization inserted %u transform steps)\n", Transforms);
}

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();
  NetworkGraph Net = alexNet(Config.Scale);

  std::printf("# Figure 4: PBQP selections for AlexNet, scale=%.2f\n",
              Config.Scale);

  {
    // The profiler must be called serially; the default single-threaded
    // engine still memoizes.
    CachedMeasuredProvider Cached(Lib, Config, 1, "x86");
    SelectionResult R = optimizeNetwork(Net, Lib, Cached.provider());
    printSelections("x86 host (measured costs)", Net, Lib, R);
  }
  {
    AnalyticCostProvider Prov(Lib, MachineProfile::cortexA57(), 1);
    SelectionResult R = optimizeNetwork(Net, Lib, Prov);
    printSelections("ARM Cortex-A57 (analytic model)", Net, Lib, R);
  }
  {
    // Multithreaded selections, as in the paper's Figure 4 caption
    // ("multithreaded execution"), via the analytic 4-core models.
    AnalyticCostProvider Intel(Lib, MachineProfile::haswell(), 4);
    SelectionResult R = optimizeNetwork(Net, Lib, Intel);
    printSelections("Intel Haswell 4-thread (analytic model)", Net, Lib, R);
    AnalyticCostProvider Arm(Lib, MachineProfile::cortexA57(), 4);
    SelectionResult R2 = optimizeNetwork(Net, Lib, Arm);
    printSelections("ARM Cortex-A57 4-thread (analytic model)", Net, Lib,
                    R2);
  }
  return 0;
}
