//===- bench/ablation_edge_costs.cpp - §6 ablations ------------------------===//
//
// Ablation studies for the design decisions the paper argues for:
//
//  (1) Value of modelling edge (DT) costs at all: PBQP vs the greedy
//      fastest-per-layer heuristic and vs the canonical-layout local
//      optimum, across networks and both machine profiles (§6: canonical
//      layouts are "always outperformed by the optimal selection").
//  (2) Sensitivity to transform expense: scaling all DT costs by 0x / 1x /
//      4x. At 0x greedy equals PBQP (the problem ceases to be NP-hard,
//      §6); as transforms get costlier the greedy gap widens.
//  (3) Exact irreducible-core enumeration vs the RN heuristic.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/Engine.h"

#include <cstdio>

using namespace primsel;
using namespace primsel::bench;

namespace {

/// Wraps a provider, scaling every transform cost by a constant factor.
class ScaledTransformProvider : public CostProvider {
public:
  ScaledTransformProvider(CostProvider &Inner, double Factor)
      : Inner(Inner), Factor(Factor) {}

  CostBreakdown cost(const CostQuery &Q) override { return Inner.cost(Q); }
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override {
    return Factor * Inner.transformCost(From, To, Shape);
  }

private:
  CostProvider &Inner;
  double Factor;
};

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();

  std::printf("# Ablation 1: modelled cost (ms) of PBQP vs greedy vs "
              "local-optimal, scale=%.2f\n",
              Config.Scale);
  std::printf("%-12s %-8s %10s %10s %10s %12s\n", "network", "profile",
              "pbqp", "greedy", "local-opt", "greedy-gap%");
  for (bool Arm : {false, true}) {
    MachineProfile Profile =
        Arm ? MachineProfile::cortexA57() : MachineProfile::haswell();
    AnalyticCostProvider Prov(Lib, Profile, 1);
    // One engine per profile: the PBQP query warms the cost cache that the
    // greedy and local-optimal baselines then read from.
    Engine Eng(Lib, Prov);
    for (const std::string &Name : modelNames()) {
      NetworkGraph Net = *buildModel(Name, Config.Scale);
      SelectionResult R = Eng.optimize(Net);
      double Greedy =
          Eng.planCost(Eng.planFor(Strategy::Greedy, Net), Net);
      double Local =
          Eng.planCost(Eng.planFor(Strategy::LocalOptimalCHW, Net), Net);
      std::printf("%-12s %-8s %10.2f %10.2f %10.2f %11.1f%%\n", Name.c_str(),
                  Arm ? "a57" : "haswell", R.ModelledCostMs, Greedy, Local,
                  100.0 * (Greedy - R.ModelledCostMs) / R.ModelledCostMs);
    }
  }

  std::printf("\n# Ablation 2: greedy gap vs transform-cost scale "
              "(alexnet + googlenet, haswell)\n");
  std::printf("%-12s %10s %10s %10s\n", "network", "0x", "1x", "4x");
  {
    AnalyticCostProvider Base(Lib, MachineProfile::haswell(), 1);
    for (const std::string &Name : {std::string("alexnet"),
                                    std::string("googlenet")}) {
      NetworkGraph Net = *buildModel(Name, Config.Scale);
      std::printf("%-12s", Name.c_str());
      for (double Factor : {0.0, 1.0, 4.0}) {
        // The provider changes per factor, so each sweep point gets its
        // own engine (a shared cache would mix the scales).
        ScaledTransformProvider Prov(Base, Factor);
        Engine Eng(Lib, Prov);
        SelectionResult R = Eng.optimize(Net);
        double Greedy =
            Eng.planCost(Eng.planFor(Strategy::Greedy, Net), Net);
        std::printf(" %9.2f%%",
                    100.0 * (Greedy - R.ModelledCostMs) / R.ModelledCostMs);
      }
      std::printf("\n");
    }
  }

  std::printf("\n# Ablation 3: exact core enumeration vs RN heuristic\n");
  std::printf("%-12s %12s %12s %10s\n", "network", "exact(ms)", "rn(ms)",
              "rn-gap%");
  {
    AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
    Engine Eng(Lib, Prov);
    EngineOptions NoCore;
    NoCore.SolverOptions.Reduction.DisableCoreEnumeration = true;
    for (const std::string &Name : modelNames()) {
      NetworkGraph Net = *buildModel(Name, Config.Scale);
      SelectionResult Exact = Eng.optimize(Net);
      SelectionResult RN = Eng.optimize(Net, NoCore);
      std::printf("%-12s %12.2f %12.2f %9.2f%%\n", Name.c_str(),
                  Exact.ModelledCostMs, RN.ModelledCostMs,
                  100.0 * (RN.ModelledCostMs - Exact.ModelledCostMs) /
                      Exact.ModelledCostMs);
    }
  }
  return 0;
}
