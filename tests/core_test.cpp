//===- tests/core_test.cpp - DT graph, PBQP builder, selector, strategies -===//

#include "core/DTGraph.h"
#include "core/Legalizer.h"
#include "core/PBQPBuilder.h"
#include "core/Strategies.h"
#include "engine/Engine.h"

#include "cost/AnalyticModel.h"
#include "nn/Models.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  static PrimitiveLibrary L = buildFullLibrary();
  return L;
}

AnalyticCostProvider makeProvider(unsigned Threads = 1,
                                  bool Arm = false) {
  return AnalyticCostProvider(lib(),
                              Arm ? MachineProfile::cortexA57()
                                  : MachineProfile::haswell(),
                              Threads);
}

TEST(DTTable, DirectEdgeCostsMatchProvider) {
  AnalyticCostProvider Prov = makeProvider();
  TensorShape Sh{16, 28, 28};
  DTTable T = DTTable::build(Prov, Sh, 1);
  EXPECT_DOUBLE_EQ(T.cost(Layout::CHW, Layout::HWC),
                   Prov.transformCost(Layout::CHW, Layout::HWC, Sh));
  EXPECT_DOUBLE_EQ(T.cost(Layout::CHW, Layout::CHW), 0.0);
}

TEST(DTTable, ChainsThroughMissingDirectRoutines) {
  // There is no direct CHW -> WCH routine; the chain goes via CWH.
  AnalyticCostProvider Prov = makeProvider();
  TensorShape Sh{8, 16, 16};
  DTTable T = DTTable::build(Prov, Sh, 1);
  ASSERT_TRUE(T.reachable(Layout::CHW, Layout::WCH));
  std::vector<Layout> Path = T.path(Layout::CHW, Layout::WCH);
  ASSERT_GE(Path.size(), 3u);
  EXPECT_EQ(Path.front(), Layout::CHW);
  EXPECT_EQ(Path.back(), Layout::WCH);
  // Every hop must be a direct routine.
  for (size_t I = 0; I + 1 < Path.size(); ++I)
    EXPECT_TRUE(hasDirectTransform(Path[I], Path[I + 1]));
}

TEST(DTTable, AllPairsReachableWithFullRoutineSet) {
  AnalyticCostProvider Prov = makeProvider();
  DTTable T = DTTable::build(Prov, {8, 16, 16}, 1);
  for (Layout A : AllLayouts)
    for (Layout B : AllLayouts)
      EXPECT_TRUE(T.reachable(A, B))
          << layoutName(A) << " -> " << layoutName(B);
}

TEST(DTTable, TriangleInequality) {
  // Shortest-path property: cost(A,C) <= cost(A,B) + cost(B,C).
  AnalyticCostProvider Prov = makeProvider();
  DTTable T = DTTable::build(Prov, {8, 16, 16}, 1);
  for (Layout A : AllLayouts)
    for (Layout B : AllLayouts)
      for (Layout C : AllLayouts)
        EXPECT_LE(T.cost(A, C), T.cost(A, B) + T.cost(B, C) + 1e-12);
}

TEST(DTTable, PathCostSumsToTableCost) {
  AnalyticCostProvider Prov = makeProvider();
  TensorShape Sh{8, 16, 16};
  DTTable T = DTTable::build(Prov, Sh, 1);
  for (Layout A : AllLayouts)
    for (Layout B : AllLayouts) {
      std::vector<Layout> Path = T.path(A, B);
      double Sum = 0.0;
      for (size_t I = 0; I + 1 < Path.size(); ++I)
        Sum += Prov.transformCost(Path[I], Path[I + 1], Sh);
      EXPECT_NEAR(Sum, T.cost(A, B), 1e-9);
    }
}

TEST(DTTableCache, MemoizesByShape) {
  AnalyticCostProvider Prov = makeProvider();
  DTTableCache Cache(Prov, tinyChain(16));
  const DTTable &A = Cache.get({8, 16, 16});
  const DTTable &B = Cache.get({8, 16, 16});
  EXPECT_EQ(&A, &B);
  const DTTable &C = Cache.get({8, 16, 17});
  EXPECT_NE(&A, &C);
}

TEST(PBQPBuilder, StructureMirrorsNetwork) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  DTTableCache Tables(Prov, Net);
  PBQPFormulation F = buildPBQP(Net, lib(), Prov, Tables);
  EXPECT_EQ(F.G.numNodes(), Net.numNodes());
  // One PBQP edge per graph edge.
  unsigned GraphEdges = 0;
  for (const auto &N : Net.nodes())
    GraphEdges += static_cast<unsigned>(N.Inputs.size());
  EXPECT_EQ(F.G.numEdges(), GraphEdges);
  // Conv nodes expose the supporting primitives; dummies the layouts.
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    if (Net.node(N).L.Kind == LayerKind::Conv) {
      EXPECT_FALSE(F.ConvAlternatives[N].empty());
      EXPECT_EQ(F.G.nodeCosts(N).length(), F.ConvAlternatives[N].size());
    } else if (Net.node(N).L.Kind == LayerKind::Input) {
      EXPECT_EQ(F.LayoutAlternatives[N].size(), 1u);
      EXPECT_EQ(F.LayoutAlternatives[N][0], Layout::CHW);
    } else {
      EXPECT_EQ(F.LayoutAlternatives[N].size(), NumLayouts);
      for (unsigned A = 0; A < NumLayouts; ++A)
        EXPECT_DOUBLE_EQ(F.G.nodeCosts(N)[A], 0.0) << "dummies cost zero";
    }
  }
}

TEST(Selector, SolvesOptimallyAndLegalizes) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  EXPECT_TRUE(R.Solver.ProvablyOptimal);
  EXPECT_TRUE(isLegalized(R.Plan, Net));
  EXPECT_GT(R.ModelledCostMs, 0.0);
  EXPECT_GE(R.SolveMillis, 0.0);
}

TEST(Selector, DagNetworksSolveOptimally) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(16);
  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  EXPECT_TRUE(R.Solver.ProvablyOptimal);
  EXPECT_TRUE(isLegalized(R.Plan, Net));
}

TEST(Selector, ModelledCostMatchesPBQPObjective) {
  // The legalized plan's modelled cost must equal the PBQP solution cost:
  // node costs are conv times, edge costs are shortest DT chains.
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(16);
  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  EXPECT_NEAR(R.ModelledCostMs, R.Solver.TotalCost, 1e-6);
}

TEST(Selector, Deterministic) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  SelectionResult A = optimizeNetwork(Net, lib(), Prov);
  SelectionResult B = optimizeNetwork(Net, lib(), Prov);
  EXPECT_EQ(A.Plan.ConvPrim, B.Plan.ConvPrim);
  EXPECT_EQ(A.Plan.OutLayout, B.Plan.OutLayout);
}

TEST(Strategies, NamesRoundTrip) {
  for (uint8_t I = 0; I <= static_cast<uint8_t>(Strategy::ArmclLike); ++I) {
    Strategy S = static_cast<Strategy>(I);
    auto Parsed = parseStrategy(strategyName(S));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, S);
  }
  EXPECT_FALSE(parseStrategy("nonsense").has_value());
}

TEST(Strategies, AllProduceLegalPlans) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(16);
  Engine Eng(lib(), Prov);
  for (uint8_t I = 0; I <= static_cast<uint8_t>(Strategy::ArmclLike); ++I) {
    Strategy S = static_cast<Strategy>(I);
    NetworkPlan Plan = Eng.planFor(S, Net);
    EXPECT_TRUE(isLegalized(Plan, Net)) << strategyName(S);
  }
}

TEST(Strategies, Sum2DUsesOnlySum2D) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::Sum2D, Net, lib(), Prov);
  for (auto N : Net.convNodes())
    EXPECT_EQ(lib().get(Plan.ConvPrim[N]).family(), ConvFamily::Sum2D);
  // Everything CHW: no chains at all.
  EXPECT_TRUE(Plan.Chains.empty());
}

TEST(Strategies, LocalOptimalHasNoTransforms) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(16);
  NetworkPlan Plan =
      planForStrategy(Strategy::LocalOptimalCHW, Net, lib(), Prov);
  EXPECT_TRUE(Plan.Chains.empty());
  for (auto N : Net.convNodes()) {
    EXPECT_EQ(lib().get(Plan.ConvPrim[N]).inputLayout(), Layout::CHW);
    EXPECT_EQ(lib().get(Plan.ConvPrim[N]).outputLayout(), Layout::CHW);
  }
}

TEST(Strategies, FamilyStrategyOnlyPicksItsFamilyOrSum2D) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = alexNet(0.2);
  NetworkPlan Plan =
      planForStrategy(Strategy::FamilyWinograd, Net, lib(), Prov);
  for (auto N : Net.convNodes()) {
    ConvFamily F = lib().get(Plan.ConvPrim[N]).family();
    EXPECT_TRUE(F == ConvFamily::Winograd || F == ConvFamily::Sum2D)
        << Net.node(N).L.Name;
  }
  // AlexNet conv1 is K=11 stride 4: Winograd cannot take it.
  EXPECT_EQ(lib().get(Plan.ConvPrim[Net.convNodes()[0]]).family(),
            ConvFamily::Sum2D);
}

/// The paper's central claim, as a property over networks and profiles: the
/// PBQP plan's modelled cost is never worse than any baseline strategy's.
class PBQPBeatsBaselines
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(PBQPBeatsBaselines, OptimalityOverStrategies) {
  auto [Model, Arm] = GetParam();
  AnalyticCostProvider Prov = makeProvider(1, Arm);
  NetworkGraph Net = Model == "tiny-dag" ? tinyDag(16)
                     : Model == "tiny-chain"
                         ? tinyChain(16)
                         : *buildModel(Model, 0.2);

  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  ASSERT_TRUE(R.Solver.ProvablyOptimal);
  for (Strategy S : figureStrategies(true)) {
    if (S == Strategy::PBQP)
      continue;
    NetworkPlan Plan = planForStrategy(S, Net, lib(), Prov);
    double Cost = modelPlanCost(Plan, Net, lib(), Prov);
    EXPECT_LE(R.ModelledCostMs, Cost + 1e-6)
        << "PBQP lost to " << strategyName(S) << " on " << Model;
  }
  // Greedy ignores edge costs, so PBQP must also not lose to it.
  NetworkPlan Greedy = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  EXPECT_LE(R.ModelledCostMs,
            modelPlanCost(Greedy, Net, lib(), Prov) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndProfiles, PBQPBeatsBaselines,
    ::testing::Combine(::testing::Values("tiny-chain", "tiny-dag", "alexnet",
                                         "vgg-b", "googlenet"),
                       ::testing::Bool()),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + (std::get<1>(Info.param) ? "_arm" : "_intel");
    });

TEST(Legalizer, DetectsUnlegalizedPlans) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  ASSERT_TRUE(isLegalized(Plan, Net));
  // Break it: force a conv's input layout without re-legalizing.
  for (auto N : Net.convNodes()) {
    Layout Producer = Plan.OutLayout[Net.node(N).Inputs[0]];
    if (Plan.Chains.count({N, 0}) == 0) {
      Plan.InLayout[N] =
          Producer == Layout::WHC ? Layout::CHW : Layout::WHC;
      EXPECT_FALSE(isLegalized(Plan, Net));
      return;
    }
  }
  // If every edge had a chain, corrupt one chain's tail instead.
  auto It = Plan.Chains.begin();
  It->second.back() = It->second.back() == Layout::WHC ? Layout::CHW
                                                       : Layout::WHC;
  EXPECT_FALSE(isLegalized(Plan, Net));
}

TEST(Legalizer, ChainsUseOnlyDirectRoutines) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = *buildModel("googlenet", 0.15);
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  for (const auto &[Edge, Chain] : Plan.Chains) {
    ASSERT_GE(Chain.size(), 2u);
    for (size_t I = 0; I + 1 < Chain.size(); ++I)
      EXPECT_TRUE(hasDirectTransform(Chain[I], Chain[I + 1]));
  }
}

TEST(SolverOverhead, WellUnderOneSecondForAllModels) {
  // §5.4: "Solving the PBQP optimization query took less than one second
  // for each of the networks" -- and the solver must report optimality.
  AnalyticCostProvider Prov = makeProvider();
  for (const std::string &Name : modelNames()) {
    NetworkGraph Net = *buildModel(Name, 0.2);
    SelectionResult R = optimizeNetwork(Net, lib(), Prov);
    EXPECT_TRUE(R.Solver.ProvablyOptimal) << Name;
    EXPECT_LT(R.SolveMillis, 1000.0) << Name;
  }
}

} // namespace
