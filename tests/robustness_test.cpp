//===- tests/robustness_test.cpp - edge cases and failure injection -------===//
//
// Deliberately hostile inputs: restricted DT graphs that make legalization
// fail, infinite edge costs flowing through the PBQP formulation, plans
// corrupted after legalization (death tests), degenerate scenarios, and
// determinism/idempotence properties across the stack.
//
//===----------------------------------------------------------------------===//

#include "core/Legalizer.h"
#include "core/Strategies.h"
#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "cost/CostDatabase.h"
#include "pbqp/BruteForce.h"
#include "runtime/Executor.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  static PrimitiveLibrary L = buildFullLibrary();
  return L;
}

/// A provider that forbids a chosen set of direct transform routines by
/// pricing them at infinity -- simulating a library with fewer conversion
/// routines, the situation §3.1 worries about.
class RestrictedTransformProvider : public CostProvider {
public:
  RestrictedTransformProvider(CostProvider &Inner, bool ForbidAll)
      : Inner(Inner), ForbidAll(ForbidAll) {}

  CostBreakdown cost(const CostQuery &Q) override { return Inner.cost(Q); }
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override {
    if (ForbidAll)
      return std::numeric_limits<double>::infinity();
    return Inner.transformCost(From, To, Shape);
  }

private:
  CostProvider &Inner;
  bool ForbidAll;
};

TEST(Robustness, DTTableWithNoUsableRoutines) {
  AnalyticCostProvider Base(lib(), MachineProfile::haswell(), 1);
  RestrictedTransformProvider Prov(Base, /*ForbidAll=*/true);
  DTTable T = DTTable::build(Prov, {8, 8, 8}, 1);
  for (Layout A : AllLayouts)
    for (Layout B : AllLayouts) {
      if (A == B) {
        EXPECT_TRUE(T.reachable(A, B));
        EXPECT_EQ(T.cost(A, B), 0.0);
      } else {
        EXPECT_FALSE(T.reachable(A, B));
        EXPECT_TRUE(T.path(A, B).empty());
      }
    }
}

TEST(Robustness, PBQPStillSolvesWithForbiddenTransforms) {
  // With every conversion forbidden, the optimizer must fall back to a
  // layout-coherent instantiation (all-CHW works: sum2d is CHW/CHW and the
  // input is pinned CHW), and the legalizer must succeed with no chains.
  AnalyticCostProvider Base(lib(), MachineProfile::haswell(), 1);
  RestrictedTransformProvider Prov(Base, /*ForbidAll=*/true);
  NetworkGraph Net = tinyDag(16);
  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  EXPECT_TRUE(std::isfinite(R.Solver.TotalCost));
  EXPECT_TRUE(R.Plan.Chains.empty());
  EXPECT_TRUE(isLegalized(R.Plan, Net));
  // Every chosen conv must have a coherent layout path; with no converts
  // possible, every edge must already match.
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N)
    for (NetworkGraph::NodeId P : Net.node(N).Inputs)
      EXPECT_EQ(R.Plan.OutLayout[P], R.Plan.InLayout[N]);
}

TEST(Robustness, LegalizeFailsWhenChainImpossible) {
  AnalyticCostProvider Base(lib(), MachineProfile::haswell(), 1);
  RestrictedTransformProvider Prov(Base, /*ForbidAll=*/true);
  NetworkGraph Net = tinyChain(16);
  DTTableCache Tables(Prov, Net);

  // Force a plan that needs a transform: greedy under the unrestricted
  // provider, then legalize under the restricted one.
  AnalyticCostProvider Free(lib(), MachineProfile::haswell(), 1);
  NetworkPlan Plan = planForStrategy(Strategy::MkldnnLike, Net, lib(), Free);
  ASSERT_FALSE(Plan.Chains.empty()) << "test needs a transforming plan";
  EXPECT_FALSE(legalize(Plan, Net, Tables));
}

#if GTEST_HAS_DEATH_TEST
TEST(RobustnessDeathTest, ExecutorRejectsUnlegalizedPlan) {
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  // Corrupt: demand an input layout nobody produces, without re-running
  // the legalizer.
  auto Convs = Net.convNodes();
  Plan.InLayout[Convs[0]] = Layout::WCH;
  Plan.Chains.clear();
  EXPECT_DEATH(
      { Executor Exec(Net, Plan, lib()); },
      "legalized");
}

TEST(RobustnessDeathTest, GraphRejectsSelfEdges) {
  EXPECT_DEATH(
      {
        pbqp::Graph G;
        pbqp::NodeId N = G.addNode(pbqp::CostVector(2, 0.0));
        G.addEdge(N, N, pbqp::CostMatrix(2, 2, 0.0));
      },
      "elf edges");
}

TEST(RobustnessDeathTest, BruteForceRefusesHugeSpaces) {
  pbqp::Graph G;
  for (int I = 0; I < 40; ++I)
    G.addNode(pbqp::CostVector(4, 1.0));
  EXPECT_DEATH(pbqp::solveBruteForce(G, /*MaxAssignments=*/1e6),
               "assignment space");
}
#endif

TEST(Robustness, DegenerateOneByOneNetwork) {
  // A 1x1 spatial extent network: pooling and winograd edge paths.
  NetworkGraph Net("dot");
  auto In = Net.addInput("in", {4, 3, 3});
  auto C1 = Net.addLayer(Layer::conv("c", 8, 3, 1, 0), {In}); // -> 1x1
  auto Fc = Net.addLayer(Layer::fullyConnected("fc", 3), {C1});
  (void)Fc;
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  Executor Exec(Net, R.Plan, lib());
  Tensor3D Input(4, 3, 3, Layout::CHW);
  Input.fillRandom(1);
  Exec.run(Input);
  EXPECT_EQ(Exec.networkOutput().channels(), 3);
}

TEST(Robustness, SingleConvNetworkEveryStrategy) {
  NetworkGraph Net("single");
  auto In = Net.addInput("in", {3, 9, 9});
  Net.addLayer(Layer::conv("only", 4, 3, 1, 1), {In});
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  Engine Eng(lib(), Prov);
  for (uint8_t I = 0; I <= static_cast<uint8_t>(Strategy::ArmclLike); ++I) {
    NetworkPlan Plan = Eng.planFor(static_cast<Strategy>(I), Net);
    EXPECT_TRUE(isLegalized(Plan, Net));
    Executor Exec(Net, Plan, lib());
    Tensor3D Input(3, 9, 9, Layout::CHW);
    Input.fillRandom(2);
    Exec.run(Input);
  }
}

TEST(Robustness, TransformCompositionProperty) {
  // Converting A -> B -> C equals converting A -> C directly, for random
  // layout triples.
  Tensor3D A(3, 5, 7, Layout::CHW);
  A.fillRandom(17);
  for (Layout Mid : AllLayouts)
    for (Layout End : AllLayouts) {
      Tensor3D Via = convertToLayout(convertToLayout(A, Mid), End);
      Tensor3D Direct = convertToLayout(A, End);
      EXPECT_EQ(maxAbsDifference(Via, Direct), 0.0f)
          << layoutName(Mid) << " " << layoutName(End);
    }
}

TEST(Robustness, PrimitiveInstancesAreReusable) {
  // An instance must produce identical results across repeated runs and
  // tolerate interleaved inputs (no hidden state).
  ConvScenario S{4, 10, 10, 1, 3, 6, 1};
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(3);
  Tensor3D In1(S.C, S.H, S.W, Layout::CHW), In2(S.C, S.H, S.W, Layout::CHW);
  In1.fillRandom(4);
  In2.fillRandom(5);

  for (const char *Name :
       {"im2col-b-chw-chw", "wino2d-m4r3-vf8-chw-chw", "kn2row-as-b-chw-chw",
        "fft1d-chw-chw", "sparse-im2col-chw-chw"}) {
    auto Id = lib().findByName(Name);
    ASSERT_TRUE(Id.has_value()) << Name;
    auto Inst = lib().get(*Id).instantiate(S, W);
    RunContext Ctx{nullptr};
    Tensor3D OutA(S.M, S.outHeight(), S.outWidth(), Layout::CHW);
    Tensor3D OutB(S.M, S.outHeight(), S.outWidth(), Layout::CHW);
    Inst->run(In1, OutA, Ctx);
    Inst->run(In2, OutB, Ctx); // interleave a different input
    Tensor3D OutA2(S.M, S.outHeight(), S.outWidth(), Layout::CHW);
    Inst->run(In1, OutA2, Ctx);
    EXPECT_EQ(maxAbsDifference(OutA, OutA2), 0.0f) << Name;
  }
}

TEST(Robustness, SolverIdempotentOnSameGraph) {
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  NetworkGraph Net = *buildModel("googlenet", 0.15);
  DTTableCache Tables(Prov, Net);
  PBQPFormulation F = buildPBQP(Net, lib(), Prov, Tables);
  pbqp::Solution A = pbqp::solve(F.G);
  pbqp::Solution B = pbqp::solve(F.G);
  EXPECT_EQ(A.Selection, B.Selection);
  EXPECT_DOUBLE_EQ(A.TotalCost, B.TotalCost);
}

TEST(Robustness, ModelPlanCostMatchesExecutedStructure) {
  // The modelled cost must count exactly the chains the execution plan
  // will run: compile the plan and cross-check transform step counts.
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  NetworkGraph Net = *buildModel("googlenet", 0.15);
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  ExecutionPlan Program = ExecutionPlan::compile(Net, Plan, lib());
  unsigned Hops = 0;
  for (const auto &[Edge, Chain] : Plan.Chains)
    Hops += static_cast<unsigned>(Chain.size() - 1);
  EXPECT_EQ(Program.numTransformSteps(), Hops);
  EXPECT_EQ(Program.numConvSteps(), Net.convNodes().size());
}

TEST(Robustness, AnalyticJitterStaysBounded) {
  // The deterministic tie-breaking perturbation must stay within its
  // documented envelope so it can never invert a >17% real difference.
  MachineProfile P = MachineProfile::haswell();
  ConvScenario S{16, 14, 14, 1, 3, 16, 1};
  for (PrimitiveId Id = 0; Id < lib().size(); ++Id) {
    if (!lib().get(Id).supports(S))
      continue;
    double A = analyticConvCost(lib().get(Id), S, P, 1);
    double B = analyticConvCost(lib().get(Id), S, P, 1);
    EXPECT_DOUBLE_EQ(A, B);
    EXPECT_GT(A, 0.0);
  }
}

TEST(Robustness, CostDatabaseToleratesJunkLines) {
  std::string Path = ::testing::TempDir() + "/primsel_junk_db.txt";
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("conv c1_h1_w1_s1_k1_m1_p1|sum2d|t1 1.5\n", F);
    std::fputs("garbage line that is not a record 0\n", F);
    std::fputs("dt CHW>HWC|c1_h2_w3 0.25\n", F);
    std::fclose(F);
  }
  CostDatabase DB;
  EXPECT_TRUE(DB.load(Path));
  ConvScenario S{1, 1, 1, 1, 1, 1, 1};
  EXPECT_TRUE(DB.hasConvCost(S, "sum2d", 1));
  EXPECT_TRUE(DB.hasTransformCost(Layout::CHW, Layout::HWC, {1, 2, 3}));
  std::remove(Path.c_str());
}

} // namespace
