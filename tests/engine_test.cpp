//===- tests/engine_test.cpp - the unified optimizer engine ---------------===//

#include "engine/Engine.h"

#include "batch/Minibatch.h"
#include "cost/AnalyticModel.h"
#include "nn/Models.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  static PrimitiveLibrary L = buildFullLibrary();
  return L;
}

AnalyticCostProvider makeProvider(unsigned Threads = 1) {
  return AnalyticCostProvider(lib(), MachineProfile::haswell(), Threads);
}

TEST(Engine, AllBackendsSelectableByNameAndAgree) {
  AnalyticCostProvider Prov = makeProvider();
  // Brute force enumerates the full assignment space, so use a micro
  // network: two convs and two dummies keep it around 10^4 assignments.
  NetworkGraph Net("micro");
  NetworkGraph::NodeId In = Net.addInput("data", TensorShape{3, 16, 16});
  NetworkGraph::NodeId C1 =
      Net.addLayer(Layer::conv("c1", 8, 3, /*Stride=*/1, /*Pad=*/1), {In});
  NetworkGraph::NodeId R1 = Net.addLayer(Layer::relu("r1"), {C1});
  Net.addLayer(Layer::conv("c2", 4, 1), {R1});

  double Expected = -1.0;
  for (const char *Name : {"brute", "reduction", "bb"}) {
    EngineOptions Opts;
    Opts.Solver = Name;
    SelectionResult R = optimizeNetwork(Net, lib(), Prov, Opts);
    EXPECT_EQ(R.Backend, Name);
    EXPECT_TRUE(R.Solver.ProvablyOptimal) << Name;
    EXPECT_TRUE(isLegalized(R.Plan, Net)) << Name;
    if (Expected < 0)
      Expected = R.Solver.TotalCost;
    else
      EXPECT_NEAR(R.Solver.TotalCost, Expected, 1e-9) << Name;
  }
}

TEST(Engine, RepeatedQueriesReuseTheCostCache) {
  AnalyticCostProvider Prov = makeProvider();
  Engine Eng(lib(), Prov);
  NetworkGraph Net = tinyDag(32);

  SelectionResult First = Eng.optimize(Net);
  EXPECT_GT(First.Cache.queries(), 0u);
  EXPECT_GT(First.Cache.misses(), 0u);
  // Within even a single query the builder re-asks costs, so strictly
  // fewer raw evaluations than queries.
  EXPECT_LT(First.Cache.misses(), First.Cache.queries());

  SelectionResult Second = Eng.optimize(Net);
  // The repeated query pays no new raw evaluations...
  EXPECT_EQ(Second.Cache.misses(), First.Cache.misses());
  EXPECT_GT(Second.Cache.queries(), First.Cache.queries());
  // ...and reproduces the same result.
  EXPECT_DOUBLE_EQ(Second.ModelledCostMs, First.ModelledCostMs);
  EXPECT_EQ(Second.Plan.ConvPrim, First.Plan.ConvPrim);
}

TEST(Engine, ParallelPrepopulationMatchesSerial) {
  AnalyticCostProvider SerialProv = makeProvider();
  AnalyticCostProvider ParallelProv = makeProvider();
  NetworkGraph Net = tinyDag(32);

  EngineOptions Serial;
  Serial.Threads = 1;
  EngineOptions Parallel;
  Parallel.Threads = 4;

  SelectionResult A = optimizeNetwork(Net, lib(), SerialProv, Serial);
  SelectionResult B = optimizeNetwork(Net, lib(), ParallelProv, Parallel);
  EXPECT_DOUBLE_EQ(A.ModelledCostMs, B.ModelledCostMs);
  EXPECT_EQ(A.Plan.ConvPrim, B.Plan.ConvPrim);
  EXPECT_EQ(A.Solver.TotalCost, B.Solver.TotalCost);
}

TEST(Engine, PlanForRoutesStrategiesThroughTheCache) {
  AnalyticCostProvider Prov = makeProvider();
  Engine Eng(lib(), Prov);
  NetworkGraph Net = tinyDag(32);

  NetworkPlan Pbqp = Eng.planFor(Strategy::PBQP, Net);
  NetworkPlan Greedy = Eng.planFor(Strategy::Greedy, Net);
  ASSERT_FALSE(Pbqp.empty());
  ASSERT_FALSE(Greedy.empty());
  EXPECT_TRUE(isLegalized(Greedy, Net));
  // PBQP is optimal under the model, so it can only be at least as good.
  EXPECT_LE(Eng.planCost(Pbqp, Net), Eng.planCost(Greedy, Net) + 1e-9);

  // The strategy planning hit the same memo table the PBQP query filled.
  ASSERT_NE(Eng.cacheStats(), nullptr);
  EXPECT_GT(Eng.cacheStats()->hits(), 0u);
}

TEST(Engine, ThreadAxisPlansDoNotDependOnTheConfiguredThreadCount) {
  // An explicit thread axis prices every alternative at its own count, so
  // the provider's configured count (the Threads == 0 answer) must not
  // leak into the plan: a 4-thread model selects exactly what a 1-thread
  // model selects.
  NetworkGraph Net = *buildModel("resnet18", 0.25);
  EngineOptions Opts;
  Opts.ExecThreadCandidates = {1, 2, 4};
  AnalyticCostProvider One = makeProvider(1);
  AnalyticCostProvider Four = makeProvider(4);
  SelectionResult A = optimizeNetwork(Net, lib(), One, Opts);
  SelectionResult B = optimizeNetwork(Net, lib(), Four, Opts);
  ASSERT_FALSE(A.Plan.empty());
  EXPECT_EQ(A.Plan.ConvPrim, B.Plan.ConvPrim);
  EXPECT_EQ(A.Plan.ConvThreads, B.Plan.ConvThreads);
}

TEST(Engine, FormulateMatchesOptimizeSizes) {
  AnalyticCostProvider Prov = makeProvider();
  Engine Eng(lib(), Prov);
  NetworkGraph Net = tinyDag(32);

  PBQPFormulation F = Eng.formulate(Net);
  SelectionResult R = Eng.optimize(Net);
  EXPECT_EQ(F.G.numNodes(), R.NumNodes);
  EXPECT_EQ(F.G.numEdges(), R.NumEdges);
  EXPECT_EQ(F.G.numNodes(), Net.numNodes());
}

TEST(Engine, InstantiateAndEmitSourceHandoffs) {
  AnalyticCostProvider Prov = makeProvider();
  Engine Eng(lib(), Prov);
  NetworkGraph Net = tinyChain(24);

  SelectionResult R = Eng.optimize(Net);
  std::unique_ptr<Executor> Exec = Eng.instantiate(Net, R.Plan);
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(5);
  RunResult Run = Exec->run(In);
  EXPECT_GT(Run.TotalMillis, 0.0);

  std::string Source = Eng.emitSource(Net, R.Plan);
  EXPECT_NE(Source.find("class Program"), std::string::npos);
  EXPECT_NE(Source.find("run"), std::string::npos);
}

TEST(Engine, OneOffOptionsDoNotDisturbTheEngine) {
  AnalyticCostProvider Prov = makeProvider();
  Engine Eng(lib(), Prov);
  NetworkGraph Net = tinyChain(32);

  SelectionResult Default = Eng.optimize(Net);
  EngineOptions BB;
  BB.Solver = "bb";
  SelectionResult Exact = Eng.optimize(Net, BB);
  EXPECT_EQ(Exact.Backend, "bb");
  EXPECT_NEAR(Exact.Solver.TotalCost, Default.Solver.TotalCost, 1e-9);

  // The engine still runs its configured backend afterwards.
  SelectionResult Again = Eng.optimize(Net);
  EXPECT_EQ(Again.Backend, "reduction");
}

//===----------------------------------------------------------------------===//
// Golden analytic plans
//===----------------------------------------------------------------------===//

/// Append \p Plan over \p Net to \p Out as golden-file lines: a "plan"
/// title, a "cost" line with the modelled costs, one "node" line per node
/// (primitive name and thread count for conv nodes, the in/out layouts for
/// every node) and one "chain" line per legalization chain.
void renderPlan(std::vector<std::string> &Out, const std::string &Title,
                const NetworkPlan &Plan, const NetworkGraph &Net,
                const PrimitiveLibrary &Lib, std::vector<double> Costs) {
  Out.push_back("plan " + Title);
  std::string CostLine = "cost";
  for (double C : Costs) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.17g", C);
    CostLine += Buf;
  }
  Out.push_back(CostLine);
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    std::string Line = "node " + std::to_string(N) + " " + Node.L.Name;
    if (!isDummyKind(Node.L.Kind))
      Line += " " + Lib.get(Plan.ConvPrim[N]).name() + " t" +
              std::to_string(Plan.convThreads(N));
    Line += std::string(" ") + layoutName(Plan.InLayout[N]) + ">" +
            layoutName(Plan.OutLayout[N]);
    Out.push_back(Line);
  }
  for (const auto &[Edge, Chain] : Plan.Chains) {
    std::string Line = "chain " + std::to_string(Edge.first) + "." +
                       std::to_string(Edge.second);
    for (Layout L : Chain)
      Line += std::string(" ") + layoutName(L);
    Out.push_back(Line);
  }
}

/// Modelled per-run cost of a batch-bucket plan under the analytic haswell
/// model at one thread, from the model's free functions: conv run phases
/// plus every legalization hop once per image. The engine reports no cost
/// for bucket plans, so the golden file pins this recomputation.
double bucketPerRunMs(const NetworkPlan &Plan, const NetworkGraph &Net,
                      const PrimitiveLibrary &Lib) {
  MachineProfile Haswell = MachineProfile::haswell();
  double Total = 0.0;
  for (NetworkGraph::NodeId N : Net.convNodes())
    Total += analyticConvCost(Lib.get(Plan.ConvPrim[N]), Net.node(N).Scenario,
                              Haswell, Plan.convThreads(N));
  for (const auto &[Edge, Chain] : Plan.Chains) {
    const TensorShape &Shape =
        Net.node(Net.node(Edge.first).Inputs[Edge.second]).OutShape;
    for (size_t I = 0; I + 1 < Chain.size(); ++I)
      Total += static_cast<double>(Net.batch()) *
               analyticTransformCost(Chain[I], Chain[I + 1], Shape, Haswell,
                                     1);
  }
  return Total;
}

/// Every analytic plan the golden file pins: each zoo model at scale 0.25
/// under AnalyticCostProvider(haswell, 1) one-shot, amortized, and
/// amortized over the thread axis {1, 2, 4}; then resnet18's ladder
/// buckets 2/4/8 over the batched library.
std::vector<std::string> renderGoldenPlans() {
  std::vector<std::string> Out;
  AnalyticCostProvider Prov = makeProvider();
  for (const std::string &Model : modelNames()) {
    NetworkGraph Net = *buildModel(Model, 0.25);
    EngineOptions OneShot;
    SelectionResult R = optimizeNetwork(Net, lib(), Prov, OneShot);
    renderPlan(Out, Model + " one-shot", R.Plan, Net, lib(),
               {R.ModelledCostMs});

    EngineOptions Amortized;
    Amortized.AmortizeWeightTransforms = true;
    R = optimizeNetwork(Net, lib(), Prov, Amortized);
    renderPlan(Out, Model + " amortized", R.Plan, Net, lib(),
               {R.ModelledCostMs, R.ModelledPerRunMs, R.ModelledPrepareMs});

    Amortized.ExecThreadCandidates = {1, 2, 4};
    R = optimizeNetwork(Net, lib(), Prov, Amortized);
    renderPlan(Out, Model + " amortized et1,2,4", R.Plan, Net, lib(),
               {R.ModelledCostMs, R.ModelledPerRunMs, R.ModelledPrepareMs});
  }

  PrimitiveLibrary Batched = buildBatchedLibrary();
  AnalyticCostProvider BatchedProv(Batched, MachineProfile::haswell(), 1);
  EngineOptions LadderOpts;
  LadderOpts.AmortizeWeightTransforms = true;
  Engine Eng(Batched, BatchedProv, LadderOpts);
  LadderOptions LO;
  LO.Buckets = {2, 4, 8};
  LO.Background = false;
  std::shared_ptr<CompiledNetLadder> L =
      Eng.compileLadder(*buildModel("resnet18", 0.25), LO);
  if (!L) {
    ADD_FAILURE() << "resnet18 ladder failed to compile";
    return Out;
  }
  for (int64_t B : {2, 4, 8}) {
    std::shared_ptr<const CompiledNet> CN = L->bucket(B);
    if (!CN) {
      ADD_FAILURE() << "bucket " << B << " not resident";
      continue;
    }
    renderPlan(Out, "resnet18 bucket " + std::to_string(B), CN->plan(),
               CN->graph(), Batched,
               {bucketPerRunMs(CN->plan(), CN->graph(), Batched)});
  }
  return Out;
}

// ROADMAP's gate "every zoo model selects the same plan under the analytic
// model", as a test: the plans and modelled costs recorded in
// tests/data/golden_analytic_plans.txt must be reproduced exactly (costs
// up to EXPECT_DOUBLE_EQ). An intended plan change regenerates the file
// from the golden_analytic_plans.actual.txt this test writes on mismatch.
TEST(Engine, AnalyticPlansMatchTheGoldenFile) {
  std::vector<std::string> Actual = renderGoldenPlans();
  std::ifstream In(std::string(PRIMSEL_TEST_DATA_DIR) +
                   "/golden_analytic_plans.txt");
  EXPECT_TRUE(In) << "missing golden file";
  std::vector<std::string> Expected;
  for (std::string Line; std::getline(In, Line);)
    Expected.push_back(Line);

  EXPECT_EQ(Actual.size(), Expected.size());
  unsigned Reported = 0;
  std::string Title;
  for (size_t I = 0; I < std::min(Actual.size(), Expected.size()); ++I) {
    if (Expected[I].rfind("plan ", 0) == 0)
      Title = Expected[I];
    bool Same = Actual[I] == Expected[I];
    if (!Same && Actual[I].rfind("cost", 0) == 0 &&
        Expected[I].rfind("cost", 0) == 0) {
      std::istringstream A(Actual[I].substr(4)), E(Expected[I].substr(4));
      double X, Y;
      Same = true;
      while (E >> Y) {
        if (!(A >> X)) {
          Same = false;
          break;
        }
        EXPECT_DOUBLE_EQ(X, Y) << Title;
      }
      Same = Same && !(A >> X);
    }
    if (!Same && Reported++ < 10)
      ADD_FAILURE() << Title << "\n  expected: " << Expected[I]
                    << "\n  actual:   " << Actual[I];
  }
  if (HasFailure()) {
    std::ofstream Dump("golden_analytic_plans.actual.txt");
    for (const std::string &Line : Actual)
      Dump << Line << "\n";
  }
}

} // namespace
