//===- tests/solver_backend_test.cpp - backend registry + cost cache ------===//

#include "cost/CachingCostProvider.h"
#include "cost/AnalyticModel.h"
#include "nn/Models.h"
#include "pbqp/SolverBackend.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

using namespace primsel;
using namespace primsel::pbqp;

namespace {

Graph randomGraph(Rng &R, unsigned NumNodes, double EdgeProb,
                  unsigned MaxAlts) {
  Graph G;
  for (unsigned N = 0; N < NumNodes; ++N) {
    unsigned Alts = 1 + static_cast<unsigned>(R.nextBelow(MaxAlts));
    CostVector V(Alts);
    for (unsigned I = 0; I < Alts; ++I)
      V[I] = R.nextFloat(0.0f, 20.0f);
    G.addNode(std::move(V));
  }
  for (NodeId U = 0; U < NumNodes; ++U)
    for (NodeId V = U + 1; V < NumNodes; ++V) {
      if (R.nextFloat() >= EdgeProb)
        continue;
      CostMatrix M(G.nodeCosts(U).length(), G.nodeCosts(V).length());
      for (unsigned A = 0; A < M.rows(); ++A)
        for (unsigned B = 0; B < M.cols(); ++B)
          M.at(A, B) = R.nextFloat(0.0f, 10.0f);
      G.addEdge(U, V, M);
    }
  return G;
}

TEST(SolverRegistry, BuiltinBackendsAreRegistered) {
  std::vector<std::string> Names = SolverRegistry::instance().names();
  for (const char *Expected : {"reduction", "bb", "brute"}) {
    EXPECT_TRUE(SolverRegistry::instance().contains(Expected));
    EXPECT_NE(std::find(Names.begin(), Names.end(), Expected), Names.end());
  }
}

TEST(SolverRegistry, UnknownNameYieldsNull) {
  EXPECT_EQ(createSolverBackend("no-such-solver"), nullptr);
  EXPECT_FALSE(SolverRegistry::instance().contains("no-such-solver"));
}

TEST(SolverRegistry, CreateReportsItsOwnName) {
  for (const std::string &Name : SolverRegistry::instance().names()) {
    std::unique_ptr<SolverBackend> B = createSolverBackend(Name);
    ASSERT_NE(B, nullptr);
    EXPECT_EQ(Name, B->name());
  }
}

TEST(SolverRegistry, DuplicateRegistrationIsRejected) {
  EXPECT_FALSE(SolverRegistry::instance().add(
      "reduction", [] { return createSolverBackend("brute"); }));
}

TEST(SolverBackend, AllBackendsAgreeOnRandomGraphs) {
  Rng R(2026);
  BackendOptions Options;
  std::unique_ptr<SolverBackend> Reduction = createSolverBackend("reduction");
  std::unique_ptr<SolverBackend> BB = createSolverBackend("bb");
  std::unique_ptr<SolverBackend> Brute = createSolverBackend("brute");

  for (unsigned Trial = 0; Trial < 40; ++Trial) {
    unsigned NumNodes = 2 + static_cast<unsigned>(R.nextBelow(6));
    Graph G = randomGraph(R, NumNodes, 0.5, 4);

    Solution Oracle = Brute->solve(G, Options);
    Solution Red = Reduction->solve(G, Options);
    Solution Exact = BB->solve(G, Options);

    ASSERT_EQ(Red.Selection.size(), G.numNodes());
    ASSERT_EQ(Exact.Selection.size(), G.numNodes());
    // The reduction solver enumerates these tiny cores exactly, so all
    // three backends must find the same optimal cost.
    EXPECT_TRUE(Red.ProvablyOptimal);
    EXPECT_TRUE(Exact.ProvablyOptimal);
    EXPECT_NEAR(Red.TotalCost, Oracle.TotalCost, 1e-9) << "trial " << Trial;
    EXPECT_NEAR(Exact.TotalCost, Oracle.TotalCost, 1e-9)
        << "trial " << Trial;
    // And the reported cost must match the selection evaluated on the
    // original graph.
    EXPECT_NEAR(G.solutionCost(Red.Selection), Red.TotalCost, 1e-9);
    EXPECT_NEAR(G.solutionCost(Exact.Selection), Exact.TotalCost, 1e-9);
  }
}

TEST(SolverBackend, OptionsReachTheBackend) {
  Rng R(7);
  Graph G = randomGraph(R, 8, 0.9, 3);

  // A one-visit budget forces branch-and-bound to abort: the result is no
  // longer provably optimal, which shows the options slice arrived.
  BackendOptions Tight;
  Tight.BranchBound.MaxVisits = 1;
  std::unique_ptr<SolverBackend> BB = createSolverBackend("bb");
  Solution Budgeted = BB->solve(G, Tight);
  EXPECT_FALSE(Budgeted.ProvablyOptimal);
  EXPECT_LE(Budgeted.NumVisited, 2u);

  BackendOptions Unlimited;
  Solution Full = BB->solve(G, Unlimited);
  EXPECT_TRUE(Full.ProvablyOptimal);
  EXPECT_GT(Full.NumVisited, Budgeted.NumVisited);
}

/// Wraps the analytic model and counts raw evaluations, to verify the
/// cache's miss counters against ground truth.
class CountingProvider : public CostProvider {
public:
  explicit CountingProvider(CostProvider &Inner) : Inner(Inner) {}

  double convCost(const ConvScenario &S, PrimitiveId Id) override {
    ++ConvEvals;
    return Inner.convCost(S, Id);
  }
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override {
    ++TransformEvals;
    return Inner.transformCost(From, To, Shape);
  }

  // Atomic: prepopulate() queries the inner provider from pool threads.
  std::atomic<uint64_t> ConvEvals{0};
  std::atomic<uint64_t> TransformEvals{0};

private:
  CostProvider &Inner;
};

TEST(CachingCostProvider, RepeatedQueriesHitTheCache) {
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Analytic(Lib, MachineProfile::haswell(), 1);
  CountingProvider Counted(Analytic);
  CachingCostProvider Cached(Counted);

  NetworkGraph Net = tinyChain(32);
  ASSERT_FALSE(Net.convNodes().empty());
  const ConvScenario &S = Net.node(Net.convNodes().front()).Scenario;
  std::vector<PrimitiveId> Ids = Lib.supporting(S);
  ASSERT_GE(Ids.size(), 2u);

  // Two full sweeps: the second is pure hits.
  for (unsigned Round = 0; Round < 2; ++Round)
    for (PrimitiveId Id : Ids)
      EXPECT_DOUBLE_EQ(Cached.convCost(S, Id), Analytic.convCost(S, Id));

  const CostCacheStats &Stats = Cached.stats();
  EXPECT_EQ(Stats.ConvQueries, 2 * Ids.size());
  EXPECT_EQ(Stats.ConvMisses, Ids.size());
  EXPECT_LT(Stats.misses(), Stats.queries());
  EXPECT_EQ(Stats.hits(), Ids.size());
  // The miss counter is exactly the raw evaluation count.
  EXPECT_EQ(Counted.ConvEvals.load(), Stats.ConvMisses);

  TensorShape Sh{16, 14, 14};
  for (unsigned Round = 0; Round < 3; ++Round)
    Cached.transformCost(Layout::CHW, Layout::HWC, Sh);
  EXPECT_EQ(Cached.stats().TransformQueries, 3u);
  EXPECT_EQ(Cached.stats().TransformMisses, 1u);
  EXPECT_EQ(Counted.TransformEvals.load(), 1u);
}

TEST(CachingCostProvider, PrepopulateCoversTheBuilderQueries) {
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Analytic(Lib, MachineProfile::haswell(), 1);
  CountingProvider Counted(Analytic);
  CachingCostProvider Cached(Counted);

  NetworkGraph Net = tinyDag(32);
  ThreadPool Pool(4);
  Cached.prepopulate(Net, Lib, Pool);
  uint64_t EvalsAfterPrepopulate = Counted.ConvEvals + Counted.TransformEvals;
  EXPECT_GT(EvalsAfterPrepopulate, 0u);
  EXPECT_EQ(Cached.size(), EvalsAfterPrepopulate);

  // Every conv cost the builder can ask for is now cached.
  for (NetworkGraph::NodeId N : Net.convNodes())
    for (PrimitiveId Id : Lib.supporting(Net.node(N).Scenario))
      Cached.convCost(Net.node(N).Scenario, Id);
  EXPECT_EQ(Counted.ConvEvals + Counted.TransformEvals,
            EvalsAfterPrepopulate);

  // Prepopulating again is a no-op.
  Cached.prepopulate(Net, Lib, Pool);
  EXPECT_EQ(Counted.ConvEvals + Counted.TransformEvals,
            EvalsAfterPrepopulate);
}

TEST(CachingCostProvider, ParallelAndSerialPrepopulateAgree) {
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Analytic(Lib, MachineProfile::cortexA57(), 1);
  CachingCostProvider Serial(Analytic);
  CachingCostProvider Parallel(Analytic);

  NetworkGraph Net = tinyDag(24);
  ThreadPool One(1), Many(4);
  Serial.prepopulate(Net, Lib, One);
  Parallel.prepopulate(Net, Lib, Many);
  EXPECT_EQ(Serial.size(), Parallel.size());

  for (NetworkGraph::NodeId N : Net.convNodes()) {
    const ConvScenario &S = Net.node(N).Scenario;
    for (PrimitiveId Id : Lib.supporting(S))
      EXPECT_DOUBLE_EQ(Serial.convCost(S, Id), Parallel.convCost(S, Id));
  }
}

} // namespace
