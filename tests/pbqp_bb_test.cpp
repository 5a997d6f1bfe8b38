//===- tests/pbqp_bb_test.cpp - branch-and-bound + TextIO tests -----------===//
//
// The exact branch-and-bound solver (pbqp/BranchBound.h) is validated
// against brute force over randomized instances -- including negative and
// infinite costs, which exercise the admissibility corner cases of its
// bound -- and against the reduction solver on the paper's Figure 2
// example and on real selection instances. The PBQP text format
// (pbqp/TextIO.h) is validated by exact round trips and diagnostics.
//
//===----------------------------------------------------------------------===//

#include "pbqp/BranchBound.h"

#include "core/DTGraph.h"
#include "core/PBQPBuilder.h"
#include "cost/AnalyticModel.h"
#include "nn/Models.h"
#include "pbqp/BruteForce.h"
#include "pbqp/TextIO.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace primsel;
using namespace primsel::pbqp;

namespace {

Graph randomGraph(Rng &R, unsigned NumNodes, double EdgeProb,
                  unsigned MaxAlts, float CostLo = 0.0f) {
  Graph G;
  for (unsigned N = 0; N < NumNodes; ++N) {
    unsigned Alts = 1 + static_cast<unsigned>(R.nextBelow(MaxAlts));
    CostVector V(Alts);
    for (unsigned I = 0; I < Alts; ++I)
      V[I] = R.nextFloat(CostLo, 20.0f);
    G.addNode(std::move(V));
  }
  for (NodeId U = 0; U < NumNodes; ++U)
    for (NodeId V = U + 1; V < NumNodes; ++V) {
      if (R.nextFloat() >= EdgeProb)
        continue;
      CostMatrix M(G.nodeCosts(U).length(), G.nodeCosts(V).length());
      for (unsigned A = 0; A < M.rows(); ++A)
        for (unsigned B = 0; B < M.cols(); ++B)
          M.at(A, B) = R.nextFloat(CostLo, 10.0f);
      G.addEdge(U, V, M);
    }
  return G;
}

//===----------------------------------------------------------------------===//
// Branch and bound vs brute force
//===----------------------------------------------------------------------===//

class BranchBoundRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BranchBoundRandomTest, MatchesBruteForceOnNonNegativeCosts) {
  Rng R(GetParam());
  Graph G = randomGraph(R, 8, 0.4, 4);
  Solution Want = solveBruteForce(G);
  Solution Got = solveBranchBound(G);
  EXPECT_TRUE(Got.ProvablyOptimal);
  EXPECT_DOUBLE_EQ(Got.TotalCost, Want.TotalCost);
  EXPECT_DOUBLE_EQ(G.solutionCost(Got.Selection), Got.TotalCost);
}

TEST_P(BranchBoundRandomTest, MatchesBruteForceOnNegativeCosts) {
  Rng R(GetParam() + 1000);
  Graph G = randomGraph(R, 7, 0.5, 3, /*CostLo=*/-15.0f);
  Solution Want = solveBruteForce(G);
  Solution Got = solveBranchBound(G);
  EXPECT_TRUE(Got.ProvablyOptimal);
  EXPECT_DOUBLE_EQ(Got.TotalCost, Want.TotalCost);
}

TEST_P(BranchBoundRandomTest, MatchesBruteForceWithForbiddenPairs) {
  Rng R(GetParam() + 2000);
  Graph G = randomGraph(R, 7, 0.6, 3);
  // Poison a third of all edge entries with the infinite cost, modelling
  // incompatible primitive pairs (§3: "Two incompatible primitives cannot
  // be connected, regardless of the optimality of such an arrangement").
  // Rebuild edges since Graph merges matrices additively.
  Graph Poisoned;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Poisoned.addNode(G.nodeCosts(N));
  for (const Graph::Edge &E : G.edges()) {
    CostMatrix M = E.Costs;
    for (unsigned A = 0; A < M.rows(); ++A)
      for (unsigned B = 0; B < M.cols(); ++B)
        if (R.nextFloat() < 0.33f)
          M.at(A, B) = InfiniteCost;
    Poisoned.addEdge(E.U, E.V, std::move(M));
  }
  Solution Want = solveBruteForce(Poisoned);
  Solution Got = solveBranchBound(Poisoned);
  EXPECT_TRUE(Got.ProvablyOptimal);
  if (Want.TotalCost == InfiniteCost)
    EXPECT_EQ(Got.TotalCost, InfiniteCost);
  else
    EXPECT_DOUBLE_EQ(Got.TotalCost, Want.TotalCost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchBoundRandomTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(BranchBound, EmptyAndTrivialGraphs) {
  Graph Empty;
  Solution S = solveBranchBound(Empty);
  EXPECT_TRUE(S.ProvablyOptimal);
  EXPECT_EQ(S.TotalCost, 0.0);

  Graph One;
  CostVector V(3);
  V[0] = 5.0;
  V[1] = 2.0;
  V[2] = 9.0;
  One.addNode(std::move(V));
  S = solveBranchBound(One);
  EXPECT_EQ(S.Selection[0], 1u);
  EXPECT_DOUBLE_EQ(S.TotalCost, 2.0);
}

TEST(BranchBound, Figure2ExampleCosts) {
  // The paper's worked example: node costs alone select B,C,B at 37; with
  // edge costs the optimum moves and totals 45 (Figure 2).
  Graph NodeOnly;
  auto Vec3 = [](double A, double B, double C) {
    CostVector V(3);
    V[0] = A;
    V[1] = B;
    V[2] = C;
    return V;
  };
  NodeOnly.addNode(Vec3(8, 6, 10));
  NodeOnly.addNode(Vec3(17, 19, 14));
  NodeOnly.addNode(Vec3(20, 17, 22));
  Solution S = solveBranchBound(NodeOnly);
  EXPECT_DOUBLE_EQ(S.TotalCost, 37.0);
  EXPECT_EQ(S.Selection, (std::vector<unsigned>{1, 2, 1}));
}

TEST(BranchBound, VisitBudgetAbortsGracefully) {
  Rng R(99);
  Graph G = randomGraph(R, 10, 0.8, 4);
  BranchBoundOptions Options;
  Options.MaxVisits = 3;
  Solution S = solveBranchBound(G, Options);
  EXPECT_FALSE(S.ProvablyOptimal);
  // The incumbent is still a complete, evaluable assignment.
  EXPECT_EQ(S.Selection.size(), G.numNodes());
  EXPECT_DOUBLE_EQ(G.solutionCost(S.Selection), S.TotalCost);
  EXPECT_LE(S.NumVisited, 3u);
}

TEST(BranchBound, PrunesAggressivelyOnChains) {
  // A 20-node chain has 4^20 ~ 10^12 assignments; the bound must collapse it.
  Rng R(7);
  Graph G;
  for (unsigned N = 0; N < 20; ++N) {
    CostVector V(4);
    for (unsigned I = 0; I < 4; ++I)
      V[I] = R.nextFloat(0.0f, 20.0f);
    G.addNode(std::move(V));
  }
  for (NodeId N = 0; N + 1 < 20; ++N) {
    CostMatrix M(4, 4);
    for (unsigned A = 0; A < 4; ++A)
      for (unsigned B = 0; B < 4; ++B)
        M.at(A, B) = R.nextFloat(0.0f, 10.0f);
    G.addEdge(N, N + 1, std::move(M));
  }
  Solution BB = solveBranchBound(G, {});
  ASSERT_TRUE(BB.ProvablyOptimal);
  // The reduction solver solves chains exactly (RI/RII only); cross-check.
  Solution Red = solve(G);
  ASSERT_TRUE(Red.ProvablyOptimal);
  EXPECT_NEAR(BB.TotalCost, Red.TotalCost, 1e-9);
  EXPECT_LT(BB.NumVisited, 1000000u);
}

TEST(BranchBound, AgreesWithReductionSolverOnRealFormulation) {
  NetworkGraph Net = tinyDag(24);
  PrimitiveLibrary Lib = buildFullLibrary();
  MachineProfile Prof = MachineProfile::haswell();
  AnalyticCostProvider Costs(Lib, Prof);
  DTTableCache Tables(Costs, Net);
  PBQPFormulation F = buildPBQP(Net, Lib, Costs, Tables);

  Solution Red = solve(F.G);
  ASSERT_TRUE(Red.ProvablyOptimal);
  Solution BB = solveBranchBound(F.G);
  ASSERT_TRUE(BB.ProvablyOptimal);
  EXPECT_NEAR(BB.TotalCost, Red.TotalCost, 1e-9);
}

//===----------------------------------------------------------------------===//
// Text serialization
//===----------------------------------------------------------------------===//

class TextIORoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextIORoundTripTest, DumpParseDumpIsExact) {
  Rng R(GetParam() + 5000);
  Graph G = randomGraph(R, 9, 0.5, 4);
  std::string Text = dumpGraph(G);
  GraphParseResult P = parseGraph(Text);
  ASSERT_TRUE(P.ok()) << P.Error << " at line " << P.Line;
  EXPECT_EQ(dumpGraph(*P.G), Text);
  // Semantics preserved: identical optimal cost.
  EXPECT_DOUBLE_EQ(solveBruteForce(*P.G).TotalCost,
                   solveBruteForce(G).TotalCost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextIORoundTripTest,
                         ::testing::Range<uint64_t>(1, 7));

TEST(TextIO, InfiniteCostsRoundTrip) {
  Graph G;
  CostVector V(2);
  V[0] = 1.0;
  V[1] = InfiniteCost;
  G.addNode(V);
  G.addNode(V);
  CostMatrix M(2, 2);
  M.at(0, 0) = InfiniteCost;
  M.at(1, 1) = 0.25;
  G.addEdge(0, 1, M);

  GraphParseResult P = parseGraph(dumpGraph(G));
  ASSERT_TRUE(P.ok()) << P.Error;
  EXPECT_EQ(P.G->nodeCosts(0)[1], InfiniteCost);
  EXPECT_EQ(P.G->edges()[0].Costs.at(0, 0), InfiniteCost);
  EXPECT_DOUBLE_EQ(P.G->edges()[0].Costs.at(1, 1), 0.25);
}

TEST(TextIO, RealSelectionInstanceRoundTrips) {
  NetworkGraph Net = tinyChain(24);
  PrimitiveLibrary Lib = buildFullLibrary();
  MachineProfile Prof = MachineProfile::haswell();
  AnalyticCostProvider Costs(Lib, Prof);
  DTTableCache Tables(Costs, Net);
  PBQPFormulation F = buildPBQP(Net, Lib, Costs, Tables);

  GraphParseResult P = parseGraph(dumpGraph(F.G));
  ASSERT_TRUE(P.ok()) << P.Error;
  ASSERT_EQ(P.G->numNodes(), F.G.numNodes());
  ASSERT_EQ(P.G->numEdges(), F.G.numEdges());
  Solution A = solve(F.G);
  Solution B = solve(*P.G);
  EXPECT_DOUBLE_EQ(A.TotalCost, B.TotalCost);
}

struct BadGraphCase {
  const char *Label;
  const char *Text;
  const char *ErrorFragment;
};

class TextIOErrorTest : public ::testing::TestWithParam<BadGraphCase> {};

TEST_P(TextIOErrorTest, ReportsDiagnostics) {
  GraphParseResult P = parseGraph(GetParam().Text);
  ASSERT_FALSE(P.ok()) << GetParam().Label;
  EXPECT_NE(P.Error.find(GetParam().ErrorFragment), std::string::npos)
      << "got: " << P.Error;
}

INSTANTIATE_TEST_SUITE_P(
    Errors, TextIOErrorTest,
    ::testing::Values(
        BadGraphCase{"no_header", "node 0 1 2\n", "pbqp"},
        BadGraphCase{"empty", "", "header"},
        BadGraphCase{"sparse_ids", "pbqp\nnode 1 1 2\n", "dense"},
        BadGraphCase{"bad_cost", "pbqp\nnode 0 1 banana\n", "malformed cost"},
        BadGraphCase{"edge_unknown_node", "pbqp\nnode 0 1 2\n"
                                          "edge 0 3 2 2 0 0 0 0\n",
                     "undeclared"},
        BadGraphCase{"self_edge", "pbqp\nnode 0 1 2\n"
                                  "edge 0 0 2 2 0 0 0 0\n",
                     "self edges"},
        BadGraphCase{"shape_mismatch", "pbqp\nnode 0 1 2\nnode 1 3\n"
                                       "edge 0 1 2 2 0 0 0 0\n",
                     "shape"},
        BadGraphCase{"value_count", "pbqp\nnode 0 1 2\nnode 1 3\n"
                                    "edge 0 1 2 1 0\n",
                     "value count"},
        BadGraphCase{"unknown_directive", "pbqp\nblob 0\n", "unknown"}),
    [](const ::testing::TestParamInfo<BadGraphCase> &I) {
      return std::string(I.param.Label);
    });

} // namespace
