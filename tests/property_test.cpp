//===- tests/property_test.cpp - cross-cutting property tests -------------===//
//
// Properties validated against *independent oracles*: DT-graph reachability
// against a plain BFS over the routine set, PBQP with infinite edge entries
// against brute force, the Winograd generator across its whole (m, r) grid,
// and full-scale model geometry against the published architectures.
//
//===----------------------------------------------------------------------===//

#include "core/DTGraph.h"
#include "nn/Models.h"
#include "pbqp/BruteForce.h"
#include "pbqp/Solver.h"
#include "support/Random.h"
#include "tensor/Transform.h"
#include "winograd/ToomCook.h"

#include <gtest/gtest.h>

#include <cmath>
#include <queue>

using namespace primsel;

namespace {

/// Oracle provider: unit cost for allowed routines, +inf for forbidden
/// ones (selected by a bitmask over directTransformRoutines()).
class MaskedProvider : public CostProvider {
public:
  explicit MaskedProvider(uint32_t AllowMask) : AllowMask(AllowMask) {}

  CostBreakdown cost(const CostQuery &) override { return {1.0, 0.0}; }
  double transformCost(Layout From, Layout To,
                       const TensorShape &) override {
    const auto &Routines = directTransformRoutines();
    for (size_t I = 0; I < Routines.size(); ++I)
      if (Routines[I].From == From && Routines[I].To == To)
        return (AllowMask >> I) & 1
                   ? 1.0
                   : std::numeric_limits<double>::infinity();
    return std::numeric_limits<double>::infinity();
  }

private:
  uint32_t AllowMask;
};

/// Independent BFS reachability over the allowed routine subset.
bool bfsReachable(uint32_t AllowMask, Layout From, Layout To) {
  if (From == To)
    return true;
  const auto &Routines = directTransformRoutines();
  std::vector<bool> Seen(NumLayouts, false);
  std::queue<Layout> Work;
  Work.push(From);
  Seen[static_cast<unsigned>(From)] = true;
  while (!Work.empty()) {
    Layout Cur = Work.front();
    Work.pop();
    for (size_t I = 0; I < Routines.size(); ++I) {
      if (!((AllowMask >> I) & 1) || Routines[I].From != Cur)
        continue;
      Layout Next = Routines[I].To;
      if (Next == To)
        return true;
      if (!Seen[static_cast<unsigned>(Next)]) {
        Seen[static_cast<unsigned>(Next)] = true;
        Work.push(Next);
      }
    }
  }
  return false;
}

class DTGraphMasks : public ::testing::TestWithParam<int> {};

TEST_P(DTGraphMasks, FloydWarshallMatchesBFSOracle) {
  Rng R(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  const unsigned NumRoutines =
      static_cast<unsigned>(directTransformRoutines().size());
  uint32_t Mask =
      static_cast<uint32_t>(R.next()) & ((1u << NumRoutines) - 1);
  MaskedProvider Prov(Mask);
  DTTable T = DTTable::build(Prov, {4, 4, 4}, 1);
  for (Layout A : AllLayouts)
    for (Layout B : AllLayouts)
      EXPECT_EQ(T.reachable(A, B), bfsReachable(Mask, A, B))
          << layoutName(A) << "->" << layoutName(B) << " mask " << Mask;
}

TEST_P(DTGraphMasks, PathsStayWithinAllowedRoutines) {
  Rng R(static_cast<uint64_t>(GetParam()) * 40503u + 3);
  const unsigned NumRoutines =
      static_cast<unsigned>(directTransformRoutines().size());
  uint32_t Mask =
      static_cast<uint32_t>(R.next()) & ((1u << NumRoutines) - 1);
  MaskedProvider Prov(Mask);
  DTTable T = DTTable::build(Prov, {4, 4, 4}, 1);
  const auto &Routines = directTransformRoutines();
  for (Layout A : AllLayouts)
    for (Layout B : AllLayouts) {
      std::vector<Layout> Path = T.path(A, B);
      for (size_t I = 0; I + 1 < Path.size(); ++I) {
        bool Allowed = false;
        for (size_t J = 0; J < Routines.size(); ++J)
          if (Routines[J].From == Path[I] && Routines[J].To == Path[I + 1])
            Allowed = ((Mask >> J) & 1) != 0;
        EXPECT_TRUE(Allowed) << "path used a forbidden routine";
      }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomRoutineSubsets, DTGraphMasks,
                         ::testing::Range(0, 20));

class PBQPWithInfinities : public ::testing::TestWithParam<int> {};

TEST_P(PBQPWithInfinities, SolverMatchesBruteForce) {
  // Random graphs where ~20% of edge entries are infinite: the solver's
  // reductions must propagate infinities exactly like brute force.
  Rng R(static_cast<uint64_t>(GetParam()) * 9176u + 5);
  pbqp::Graph G;
  unsigned NumNodes = 3 + static_cast<unsigned>(R.nextBelow(4));
  for (unsigned N = 0; N < NumNodes; ++N) {
    pbqp::CostVector V(2 + static_cast<unsigned>(R.nextBelow(2)));
    for (unsigned I = 0; I < V.length(); ++I)
      V[I] = R.nextFloat(0.0f, 10.0f);
    G.addNode(std::move(V));
  }
  for (unsigned U = 0; U < NumNodes; ++U)
    for (unsigned V = U + 1; V < NumNodes; ++V) {
      if (R.nextFloat() > 0.7f)
        continue;
      pbqp::CostMatrix M(G.nodeCosts(U).length(), G.nodeCosts(V).length());
      for (unsigned A = 0; A < M.rows(); ++A)
        for (unsigned B = 0; B < M.cols(); ++B)
          M.at(A, B) = R.nextFloat() < 0.2f ? pbqp::InfiniteCost
                                            : R.nextFloat(0.0f, 5.0f);
      G.addEdge(U, V, M);
    }

  pbqp::Solution S = pbqp::solve(G);
  pbqp::Solution BF = pbqp::solveBruteForce(G);
  if (std::isinf(BF.TotalCost)) {
    EXPECT_TRUE(std::isinf(S.TotalCost));
  } else {
    EXPECT_TRUE(S.ProvablyOptimal);
    EXPECT_NEAR(S.TotalCost, BF.TotalCost, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PBQPWithInfinities, ::testing::Range(0, 20));

TEST(WinogradGrid, EveryTileOnTheGridIsExact) {
  // The full (m, r) grid up to F(5,5): the generated bilinear algorithm
  // must compute correlation on the exact rationals for every tile.
  for (int64_t M = 1; M <= 5; ++M)
    for (int64_t R = 1; R <= 5; ++R) {
      WinogradTransform T = generateWinograd(M, R);
      ASSERT_EQ(T.N, M + R - 1);
      std::vector<Rational> G, D;
      for (int64_t I = 0; I < R; ++I)
        G.push_back(Rational(I + 1, 2));
      for (int64_t I = 0; I < T.N; ++I)
        D.push_back(Rational(2 * I - 3, 3));
      for (int64_t O = 0; O < M; ++O) {
        Rational Y(0);
        for (int64_t A = 0; A < T.N; ++A) {
          Rational Gg(0), Bd(0);
          for (int64_t B = 0; B < R; ++B)
            Gg += T.ExactG.at(A, B) * G[static_cast<size_t>(B)];
          for (int64_t B = 0; B < T.N; ++B)
            Bd += T.ExactBT.at(A, B) * D[static_cast<size_t>(B)];
          Y += T.ExactAT.at(O, A) * Gg * Bd;
        }
        Rational Want(0);
        for (int64_t K = 0; K < R; ++K)
          Want += G[static_cast<size_t>(K)] * D[static_cast<size_t>(O + K)];
        ASSERT_EQ(Y, Want) << "F(" << M << "," << R << ") output " << O;
      }
    }
}

TEST(FullScaleModels, PublishedGeometry) {
  // Spot-check the published full-resolution geometry.
  NetworkGraph Alex = alexNet(1.0);
  // conv5 output: 256 x 13 x 13.
  const auto &Conv5 = Alex.node(Alex.convNodes()[4]);
  EXPECT_EQ(Conv5.OutShape, (TensorShape{256, 13, 13}));

  NetworkGraph Vgg = vggD(1.0);
  // Last conv stage output before pool5: 512 x 14 x 14.
  const auto &LastConv = Vgg.node(Vgg.convNodes().back());
  EXPECT_EQ(LastConv.OutShape, (TensorShape{512, 14, 14}));

  NetworkGraph Goog = googLeNet(1.0);
  // inception_5b output: 1024 x 7 x 7; global average pool to 1024 x 1 x 1.
  for (const auto &N : Goog.nodes()) {
    if (N.L.Name == "inception_5b_output") {
      EXPECT_EQ(N.OutShape, (TensorShape{1024, 7, 7}));
    }
    if (N.L.Name == "pool5") {
      EXPECT_EQ(N.OutShape, (TensorShape{1024, 1, 1}));
    }
  }
}

TEST(FullScaleModels, ConvWorkMatchesPublishedOrder) {
  // Published MAC counts: AlexNet ~0.7 GMAC, VGG-16 ~15.3 GMAC,
  // GoogLeNet ~1.5 GMAC (within modelling slack: no grouped conv).
  EXPECT_NEAR(alexNet(1.0).totalConvMacs() / 1e9, 1.0, 0.45);
  EXPECT_NEAR(vggD(1.0).totalConvMacs() / 1e9, 15.3, 1.0);
  EXPECT_NEAR(googLeNet(1.0).totalConvMacs() / 1e9, 1.5, 0.5);
}

} // namespace
