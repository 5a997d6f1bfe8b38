//===- core/PBQPBuilder.cpp -----------------------------------------------===//

#include "core/PBQPBuilder.h"

#include <algorithm>
#include <cassert>

using namespace primsel;

namespace {

/// The layout a node's alternative consumes its inputs in.
Layout altInLayout(const PBQPFormulation &F, const PrimitiveLibrary &Lib,
                   NetworkGraph::NodeId N, unsigned Alt) {
  if (!F.ConvAlternatives[N].empty())
    return Lib.get(F.ConvAlternatives[N][Alt]).inputLayout();
  return F.LayoutAlternatives[N][Alt];
}

/// The layout a node's alternative produces its output in.
Layout altOutLayout(const PBQPFormulation &F, const PrimitiveLibrary &Lib,
                    NetworkGraph::NodeId N, unsigned Alt) {
  if (!F.ConvAlternatives[N].empty())
    return Lib.get(F.ConvAlternatives[N][Alt]).outputLayout();
  return F.LayoutAlternatives[N][Alt];
}

} // namespace

PBQPFormulation primsel::buildPBQP(
    const NetworkGraph &Net, const PrimitiveLibrary &Lib, CostProvider &Costs,
    DTTableCache &Tables, bool AmortizeWeightTransforms,
    const std::vector<unsigned> &ThreadCandidates) {
  PBQPFormulation F;
  F.ConvAlternatives.resize(Net.numNodes());
  F.ConvAltThreads.resize(Net.numNodes());
  F.LayoutAlternatives.resize(Net.numNodes());

  // The thread axis of the alternative space, and the CostQuery thread
  // value behind each entry: the default axis {1} asks for the provider's
  // configured count, since an explicit 1 is not the same query as "no
  // thread decision" for providers that model a fixed multi-threaded
  // machine.
  std::vector<unsigned> ThreadAxis = ThreadCandidates;
  if (ThreadAxis.empty())
    ThreadAxis.push_back(1);
  for (unsigned &T : ThreadAxis)
    T = std::max(T, 1u);
  std::vector<unsigned> QueryThreads = costQueryThreads(ThreadAxis);

  // Nodes: cost vectors over alternatives. Both costed kinds (Conv and
  // DepthwiseConv) draw their alternatives from the library; the supporting
  // set is already partitioned by the scenario's depthwise flag.
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (!isDummyKind(Node.L.Kind)) {
      std::vector<PrimitiveId> Prims = Lib.supporting(Node.Scenario);
      assert(!Prims.empty() &&
             "no primitive supports a conv scenario (the reference "
             "routines should)");
      // (primitive, threads) cross product, thread-major: the layout-side
      // helpers below index ConvAlternatives[N][Alt] directly, so the
      // repeated primitive entries keep them correct with no thread logic.
      std::vector<PrimitiveId> Alts;
      std::vector<unsigned> AltThreads;
      Alts.reserve(Prims.size() * ThreadAxis.size());
      AltThreads.reserve(Prims.size() * ThreadAxis.size());
      pbqp::CostVector V(
          static_cast<unsigned>(Prims.size() * ThreadAxis.size()));
      unsigned I = 0;
      for (size_t TI = 0; TI < ThreadAxis.size(); ++TI)
        for (PrimitiveId Id : Prims) {
          V[I++] = convNodeCost(Costs, Node.Scenario, Id, QueryThreads[TI],
                                AmortizeWeightTransforms);
          Alts.push_back(Id);
          AltThreads.push_back(ThreadAxis[TI]);
        }
      F.ConvAlternatives[N] = std::move(Alts);
      F.ConvAltThreads[N] = std::move(AltThreads);
      pbqp::NodeId Id = F.G.addNode(std::move(V));
      (void)Id;
      assert(Id == N && "PBQP ids must mirror network ids");
      continue;
    }
    // Dummy node: zero cost for every layout; inputs pinned to CHW.
    std::vector<Layout> Alts;
    if (Node.L.Kind == LayerKind::Input)
      Alts = {Layout::CHW};
    else
      Alts.assign(AllLayouts.begin(), AllLayouts.end());
    pbqp::CostVector V(static_cast<unsigned>(Alts.size()), 0.0);
    F.LayoutAlternatives[N] = std::move(Alts);
    pbqp::NodeId Id = F.G.addNode(std::move(V));
    (void)Id;
    assert(Id == N && "PBQP ids must mirror network ids");
  }

  // Edges: DT shortest-chain cost between the producer's output layout and
  // the consumer's input layout on the producer's output shape. Residual
  // diamonds need no special casing: a value consumed by both a block body
  // and a skip Add contributes one PBQP edge per consumer, so the solver
  // prices keeping the producer's layout consistent for both against
  // transforming each edge separately (pbqp::Graph merges parallel edges by
  // summing matrices, covering Add(x, x) degenerate diamonds too).
  auto NumAlts = [&](NetworkGraph::NodeId N) {
    return F.ConvAlternatives[N].empty()
               ? static_cast<unsigned>(F.LayoutAlternatives[N].size())
               : static_cast<unsigned>(F.ConvAlternatives[N].size());
  };

  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    for (NetworkGraph::NodeId P : Node.Inputs) {
      const DTTable &T = Tables.get(Net.node(P).OutShape);
      pbqp::CostMatrix M(NumAlts(P), NumAlts(N));
      for (unsigned A = 0; A < M.rows(); ++A) {
        Layout From = altOutLayout(F, Lib, P, A);
        for (unsigned B = 0; B < M.cols(); ++B) {
          Layout To = altInLayout(F, Lib, N, B);
          double C = T.cost(From, To);
          M.at(A, B) = C;
        }
      }
      F.G.addEdge(P, N, std::move(M));
    }
  }
  return F;
}

double primsel::convNodeCost(CostProvider &Costs, const ConvScenario &S,
                             PrimitiveId Prim, unsigned QueryThreads,
                             bool AmortizeWeightTransforms) {
  CostBreakdown B = Costs.cost({S, Prim, QueryThreads});
  return AmortizeWeightTransforms ? B.PerRunMs : B.totalMs();
}
