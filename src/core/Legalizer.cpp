//===- core/Legalizer.cpp -------------------------------------------------===//

#include "core/Legalizer.h"

#include <cassert>

using namespace primsel;

bool primsel::legalize(NetworkPlan &Plan, const NetworkGraph &Net,
                       DTTableCache &Tables) {
  assert(Plan.OutLayout.size() == Net.numNodes() &&
         Plan.InLayout.size() == Net.numNodes() && "plan not sized");
  Plan.Chains.clear();
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    for (unsigned I = 0; I < Node.Inputs.size(); ++I) {
      NetworkGraph::NodeId Producer = Node.Inputs[I];
      Layout From = Plan.OutLayout[Producer];
      Layout To = Plan.InLayout[N];
      if (From == To)
        continue;
      const DTTable &T = Tables.get(Net.node(Producer).OutShape);
      if (!T.reachable(From, To))
        return false;
      Plan.Chains[{N, I}] = T.path(From, To);
    }
  }
  return true;
}

namespace {

/// The cost query behind conv node \p N of \p Plan. A plan without a
/// thread axis carries no per-node worker decision, so it asks for the
/// provider's configured count rather than an explicit 1.
CostQuery nodeQuery(const NetworkPlan &Plan, const NetworkGraph &Net,
                    NetworkGraph::NodeId N) {
  return {Net.node(N).Scenario, Plan.ConvPrim[N],
          Plan.ConvThreads.empty() ? 0u : Plan.convThreads(N)};
}

/// Call \p OnHop with the batch-weighted cost of every hop of every
/// legalization chain: each image flowing along the edge is converted.
template <typename HopFn>
void forEachHop(const NetworkPlan &Plan, const NetworkGraph &Net,
                CostProvider &Costs, HopFn OnHop) {
  const double Batch = static_cast<double>(Net.batch());
  for (const auto &[Edge, Chain] : Plan.Chains) {
    assert(Chain.size() >= 2 && "degenerate legalization chain");
    NetworkGraph::NodeId Producer = Net.node(Edge.first).Inputs[Edge.second];
    const TensorShape &Shape = Net.node(Producer).OutShape;
    for (size_t I = 0; I + 1 < Chain.size(); ++I)
      OnHop(Batch * Costs.transformCost(Chain[I], Chain[I + 1], Shape));
  }
}

} // namespace

double primsel::modelPlanCost(const NetworkPlan &Plan,
                              const NetworkGraph &Net,
                              const PrimitiveLibrary &Lib,
                              CostProvider &Costs) {
  (void)Lib; // kept in the signature for symmetry with planForStrategy
  double Total = 0.0;
  for (NetworkGraph::NodeId N : Net.convNodes())
    Total += Costs.cost(nodeQuery(Plan, Net, N)).totalMs();
  forEachHop(Plan, Net, Costs, [&](double Ms) { Total += Ms; });
  return Total;
}

CostBreakdown primsel::modelPlanCostBreakdown(const NetworkPlan &Plan,
                                              const NetworkGraph &Net,
                                              const PrimitiveLibrary &Lib,
                                              CostProvider &Costs) {
  (void)Lib;
  CostBreakdown Total;
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    CostBreakdown B = Costs.cost(nodeQuery(Plan, Net, N));
    Total.PerRunMs += B.PerRunMs;
    Total.AmortizedMs += B.AmortizedMs;
  }
  forEachHop(Plan, Net, Costs, [&](double Ms) { Total.PerRunMs += Ms; });
  return Total;
}

bool primsel::isLegalized(const NetworkPlan &Plan, const NetworkGraph &Net) {
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    for (unsigned I = 0; I < Node.Inputs.size(); ++I) {
      Layout From = Plan.OutLayout[Node.Inputs[I]];
      Layout To = Plan.InLayout[N];
      auto It = Plan.Chains.find({N, I});
      if (It == Plan.Chains.end()) {
        if (From != To)
          return false;
        continue;
      }
      const std::vector<Layout> &Chain = It->second;
      if (Chain.size() < 2 || Chain.front() != From || Chain.back() != To)
        return false;
    }
  }
  return true;
}
