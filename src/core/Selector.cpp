//===- core/Selector.cpp --------------------------------------------------===//

#include "core/Selector.h"

#include <cassert>

using namespace primsel;

NetworkPlan primsel::planFromSolution(const PBQPFormulation &F,
                                      const std::vector<unsigned> &Selection,
                                      const NetworkGraph &Net,
                                      const PrimitiveLibrary &Lib,
                                      DTTableCache &Tables) {
  NetworkPlan Plan;
  Plan.ConvPrim.assign(Net.numNodes(), 0);
  Plan.OutLayout.assign(Net.numNodes(), Layout::CHW);
  Plan.InLayout.assign(Net.numNodes(), Layout::CHW);
  // Materialize the per-node worker counts only when the formulation has a
  // real thread axis; otherwise leave ConvThreads empty, keeping plans from
  // single-threaded formulations byte-identical to their historical shape
  // (the plan cache round-trips them without thread tokens).
  bool HasThreadAxis = false;
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N)
    for (unsigned T : F.ConvAltThreads[N])
      HasThreadAxis |= T > 1;
  if (HasThreadAxis)
    Plan.ConvThreads.assign(Net.numNodes(), 1);
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    unsigned Alt = Selection[N];
    if (!F.ConvAlternatives[N].empty()) {
      PrimitiveId P = F.ConvAlternatives[N][Alt];
      Plan.ConvPrim[N] = P;
      Plan.InLayout[N] = Lib.get(P).inputLayout();
      Plan.OutLayout[N] = Lib.get(P).outputLayout();
      if (HasThreadAxis)
        Plan.ConvThreads[N] = F.ConvAltThreads[N][Alt];
    } else {
      Layout L = F.LayoutAlternatives[N][Alt];
      Plan.InLayout[N] = L;
      Plan.OutLayout[N] = L;
    }
  }

  bool Legal = legalize(Plan, Net, Tables);
  assert(Legal && "PBQP solution with finite cost must be legalizable");
  (void)Legal;
  return Plan;
}
