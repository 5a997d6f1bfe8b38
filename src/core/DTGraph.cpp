//===- core/DTGraph.cpp ---------------------------------------------------===//

#include "core/DTGraph.h"

#include "tensor/Transform.h"

#include <cassert>
#include <limits>

using namespace primsel;

static constexpr double Inf = std::numeric_limits<double>::infinity();

DTTable DTTable::build(CostProvider &Costs, const TensorShape &Shape,
                       int64_t Batch) {
  DTTable T;
  for (unsigned I = 0; I < NumLayouts; ++I)
    for (unsigned J = 0; J < NumLayouts; ++J) {
      T.Dist[I][J] = I == J ? 0.0 : Inf;
      T.Next[I][J] = I == J ? static_cast<int>(J) : -1;
    }

  for (const TransformRoutineInfo &R : directTransformRoutines()) {
    unsigned F = static_cast<unsigned>(R.From);
    unsigned To = static_cast<unsigned>(R.To);
    double C = static_cast<double>(Batch) *
               Costs.transformCost(R.From, R.To, Shape);
    assert(C >= 0.0 && "negative transform cost");
    if (C < T.Dist[F][To]) {
      T.Dist[F][To] = C;
      T.Next[F][To] = static_cast<int>(To);
    }
  }

  // Floyd-Warshall (transitive closure with costs, §3.1).
  for (unsigned K = 0; K < NumLayouts; ++K)
    for (unsigned I = 0; I < NumLayouts; ++I) {
      if (T.Dist[I][K] == Inf)
        continue;
      for (unsigned J = 0; J < NumLayouts; ++J) {
        double Via = T.Dist[I][K] + T.Dist[K][J];
        if (Via < T.Dist[I][J]) {
          T.Dist[I][J] = Via;
          T.Next[I][J] = T.Next[I][K];
        }
      }
    }
  return T;
}

double DTTable::cost(Layout From, Layout To) const {
  return Dist[static_cast<unsigned>(From)][static_cast<unsigned>(To)];
}

bool DTTable::reachable(Layout From, Layout To) const {
  return cost(From, To) != Inf;
}

std::vector<Layout> DTTable::path(Layout From, Layout To) const {
  std::vector<Layout> Out;
  if (!reachable(From, To))
    return Out;
  unsigned Cur = static_cast<unsigned>(From);
  unsigned Dest = static_cast<unsigned>(To);
  Out.push_back(From);
  while (Cur != Dest) {
    int Step = Next[Cur][Dest];
    assert(Step >= 0 && "reachable pair without a successor");
    Cur = static_cast<unsigned>(Step);
    Out.push_back(static_cast<Layout>(Cur));
  }
  return Out;
}

const DTTable &DTTableCache::get(const TensorShape &Shape) {
  auto Key = std::make_tuple(Shape.C, Shape.H, Shape.W);
  auto It = Tables.find(Key);
  if (It != Tables.end())
    return It->second;
  return Tables.emplace(Key, DTTable::build(Costs, Shape, Batch))
      .first->second;
}
