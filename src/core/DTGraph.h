//===- core/DTGraph.h - Data-layout transformation graph --------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DT graph of §3.1: "Considering the set of data layouts supported by
/// a DNN library as nodes in a graph, we can construct a data-layout
/// transformation (DT) graph" whose edges are the direct transformation
/// routines. Because the direct-routine set is incomplete, converting
/// between some layouts requires a chain; "rather than computing the
/// shortest path between each pair of nodes each time we need it, we
/// instead compute the all-pairs shortest path for the DT graph ahead of
/// time. Where no path exists ... the cost ... is infinite."
///
/// Transform costs depend on the tensor shape flowing along the edge, so a
/// DTTable is built per shape; DTTableCache memoizes them. In a batched
/// network (paper §8) every image flowing along an edge is converted, so
/// each direct routine is weighted by the minibatch size before the
/// shortest paths are computed.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_CORE_DTGRAPH_H
#define PRIMSEL_CORE_DTGRAPH_H

#include "cost/CostProvider.h"
#include "nn/Graph.h"
#include "tensor/Layout.h"

#include <map>
#include <vector>

namespace primsel {

/// All-pairs shortest transformation costs and paths between the six
/// layouts, for one tensor shape.
class DTTable {
public:
  /// Run Floyd-Warshall over the library's direct routines, with edge
  /// weights taken from \p Costs for tensors of \p Shape, each multiplied
  /// by \p Batch.
  static DTTable build(CostProvider &Costs, const TensorShape &Shape,
                       int64_t Batch);

  /// Cheapest total transformation cost From -> To (0 when equal, +inf when
  /// unreachable).
  double cost(Layout From, Layout To) const;

  /// The layout sequence of the cheapest chain, inclusive of both ends
  /// ({From} when equal). Empty when unreachable.
  std::vector<Layout> path(Layout From, Layout To) const;

  /// True if a finite-cost chain exists.
  bool reachable(Layout From, Layout To) const;

private:
  double Dist[NumLayouts][NumLayouts];
  int Next[NumLayouts][NumLayouts]; ///< successor on the best path, -1 none
};

/// Memoizes DTTables by shape for one network; selection for a whole
/// network touches only a handful of distinct shapes. The tables are
/// weighted by \p Net's minibatch size (NetworkGraph::batch()).
class DTTableCache {
public:
  DTTableCache(CostProvider &Costs, const NetworkGraph &Net)
      : Costs(Costs), Batch(Net.batch()) {}

  const DTTable &get(const TensorShape &Shape);

private:
  CostProvider &Costs;
  int64_t Batch;
  std::map<std::tuple<int64_t, int64_t, int64_t>, DTTable> Tables;
};

} // namespace primsel

#endif // PRIMSEL_CORE_DTGRAPH_H
