//===- core/PBQPBuilder.h - DNN graph -> PBQP instance ----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps primitive selection in the presence of data layout transformations
/// onto PBQP (paper §3.2/§3.3). Conv layers become PBQP nodes whose
/// alternatives are the supporting primitives (node cost = profiled
/// execution time). All other layers become zero-cost wildcard nodes whose
/// alternatives are the six layouts ("All other layers were represented in
/// our formulation as dummy nodes, accepting any input and output layouts,
/// and having zero cost", §5.2); the input layer is pinned to the canonical
/// CHW. Edge cost matrices hold the shortest-chain DT cost between the
/// producer alternative's output layout and the consumer alternative's
/// input layout, on the tensor shape flowing along the edge.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_CORE_PBQPBUILDER_H
#define PRIMSEL_CORE_PBQPBUILDER_H

#include "core/DTGraph.h"
#include "nn/Graph.h"
#include "pbqp/Graph.h"
#include "primitives/Registry.h"

#include <vector>

namespace primsel {

/// A PBQP instance plus the mapping back to network decisions.
struct PBQPFormulation {
  pbqp::Graph G;
  /// Per network node (same index as PBQP node): the primitive behind each
  /// alternative, for Conv nodes. With thread candidates, a conv node's
  /// alternatives are (primitive, threads) pairs: the primitive list is
  /// repeated once per candidate, with ConvAltThreads carrying the thread
  /// half of the pair at the same index.
  std::vector<std::vector<PrimitiveId>> ConvAlternatives;
  /// Per network node: the intra-op worker count behind each alternative,
  /// parallel to ConvAlternatives (all-ones when the thread dimension is
  /// off).
  std::vector<std::vector<unsigned>> ConvAltThreads;
  /// Per network node: the layout behind each alternative, for non-Conv
  /// nodes.
  std::vector<std::vector<Layout>> LayoutAlternatives;
};

/// Build the PBQP instance for \p Net over \p Lib with costs from
/// \p Tables' provider. With \p AmortizeWeightTransforms (serving mode,
/// EngineOptions.AmortizeWeightTransforms), conv node costs are the
/// per-inference component of the provider's breakdown -- the weight-side
/// prepare work is compile-time in a compile-once/serve-many deployment,
/// so it must not influence the steady-state selection. Edge costs are
/// activation-side and identical in both modes; \p Tables must be built
/// for \p Net (DTTableCache(Costs, Net)), which weights them by its batch.
///
/// \p ThreadCandidates enables the thread-count dimension: each conv node's
/// alternatives become the cross product of supporting primitives and the
/// candidate worker counts, each costed with that count as
/// CostQuery::Threads. Empty (the default) means {1}, which queries
/// Threads = 0 -- the provider's configured count (costQueryThreads). A
/// primitive's layouts do not depend on its worker count, so edge cost
/// matrices replicate naturally across the thread axis and the PBQP
/// structure is otherwise unchanged.
PBQPFormulation
buildPBQP(const NetworkGraph &Net, const PrimitiveLibrary &Lib,
          CostProvider &Costs, DTTableCache &Tables,
          bool AmortizeWeightTransforms = false,
          const std::vector<unsigned> &ThreadCandidates = {});

/// The PBQP node cost of alternative (\p Prim, \p QueryThreads) on \p S, as
/// buildPBQP prices it: the per-inference component of the provider's
/// breakdown in serving mode, the total otherwise. \p QueryThreads is a
/// costQueryThreads value. Engine::compileBucket prices a bucket's
/// schedules through the same function.
double convNodeCost(CostProvider &Costs, const ConvScenario &S,
                    PrimitiveId Prim, unsigned QueryThreads,
                    bool AmortizeWeightTransforms);

} // namespace primsel

#endif // PRIMSEL_CORE_PBQPBUILDER_H
