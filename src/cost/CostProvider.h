//===- cost/CostProvider.h - Cost source interface --------------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface through which the selector obtains costs: either measured
/// by the layerwise profiler (the paper's approach, §3.1) or estimated by
/// the analytic machine model (our substitute for hardware we do not have).
///
/// A provider answers exactly the two cost kinds of the paper's PBQP
/// instance (§3.2). cost(CostQuery) returns one instance cost as a
/// CostBreakdown, and every caller picks its mode from the breakdown:
/// one-shot selection reads totalMs(), serving-mode selection PerRunMs.
/// Thread count and minibatch size are query fields, not separate entry
/// points. transformCost() prices one direct layout-transform routine on
/// one image; the formulation (core/DTGraph.h, core/Legalizer.h) weights it
/// by the graph's batch.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_COST_COSTPROVIDER_H
#define PRIMSEL_COST_COSTPROVIDER_H

#include "nn/Graph.h"
#include "nn/Layer.h"
#include "primitives/Registry.h"
#include "tensor/Layout.h"

#include <algorithm>
#include <string>
#include <vector>

namespace primsel {

/// A cost split into its serving-relevant halves (paper §4: cost tables --
/// and the kernel transforms themselves -- can be produced once before
/// deployment and shipped with the trained model). PerRunMs is the
/// steady-state per-inference cost; AmortizedMs is the weight-side work
/// (layout packing, Winograd/FFT kernel transforms, quantization tables)
/// a compile-once/serve-many deployment pays exactly once per model.
struct CostBreakdown {
  double PerRunMs = 0.0;
  double AmortizedMs = 0.0;

  double totalMs() const { return PerRunMs + AmortizedMs; }
};

/// One instance-cost query: implement scenario \p S (whose Batch field
/// carries the minibatch size) with primitive \p Id on up to \p Threads
/// intra-op workers. Threads == 0 asks for the provider's configured
/// count; any other value asks for that count exactly. The distinction
/// matters for providers that model or measure a fixed multi-threaded
/// machine (the paper's separate (M) cost model, §5.2).
struct CostQuery {
  ConvScenario S;
  PrimitiveId Id = 0;
  unsigned Threads = 0;

  bool operator==(const CostQuery &O) const {
    return Id == O.Id && Threads == O.Threads && S == O.S;
  }
};

/// The CostQuery::Threads value behind each entry of a formulation's
/// thread axis. The default axis {1} carries no thread decision, so it
/// asks for the provider's configured count (0); an explicit axis asks
/// for each count as given (clamped to >= 1). The PBQP builder and
/// CachingCostProvider::prepopulate both map through here, so
/// prepopulation fills exactly the keys the builder asks for.
inline std::vector<unsigned>
costQueryThreads(const std::vector<unsigned> &Axis) {
  if (Axis.empty() || (Axis.size() == 1 && Axis[0] <= 1))
    return {0};
  std::vector<unsigned> Threads = Axis;
  for (unsigned &T : Threads)
    T = std::max(T, 1u);
  return Threads;
}

/// Supplies the two cost kinds the PBQP formulation needs (paper §3.2):
/// instance costs for (scenario, primitive) pairs, and data layout
/// transformation costs for the tensors flowing along graph edges.
class CostProvider {
public:
  virtual ~CostProvider();

  /// Instance cost of \p Q, in milliseconds, split into its per-inference
  /// and amortizable weight-side halves. Only called when the primitive
  /// supports the scenario. Both halves are non-negative; weight-side
  /// prepare work is single-threaded, so only PerRunMs may vary with
  /// Q.Threads.
  virtual CostBreakdown cost(const CostQuery &Q) = 0;

  /// Execution time, in milliseconds, of one *direct* transform routine
  /// From -> To on one image of \p Shape. Only called for routines in
  /// directTransformRoutines(). Transforms act on activations, which every
  /// inference converts afresh, so the whole cost is per-run; batched
  /// formulations multiply it by the minibatch size.
  virtual double transformCost(Layout From, Layout To,
                               const TensorShape &Shape) = 0;

  /// Stable text identity of the cost source -- the machine-profile
  /// component of the engine's plan-cache key (engine/PlanCache.h). Two
  /// providers that would return different costs for the same query must
  /// report different identities, or cached plans optimized for one will be
  /// served for the other. The default covers ad-hoc test providers;
  /// production providers override it.
  virtual std::string identity() const { return "custom"; }

  /// The per-inference cost of implementing \p S with \p Id at the
  /// configured thread count: cost({S, Id}).PerRunMs.
  double convServingCost(const ConvScenario &S, PrimitiveId Id) {
    return cost({S, Id}).PerRunMs;
  }
};

} // namespace primsel

#endif // PRIMSEL_COST_COSTPROVIDER_H
