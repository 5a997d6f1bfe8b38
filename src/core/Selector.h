//===- core/Selector.h - PBQP-based optimal selection -----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outcome of PBQP selection and the mapping from a solver's answer back
/// to a legalized primitive/layout assignment. The end-to-end optimizer
/// that builds the query from the network and the cost tables and solves
/// it is Engine (engine/Engine.h) (paper §3/§5.2: "we extracted all
/// convolutional scenarios in the graph, performed the profiling to gather
/// cost data, and constructed the PBQP query for the minimum cost
/// instantiation").
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_CORE_SELECTOR_H
#define PRIMSEL_CORE_SELECTOR_H

#include "core/Legalizer.h"
#include "core/PBQPBuilder.h"
#include "core/Plan.h"
#include "cost/CachingCostProvider.h"
#include "pbqp/Solver.h"
#include "transforms/Pass.h"

#include <memory>
#include <string>
#include <vector>

namespace primsel {

/// Outcome of a PBQP selection.
struct SelectionResult {
  NetworkPlan Plan;
  /// Modelled total cost of the legalized plan, in ms.
  double ModelledCostMs = 0.0;
  /// Serving split of the plan's modelled cost, filled by engine runs with
  /// EngineOptions.AmortizeWeightTransforms: ModelledPerRunMs is the
  /// steady-state per-inference cost the solver actually minimized, and
  /// ModelledPrepareMs the one-time weight-side work Engine::compile
  /// hoists. Both zero when amortization is off (ModelledCostMs is then
  /// the only metric, as historically).
  double ModelledPerRunMs = 0.0;
  double ModelledPrepareMs = 0.0;
  /// Wall-clock time spent solving the PBQP query (§5.4 reports < 1 s).
  double SolveMillis = 0.0;
  /// Wall-clock time spent gathering costs and building the PBQP query.
  double BuildMillis = 0.0;
  /// Solver statistics, including provable optimality.
  pbqp::Solution Solver;
  /// Name of the solver backend that produced Solver.
  std::string Backend = "reduction";
  /// PBQP instance sizes, for the overhead report.
  unsigned NumNodes = 0;
  unsigned NumEdges = 0;
  /// Snapshot of the engine's cost-cache counters taken at the end of the
  /// run. The counters are cumulative over the engine's lifetime, so for a
  /// multi-query engine subtract the previous result's snapshot to get
  /// per-run numbers.
  CostCacheStats Cache;
  /// True when the engine served this result from its plan cache
  /// (engine/PlanCache.h) instead of solving; SolveMillis is then 0 and
  /// BuildMillis is the cache lookup time.
  bool PlanCacheHit = false;
  /// The pass-rewritten graph this result's Plan indexes, when the engine
  /// ran a transform pipeline (EngineOptions.Passes); null at O0, where
  /// the plan indexes the caller's graph. Executors and code generation
  /// must be handed executionGraph() -- and, since Executor borrows the
  /// graph by reference, this result (or a copy of the shared_ptr) must
  /// outlive them.
  std::shared_ptr<const NetworkGraph> Rewritten;
  /// Per-pass rewrite statistics (empty at O0 and on plan-cache hits that
  /// skipped nothing -- the pipeline reruns on every optimize call, cache
  /// hit or not, so hits carry the stats of that rerun).
  std::vector<transforms::PassStats> Passes;

  /// The graph this result's node indexes refer to: the rewritten graph
  /// when the transform pipeline ran, \p Original otherwise.
  const NetworkGraph &executionGraph(const NetworkGraph &Original) const {
    return Rewritten ? *Rewritten : Original;
  }
};

/// Map a PBQP solution's per-node \p Selection back onto the network as a
/// primitive/layout assignment and legalize it. The engine layer
/// (engine/Engine.h) runs the selection pipeline and calls this to map
/// its solver's answer back.
NetworkPlan planFromSolution(const PBQPFormulation &F,
                             const std::vector<unsigned> &Selection,
                             const NetworkGraph &Net,
                             const PrimitiveLibrary &Lib,
                             DTTableCache &Tables);

} // namespace primsel

#endif // PRIMSEL_CORE_SELECTOR_H
