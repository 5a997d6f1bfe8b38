//===- cost/Profiler.h - Layerwise profiler ---------------------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement half of the paper's two-stage solution (§3.1): "we
/// profile the execution time of the primitive operating on tensors of the
/// size used in the layer", on random inputs, because "the cost of execution
/// of most DNN layers depends primarily on the dimensions of the input
/// rather than on the actual input values" (§2.2). Identical scenarios are
/// measured once ("Layerwise profiling need only be run once per hardware
/// platform per DNN model", §4); results are cached in a CostDatabase.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_COST_PROFILER_H
#define PRIMSEL_COST_PROFILER_H

#include "cost/CostDatabase.h"
#include "cost/CostProvider.h"
#include "support/ThreadPool.h"

#include <map>
#include <memory>

namespace primsel {

/// Knobs for the profiler.
struct ProfilerOptions {
  /// Threads the measured configuration uses (1 = the paper's (S) rows).
  unsigned Threads = 1;
  /// Timed repetitions; the minimum is kept (least-noise estimator for a
  /// deterministic workload).
  unsigned Repeats = 1;
  /// Untimed warm-up runs before measuring.
  unsigned Warmups = 1;
  /// Seed for the random inputs/weights.
  uint64_t Seed = 42;
};

/// CostProvider that measures on first use and memoizes in a CostDatabase.
class MeasuredCostProvider : public CostProvider {
public:
  MeasuredCostProvider(const PrimitiveLibrary &Lib,
                       const ProfilerOptions &Options = {});

  /// PerRunMs is the memoized run measurement under a pool of Q.Threads
  /// workers (Q.Threads == 0 means Options.Threads), read from and stored
  /// in that count's "|tN" record (CostDatabase::convCost) and measured
  /// under a pool created per distinct count. AmortizedMs is the measured prepare() time, taken
  /// during the first run measurement and memoized as a "prep" record
  /// shared across thread counts. Unlike the analytic model's totals,
  /// which contain the transform work in one modelled figure, totalMs()
  /// here sums two direct measurements.
  CostBreakdown cost(const CostQuery &Q) override;
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override;
  /// "measured-v3:t<threads>" -- measured costs are host-specific, so plan
  /// caches built from them must not be shipped across machines. (v2: the
  /// one-shot total includes the measured prepare() time. v3: every run
  /// record is keyed by its thread count, so no plan solved from a v2
  /// table, whose configured-count records did not say their count, is
  /// served.)
  std::string identity() const override;

  /// Measure one primitive on one scenario (no cache involvement): the
  /// best run() time in PerRunMs and the best time of the prepare() calls
  /// that set the measured instance up in AmortizedMs. \p Threads == 0
  /// runs at the configured Options.Threads; any other value runs under a
  /// pool of that many workers. prepare() is single-threaded.
  CostBreakdown measureConv(const ConvScenario &S, PrimitiveId Id,
                            unsigned Threads = 0);
  /// Measure one direct transform routine on one shape (no cache).
  double measureTransform(Layout From, Layout To, const TensorShape &Shape);
  /// Measure one primitive's weight-side prepare() on one scenario alone
  /// (no cache involvement). Single-threaded: prepare is compile-time
  /// work.
  double measurePrepare(const ConvScenario &S, PrimitiveId Id);

  /// The cache; expose it so tools can save/load it across processes.
  CostDatabase &database() { return Cache; }
  const CostDatabase &database() const { return Cache; }

  unsigned threads() const { return Options.Threads; }

private:
  /// The measurement pool for \p Threads workers (nullptr for 1), created
  /// on first use and cached.
  ThreadPool *poolFor(unsigned Threads);

  const PrimitiveLibrary &Lib;
  ProfilerOptions Options;
  CostDatabase Cache;
  std::unique_ptr<ThreadPool> Pool;
  /// Extra pools for explicit thread-count queries, keyed by worker count.
  std::map<unsigned, std::unique_ptr<ThreadPool>> PoolsAt;
};

} // namespace primsel

#endif // PRIMSEL_COST_PROFILER_H
