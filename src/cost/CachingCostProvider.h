//===- cost/CachingCostProvider.h - Memoizing cost decorator ----*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memoizing decorator over any CostProvider. The PBQP builder asks for
/// the same (scenario, primitive) and transform costs many times within one
/// query -- and repeated/ensemble queries over the same network ask for
/// them again from scratch -- while the underlying evaluation (analytic
/// modelling, or worse, real profiling) is the dominant overhead of the
/// whole flow (the paper's §5.4 overhead story). CachingCostProvider pays
/// each raw evaluation once, keeps hit/miss counters so the saving is
/// observable, and can pre-populate the table in parallel on a ThreadPool
/// before the (serial) builder runs.
///
/// It holds two tables: whole CostBreakdowns keyed by the CostQuery exactly
/// as asked (Threads 0 and 1 are distinct keys, as they are distinct
/// questions), and direct transform costs keyed by (from, to, shape). One
/// entry serves both selection modes, since each reads its half of the
/// breakdown.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_COST_CACHINGCOSTPROVIDER_H
#define PRIMSEL_COST_CACHINGCOSTPROVIDER_H

#include "cost/CostProvider.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace primsel {

/// Query/miss counters of a CachingCostProvider. Misses equal the raw
/// evaluations forwarded to the wrapped provider; hits are served from the
/// memo table.
struct CostCacheStats {
  uint64_t ConvQueries = 0;
  uint64_t ConvMisses = 0;
  uint64_t TransformQueries = 0;
  uint64_t TransformMisses = 0;

  uint64_t queries() const { return ConvQueries + TransformQueries; }
  uint64_t misses() const { return ConvMisses + TransformMisses; }
  uint64_t hits() const { return queries() - misses(); }
};

/// Thread-safe memoizing CostProvider decorator.
class CachingCostProvider : public CostProvider {
public:
  explicit CachingCostProvider(CostProvider &Inner) : Inner(Inner) {}

  CostBreakdown cost(const CostQuery &Q) override;
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override;
  /// Memoization does not change the costs: forward the inner identity.
  std::string identity() const override { return Inner.identity(); }

  /// Evaluate, on \p Pool, every cost buildPBQP will ask for over \p Net
  /// with the thread axis \p ThreadAxis -- each conv scenario against each
  /// supporting primitive of \p Lib at each costQueryThreads(ThreadAxis)
  /// value, and each direct transform routine on each distinct edge shape
  /// -- skipping entries already cached. The wrapped provider must
  /// tolerate concurrent calls when the pool is wider than one thread (the
  /// analytic model does; the measuring profiler does not, and should
  /// prepopulate on a 1-thread pool or rely on lazy fills).
  void prepopulate(const NetworkGraph &Net, const PrimitiveLibrary &Lib,
                   ThreadPool &Pool,
                   const std::vector<unsigned> &ThreadAxis = {});

  const CostCacheStats &stats() const { return Stats; }

  /// Entries currently memoized (conv + transform).
  size_t size() const;

private:
  struct QueryHash {
    size_t operator()(const CostQuery &Q) const {
      return (ConvScenarioHash()(Q.S) * 1000003u + Q.Id) * 1000003u +
             Q.Threads;
    }
  };
  struct TransformKey {
    Layout From;
    Layout To;
    TensorShape Shape;
    bool operator==(const TransformKey &O) const {
      return From == O.From && To == O.To && Shape == O.Shape;
    }
  };
  struct TransformKeyHash {
    size_t operator()(const TransformKey &K) const;
  };

  /// Look \p K up in \p T, counting a query (and, on a miss, a raw
  /// evaluation); on a miss run \p Eval outside the lock and publish.
  template <typename Table, typename Key, typename EvalFn>
  typename Table::mapped_type lookup(Table &T, const Key &K,
                                     uint64_t &Queries, uint64_t &Misses,
                                     EvalFn Eval);

  CostProvider &Inner;
  mutable std::mutex Mutex;
  std::unordered_map<CostQuery, CostBreakdown, QueryHash> ConvCache;
  std::unordered_map<TransformKey, double, TransformKeyHash> TransformCache;
  CostCacheStats Stats;
};

} // namespace primsel

#endif // PRIMSEL_COST_CACHINGCOSTPROVIDER_H
