//===- cost/CachingCostProvider.cpp ---------------------------------------===//

#include "cost/CachingCostProvider.h"

#include "tensor/Transform.h"

#include <set>
#include <tuple>
#include <vector>

using namespace primsel;

size_t CachingCostProvider::TransformKeyHash::operator()(
    const TransformKey &K) const {
  size_t H = static_cast<size_t>(K.From) * 6 + static_cast<size_t>(K.To);
  H = H * 1000003u + static_cast<size_t>(K.Shape.C);
  H = H * 1000003u + static_cast<size_t>(K.Shape.H);
  H = H * 1000003u + static_cast<size_t>(K.Shape.W);
  return H;
}

template <typename Table, typename Key, typename EvalFn>
typename Table::mapped_type
CachingCostProvider::lookup(Table &T, const Key &K, uint64_t &Queries,
                            uint64_t &Misses, EvalFn Eval) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Queries;
    auto It = T.find(K);
    if (It != T.end())
      return It->second;
    ++Misses;
  }
  typename Table::mapped_type V = Eval();
  std::lock_guard<std::mutex> Lock(Mutex);
  return T.emplace(K, V).first->second;
}

CostBreakdown CachingCostProvider::cost(const CostQuery &Q) {
  return lookup(ConvCache, Q, Stats.ConvQueries, Stats.ConvMisses,
                [&] { return Inner.cost(Q); });
}

double CachingCostProvider::transformCost(Layout From, Layout To,
                                          const TensorShape &Shape) {
  return lookup(TransformCache, TransformKey{From, To, Shape},
                Stats.TransformQueries, Stats.TransformMisses,
                [&] { return Inner.transformCost(From, To, Shape); });
}

size_t CachingCostProvider::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return ConvCache.size() + TransformCache.size();
}

void CachingCostProvider::prepopulate(const NetworkGraph &Net,
                                      const PrimitiveLibrary &Lib,
                                      ThreadPool &Pool,
                                      const std::vector<unsigned> &ThreadAxis) {
  // Gather the uncached work items: every supporting primitive of every
  // distinct conv scenario at every thread value the builder will query,
  // and every direct transform routine on every distinct tensor shape
  // flowing along an edge.
  std::vector<CostQuery> ConvWork;
  std::vector<TransformKey> TransformWork;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::vector<unsigned> Threads = costQueryThreads(ThreadAxis);
    std::set<std::string> SeenScenarios;
    for (NetworkGraph::NodeId N : Net.convNodes()) {
      const ConvScenario &S = Net.node(N).Scenario;
      if (!SeenScenarios.insert(S.key()).second)
        continue;
      for (unsigned T : Threads)
        for (PrimitiveId Id : Lib.supporting(S))
          if (!ConvCache.count(CostQuery{S, Id, T}))
            ConvWork.push_back(CostQuery{S, Id, T});
    }
    std::set<std::tuple<int64_t, int64_t, int64_t>> SeenShapes;
    for (const NetworkGraph::Node &Node : Net.nodes()) {
      const TensorShape &Sh = Node.OutShape;
      if (!SeenShapes.insert({Sh.C, Sh.H, Sh.W}).second)
        continue;
      for (const TransformRoutineInfo &R : directTransformRoutines())
        if (!TransformCache.count(TransformKey{R.From, R.To, Sh}))
          TransformWork.push_back(TransformKey{R.From, R.To, Sh});
    }
  }

  // Evaluate in parallel into dense result arrays (each index is touched by
  // exactly one worker), then publish under the lock. Raw evaluations are
  // counted as queries+misses so the stats stay an exact eval count.
  std::vector<CostBreakdown> ConvCosts(ConvWork.size());
  Pool.parallelFor(0, static_cast<int64_t>(ConvWork.size()), [&](int64_t I) {
    ConvCosts[I] = Inner.cost(ConvWork[I]);
  });
  std::vector<double> TransformMillis(TransformWork.size());
  Pool.parallelFor(0, static_cast<int64_t>(TransformWork.size()),
                   [&](int64_t I) {
                     TransformMillis[I] = Inner.transformCost(
                         TransformWork[I].From, TransformWork[I].To,
                         TransformWork[I].Shape);
                   });

  std::lock_guard<std::mutex> Lock(Mutex);
  for (size_t I = 0; I < ConvWork.size(); ++I)
    ConvCache.emplace(ConvWork[I], ConvCosts[I]);
  for (size_t I = 0; I < TransformWork.size(); ++I)
    TransformCache.emplace(TransformWork[I], TransformMillis[I]);
  Stats.ConvQueries += ConvWork.size();
  Stats.ConvMisses += ConvWork.size();
  Stats.TransformQueries += TransformWork.size();
  Stats.TransformMisses += TransformWork.size();
}
