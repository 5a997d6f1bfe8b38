//===- engine/Engine.h - The unified optimizer engine -----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One reusable entry point for the paper's whole flow (§3/§5.2: extract
/// the conv scenarios, gather the costs, build and solve the PBQP query,
/// instantiate the network). Every driver -- the CLI, the examples and the
/// figure benchmarks -- goes through Engine instead of hand-wiring
/// PBQPBuilder + a solver + the Legalizer:
///
///   Engine Eng(Lib, Costs, Options);
///   SelectionResult R = Eng.optimize(Net);
///
/// The engine composes these layers:
///  - the memoizing cost layer (cost/CachingCostProvider.h), always on,
///    pre-populated in parallel on a ThreadPool when Threads > 1, and
///    shared across every query the engine serves (repeated/ensemble
///    queries pay each raw cost once);
///  - the graph-transform pass pipeline (transforms/Pass.h), run before
///    formulation when EngineOptions.Passes names passes (O1): epilogue
///    fusion and identity elimination shrink the problem graph, and the
///    returned SelectionResult carries the rewritten graph its plan
///    indexes;
///  - the PBQP formulation (core/PBQPBuilder.h);
///  - a solver backend selected by name from the pbqp::SolverRegistry
///    (pbqp/SolverBackend.h).
///
/// It also owns the handoffs after selection: baseline-strategy planning
/// through the same cost layer, Executor instantiation, and C++ code
/// generation.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_ENGINE_ENGINE_H
#define PRIMSEL_ENGINE_ENGINE_H

#include "codegen/CodeGen.h"
#include "core/Selector.h"
#include "core/Strategies.h"
#include "engine/Ladder.h"
#include "engine/PlanCache.h"
#include "pbqp/SolverBackend.h"
#include "runtime/Executor.h"

#include <memory>
#include <string>

namespace primsel {

/// Configuration of an Engine.
struct EngineOptions {
  /// Solver backend name, resolved in pbqp::SolverRegistry ("reduction",
  /// "bb", "brute", or anything registered later).
  std::string Solver = "reduction";
  /// Knobs forwarded to the selected backend.
  pbqp::BackendOptions SolverOptions;
  /// Worker threads for cost-table pre-population before each query
  /// (1 = no pool, serial lazy fills). More than one calls the cost
  /// provider concurrently: the analytic model tolerates that, the
  /// measuring profiler does not, so keep 1 when profiling.
  unsigned Threads = 1;
  /// Memoize whole SelectionResults in a PlanCache (engine/PlanCache.h)
  /// keyed by (network fingerprint, cost identity, solver fingerprint), so
  /// repeated optimize() calls over the same problem skip the solve.
  /// Implied by a non-empty PlanCacheDir.
  bool CachePlans = false;
  /// Directory for the persistent plan cache; plans solved here are
  /// written as text files, and a fresh engine pointed at the same
  /// directory serves them without solving. Empty = in-memory only (when
  /// CachePlans is set).
  std::string PlanCacheDir;
  /// Serving mode (paper §4: weight transforms ship with the model). When
  /// set, the PBQP node costs are the *per-inference* component of each
  /// instance cost -- the amortizable weight-side work (Winograd/FFT
  /// kernel transforms, GEMM weight packing, quantization tables) is
  /// excluded, because Engine::compile pays it once per artifact, not per
  /// request. Amortized weight transforms make Winograd/FFT/im2-style
  /// selections strictly cheaper relative to the direct families, so
  /// serving-mode plans can differ from (and never cost more per
  /// inference than) the default totals-based plans. The mode joins the
  /// plan-cache key, so amortized and total-cost plans never mix.
  bool AmortizeWeightTransforms = false;
  /// Candidate intra-op worker counts for the solver's thread-count
  /// dimension. Empty (the default) means {1}: no thread decision, every
  /// conv cost asked at the provider's configured count
  /// (CostQuery::Threads = 0). With e.g. {1, 2, 4} each conv node's PBQP
  /// alternatives become (primitive, threads) pairs, each costed at its
  /// count exactly, the winning counts land in NetworkPlan::ConvThreads,
  /// and CompiledNet/Executor cap each node's intra-op workers accordingly
  /// at run time. The candidate set joins the plan-cache cost identity, so
  /// single- and multi-threaded plans never mix. Worker capping never
  /// changes results (the packed GEMM is bitwise thread-count-invariant),
  /// only speed.
  std::vector<unsigned> ExecThreadCandidates;
  /// Graph-transform passes (transforms/Pass.h) applied to the network
  /// before formulation. Empty = O0: the graph is optimized exactly as
  /// given, the historical behaviour. For O1 use
  /// transforms::PassPipeline::defaultPassNames(). When non-empty,
  /// optimize() solves over the rewritten graph and the returned
  /// SelectionResult carries it (SelectionResult::Rewritten /
  /// executionGraph()); the pipeline fingerprint joins the plan-cache key
  /// so O0 and O1 plans never mix. Names must be registered
  /// (transforms::isKnownPass) -- asserted, so CLI-style callers validate
  /// first. Takes effect per optimize() call, including the one-off
  /// optimize(Net, Options) overload.
  std::vector<std::string> Passes;
};

/// The unified optimizer: owns the cost layer and solver backend, serves
/// any number of optimize() queries.
class Engine {
public:
  /// \p Costs must outlive the engine. Asserts that Options.Solver names a
  /// registered backend (check pbqp::SolverRegistry::contains first for
  /// user-supplied names).
  Engine(const PrimitiveLibrary &Lib, CostProvider &Costs,
         EngineOptions Options = {});
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Run the full selection pipeline on \p Net: (pre-populated) costs ->
  /// PBQP query -> solver backend -> legalized plan.
  SelectionResult optimize(const NetworkGraph &Net);

  /// Compile-once entry point: optimize \p Net with this engine's options
  /// (serving deployments set AmortizeWeightTransforms), then build the
  /// immutable CompiledNet artifact over the execution graph -- weights
  /// generated, kernels prepared/transformed, memory planned. The artifact
  /// is self-contained (it owns its graph copy); serve it from any number
  /// of ExecutionContexts. The library must outlive the artifact.
  std::shared_ptr<const CompiledNet>
  compile(const NetworkGraph &Net, const CompileOptions &Options = {});

  /// As compile(Net), reusing an already-solved \p R (avoids re-running
  /// optimize when the caller needs both the SelectionResult and the
  /// artifact).
  std::shared_ptr<const CompiledNet>
  compile(const NetworkGraph &Net, const SelectionResult &R,
          const CompileOptions &Options = {}) const;

  /// Batch-ladder entry point (engine/Ladder.h): normalize \p Net to batch
  /// 1, optimize and compile the anchor artifact, and build the bucket
  /// ladder over it. Each remaining bucket is derived by compileBucket --
  /// on the ladder's background thread (LadderOptions::Background) or
  /// synchronously in this call. Requires a library with the §8 minibatch
  /// wrappers (batch/Minibatch.h buildBatchedLibrary); returns null when
  /// the anchor fails to optimize. The engine must outlive the ladder, and
  /// while a background ladder is live the ladder's thread must be the
  /// engine's only user (bucket compiles query the engine's cost cache).
  std::shared_ptr<CompiledNetLadder>
  compileLadder(const NetworkGraph &Net, const LadderOptions &Options = {});

  /// One batch bucket of a ladder, derived from \p Anchor without a solve
  /// or a prepare: the anchor's execution graph at Scenario.Batch =
  /// \p Bucket, with the anchor plan's layouts and chains. Each conv node
  /// takes the cheapest (§8 minibatch wrapper of the anchor's routine,
  /// thread count) pair under the PBQP node cost (convNodeCost) -- only the
  /// schedule (@bser / @bpar) and thread count vary, so every bucket
  /// computes bit-identically to the anchor, image by image. The bucket
  /// binds the anchor's prepared kernels (CompiledNet::buildBucket) and
  /// makes no plan-cache lookup. Returns \p Anchor for \p Bucket <= 1, and
  /// null when the library lacks wrappers for an anchor routine. Exposed
  /// for tests; serving goes through compileLadder.
  std::shared_ptr<const CompiledNet>
  compileBucket(const std::shared_ptr<const CompiledNet> &Anchor,
                int64_t Bucket);

  /// As optimize(Net), but with one-off options (e.g. a different backend
  /// for a cross-check, or different solver knobs). Only Options.Solver,
  /// Options.SolverOptions, Options.Passes, Options.AmortizeWeightTransforms
  /// and Options.ExecThreadCandidates take effect here: the thread pool is
  /// a construction-time property of the engine, so Options.Threads is
  /// ignored.
  SelectionResult optimize(const NetworkGraph &Net,
                           const EngineOptions &Options);

  /// Legalized plan for a baseline strategy, through the engine's cost
  /// layer. The returned plan always indexes \p Net as given -- so
  /// Strategy::PBQP runs the selection *without* the pass pipeline
  /// (callers of planFor have no way to receive a rewritten graph; use
  /// optimize() to benefit from EngineOptions.Passes).
  NetworkPlan planFor(Strategy S, const NetworkGraph &Net);

  /// Modelled cost (ms) of a legalized plan under the engine's cost layer.
  double planCost(const NetworkPlan &Plan, const NetworkGraph &Net);

  /// The PBQP instance optimize() would solve, for diagnostics and dumps.
  PBQPFormulation formulate(const NetworkGraph &Net);

  /// Executor handoff: instantiate \p Plan for real execution.
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        const NetworkPlan &Plan,
                                        unsigned Threads = 1,
                                        uint64_t WeightSeed = 7) const;

  /// Executor handoff with the full serving configuration (memory-planned
  /// arena, parallel branches; see runtime/Executor.h).
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        const NetworkPlan &Plan,
                                        const ExecutorOptions &Options) const;

  /// Executor handoff for a full SelectionResult: instantiates R.Plan over
  /// R.executionGraph(Net), so pass-rewritten plans run on the graph they
  /// index. \p R must outlive the executor (it owns the rewritten graph
  /// the executor borrows) -- binding a temporary is deleted below so
  /// `instantiate(Net, Eng.optimize(Net), ...)` cannot compile into a
  /// dangling reference.
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        const SelectionResult &R,
                                        const ExecutorOptions &Options) const;
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        SelectionResult &&R,
                                        const ExecutorOptions &Options) const =
      delete;

  /// CodeGen handoff: render \p Plan as a compilable C++ translation unit.
  std::string emitSource(const NetworkGraph &Net, const NetworkPlan &Plan,
                         const CodeGenOptions &Options = {}) const;

  /// Cost-cache counters accumulated over this engine's lifetime (never null).
  const CostCacheStats *cacheStats() const { return &Cache.stats(); }

  /// The plan cache; null unless CachePlans or PlanCacheDir configured it.
  PlanCache *planCache() { return Plans.get(); }
  const PlanCacheStats *planCacheStats() const {
    return Plans ? &Plans->stats() : nullptr;
  }

  /// The cache key optimize() uses for \p Net with this engine's solver
  /// configuration (exposed so tools can inspect/evict entries). Runs the
  /// engine's pass pipeline to fingerprint the rewritten network, exactly
  /// as optimize() would.
  PlanKey planKey(const NetworkGraph &Net) const;

  const PrimitiveLibrary &library() const { return Lib; }
  const EngineOptions &options() const { return Opts; }

private:
  /// Pre-populate the cost cache (when the engine has a pool) with exactly
  /// the keys the builder will ask for, then build \p Target's PBQP
  /// instance under \p Options.
  PBQPFormulation build(const NetworkGraph &Target,
                        const EngineOptions &Options, DTTableCache &Tables);
  SelectionResult run(const NetworkGraph &Net, pbqp::SolverBackend &Backend,
                      const EngineOptions &Options);

  const PrimitiveLibrary &Lib;
  EngineOptions Opts;
  CachingCostProvider Cache;
  std::unique_ptr<ThreadPool> Pool; ///< when Opts.Threads > 1
  std::unique_ptr<pbqp::SolverBackend> Backend;
  std::unique_ptr<PlanCache> Plans; ///< when Opts.CachePlans/PlanCacheDir
};

/// One-shot convenience for drivers that run a single query: build an
/// Engine, optimize \p Net, return the result.
SelectionResult optimizeNetwork(const NetworkGraph &Net,
                                const PrimitiveLibrary &Lib,
                                CostProvider &Costs,
                                const EngineOptions &Options = {});

} // namespace primsel

#endif // PRIMSEL_ENGINE_ENGINE_H
