//===- engine/Engine.cpp --------------------------------------------------===//

#include "engine/Engine.h"

#include "batch/Minibatch.h"
#include "runtime/Executor.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace primsel;

Engine::Engine(const PrimitiveLibrary &Lib, CostProvider &Costs,
               EngineOptions Options)
    : Lib(Lib), Opts(std::move(Options)), Cache(Costs) {
  if (Opts.Threads > 1)
    Pool = std::make_unique<ThreadPool>(Opts.Threads);
  Backend = pbqp::createSolverBackend(Opts.Solver);
  assert(Backend && "EngineOptions.Solver names no registered backend");
  if (Opts.CachePlans || !Opts.PlanCacheDir.empty())
    Plans = std::make_unique<PlanCache>(Opts.PlanCacheDir);
}

Engine::~Engine() = default;

namespace {

/// The effective thread-candidate axis: clamped to >= 1, sorted and
/// deduplicated (the formulation and the cache identity must not depend on
/// the order the caller listed candidates in), empty normalized to {1}.
std::vector<unsigned> normalizedThreadCandidates(std::vector<unsigned> C) {
  for (unsigned &T : C)
    T = std::max(T, 1u);
  std::sort(C.begin(), C.end());
  C.erase(std::unique(C.begin(), C.end()), C.end());
  if (C.empty())
    C.push_back(1);
  return C;
}

/// The plan-cache cost-identity component: the provider identity, tagged
/// with the amortization mode -- serving-mode plans are solved over
/// different node costs, so they must never be served for (or overwrite)
/// totals-based plans of the same network -- and with the thread-candidate
/// axis when it is wider than the historical {1} (thread-aware plans are
/// solved over different node costs too).
std::string costIdentityFor(const CostProvider &Costs,
                            const EngineOptions &Options) {
  std::string Id = Costs.identity();
  if (Options.AmortizeWeightTransforms)
    Id += "+amortized";
  std::vector<unsigned> Axis =
      normalizedThreadCandidates(Options.ExecThreadCandidates);
  if (Axis.size() != 1 || Axis[0] != 1) {
    Id += ":et";
    for (size_t I = 0; I < Axis.size(); ++I)
      Id += (I ? "," : "") + std::to_string(Axis[I]);
  }
  return Id;
}

} // namespace

PlanKey Engine::planKey(const NetworkGraph &Net) const {
  PlanKey K;
  if (Opts.Passes.empty()) {
    K.NetworkFingerprint = fingerprintNetwork(Net, Lib);
  } else {
    NetworkGraph Rewritten =
        transforms::PassPipeline::fromNames(Opts.Passes).run(Net);
    K.NetworkFingerprint = fingerprintNetwork(Rewritten, Lib);
  }
  K.CostIdentity = costIdentityFor(Cache, Opts);
  K.SolverFingerprint = fingerprintSolver(Opts.Solver, Opts.SolverOptions);
  K.PassFingerprint = transforms::fingerprintPasses(Opts.Passes);
  return K;
}

PBQPFormulation Engine::build(const NetworkGraph &Target,
                              const EngineOptions &Options,
                              DTTableCache &Tables) {
  std::vector<unsigned> ThreadAxis =
      normalizedThreadCandidates(Options.ExecThreadCandidates);
  if (Pool)
    Cache.prepopulate(Target, Lib, *Pool, ThreadAxis);
  return buildPBQP(Target, Lib, Cache, Tables,
                   Options.AmortizeWeightTransforms, ThreadAxis);
}

SelectionResult Engine::run(const NetworkGraph &Net,
                            pbqp::SolverBackend &SolverBackend,
                            const EngineOptions &Options) {
  // The pass pipeline runs first: every later stage -- fingerprints,
  // cache lookups, cost gathering, the solve, legalization -- operates on
  // the rewritten graph. Rewriting is deterministic and cheap (pure graph
  // surgery), so rerunning it on plan-cache hits is fine; the cached plan
  // indexes the identical rewritten structure.
  std::shared_ptr<const NetworkGraph> Rewritten;
  std::vector<transforms::PassStats> PassStats;
  const NetworkGraph *Target = &Net;
  if (!Options.Passes.empty()) {
    transforms::PassPipeline Pipeline =
        transforms::PassPipeline::fromNames(Options.Passes);
    Rewritten =
        std::make_shared<NetworkGraph>(Pipeline.run(Net, &PassStats));
    Target = Rewritten.get();
  }

  PlanKey Key;
  if (Plans) {
    Key.NetworkFingerprint = fingerprintNetwork(*Target, Lib);
    Key.CostIdentity = costIdentityFor(Cache, Options);
    Key.SolverFingerprint =
        fingerprintSolver(SolverBackend.name(), Options.SolverOptions);
    Key.PassFingerprint = transforms::fingerprintPasses(Options.Passes);
    Timer LookupTimer;
    if (std::optional<SelectionResult> Hit =
            Plans->lookup(Key, *Target, Lib)) {
      // The plan is the artifact worth caching; the solve never happened,
      // so report lookup time, not the original run's timings.
      Hit->PlanCacheHit = true;
      Hit->BuildMillis = LookupTimer.millis();
      Hit->SolveMillis = 0.0;
      Hit->Cache = Cache.stats();
      // Hand the caller *this* run's rewritten graph: a memory hit may
      // carry the graph of a structurally-equal network solved earlier,
      // and a disk hit carries none.
      Hit->Rewritten = Rewritten;
      Hit->Passes = PassStats;
      return *Hit;
    }
  }

  SelectionResult R;
  R.Backend = SolverBackend.name();
  R.Rewritten = Rewritten;
  R.Passes = std::move(PassStats);

  Timer BuildTimer;
  DTTableCache Tables(Cache, *Target);
  PBQPFormulation F = build(*Target, Options, Tables);
  R.BuildMillis = BuildTimer.millis();
  R.NumNodes = F.G.numNodes();
  R.NumEdges = F.G.numEdges();

  Timer SolveTimer;
  R.Solver = SolverBackend.solve(F.G, Options.SolverOptions);
  R.SolveMillis = SolveTimer.millis();

  R.Plan = planFromSolution(F, R.Solver.Selection, *Target, Lib, Tables);
  R.ModelledCostMs = modelPlanCost(R.Plan, *Target, Lib, Cache);
  if (Options.AmortizeWeightTransforms) {
    CostBreakdown PB = modelPlanCostBreakdown(R.Plan, *Target, Lib, Cache);
    R.ModelledPerRunMs = PB.PerRunMs;
    R.ModelledPrepareMs = PB.AmortizedMs;
  }
  R.Cache = Cache.stats();
  if (Plans)
    Plans->store(Key, R, *Target, Lib);
  return R;
}

SelectionResult Engine::optimize(const NetworkGraph &Net) {
  return run(Net, *Backend, Opts);
}

SelectionResult Engine::optimize(const NetworkGraph &Net,
                                 const EngineOptions &Options) {
  if (Options.Solver == Opts.Solver)
    return run(Net, *Backend, Options);
  std::unique_ptr<pbqp::SolverBackend> OneOff =
      pbqp::createSolverBackend(Options.Solver);
  assert(OneOff && "EngineOptions.Solver names no registered backend");
  return run(Net, *OneOff, Options);
}

NetworkPlan Engine::planFor(Strategy S, const NetworkGraph &Net) {
  if (S == Strategy::PBQP) {
    // planFor's contract is a plan over \p Net as given; run the selection
    // without the pass pipeline (the caller has no way to receive a
    // rewritten graph through a bare NetworkPlan).
    EngineOptions NoPasses = Opts;
    NoPasses.Passes.clear();
    return run(Net, *Backend, NoPasses).Plan;
  }
  return planForStrategy(S, Net, Lib, Cache);
}

double Engine::planCost(const NetworkPlan &Plan, const NetworkGraph &Net) {
  return modelPlanCost(Plan, Net, Lib, Cache);
}

PBQPFormulation Engine::formulate(const NetworkGraph &Net) {
  // Formulate what optimize() would actually solve: the pass-rewritten
  // graph when a pipeline is configured (so e.g. brute-force feasibility
  // checks see the real assignment space).
  const NetworkGraph *Target = &Net;
  NetworkGraph Rewritten("");
  if (!Opts.Passes.empty()) {
    Rewritten = transforms::PassPipeline::fromNames(Opts.Passes).run(Net);
    Target = &Rewritten;
  }
  DTTableCache Tables(Cache, *Target);
  return build(*Target, Opts, Tables);
}

std::shared_ptr<const CompiledNet>
Engine::compile(const NetworkGraph &Net, const CompileOptions &Options) {
  SelectionResult R = optimize(Net);
  if (R.Plan.empty())
    return nullptr;
  return compile(Net, R, Options);
}

std::shared_ptr<const CompiledNet>
Engine::compile(const NetworkGraph &Net, const SelectionResult &R,
                const CompileOptions &Options) const {
  if (R.Plan.empty())
    return nullptr;
  return CompiledNet::build(R.executionGraph(Net), R.Plan, Lib, Options);
}

std::shared_ptr<const CompiledNet>
Engine::compileBucket(const std::shared_ptr<const CompiledNet> &Anchor,
                      int64_t Bucket) {
  assert(Anchor && "compileBucket needs an anchor artifact");
  assert(&Anchor->library() == &Lib &&
         "the anchor must be compiled from this engine's library");
  if (Bucket <= 1)
    return Anchor;

  // The anchor's execution graph (passes already applied when it was
  // compiled) at Scenario.Batch = B, with the anchor's layouts and chains.
  NetworkGraph BNet = Anchor->graph();
  BNet.setBatch(Bucket);
  NetworkPlan Plan = Anchor->plan();

  // Each conv node keeps the anchor's routine -- which is what makes every
  // bucket bit-identical to the anchor, image by image -- and takes the
  // cheapest of its §8 minibatch wrappers (@bser/@bpar) and thread counts
  // under the node cost the PBQP formulation uses. Every alternative of a
  // node has the same layouts, so the edges cannot change the choice. The
  // scan runs thread-major, then in library order, keeping the first
  // strict minimum, as the solver's alternative order does.
  std::vector<unsigned> Axis =
      normalizedThreadCandidates(Opts.ExecThreadCandidates);
  std::vector<unsigned> QueryThreads = costQueryThreads(Axis);
  Plan.ConvThreads.clear();
  if (Axis.back() > 1)
    Plan.ConvThreads.assign(BNet.numNodes(), 1);
  for (NetworkGraph::NodeId N : BNet.convNodes()) {
    const ConvPrimitive &Base = Lib.get(Anchor->plan().ConvPrim[N]);
    const ConvScenario &S = BNet.node(N).Scenario;
    bool Found = false;
    double Best = 0.0;
    for (size_t TI = 0; TI < Axis.size(); ++TI)
      for (PrimitiveId Id = 0; Id < Lib.size(); ++Id) {
        const auto *MB = dynamic_cast<const MinibatchPrimitive *>(&Lib.get(Id));
        if (!MB || &MB->base() != &Base)
          continue;
        double Cost = convNodeCost(Cache, S, Id, QueryThreads[TI],
                                   Opts.AmortizeWeightTransforms);
        if (Found && !(Cost < Best))
          continue;
        Found = true;
        Best = Cost;
        Plan.ConvPrim[N] = Id;
        if (!Plan.ConvThreads.empty())
          Plan.ConvThreads[N] = Axis[TI];
      }
    if (!Found) {
      std::fprintf(stderr,
                   "primsel: no minibatch wrapper for '%s'; build the batch "
                   "ladder over buildBatchedLibrary()\n",
                   Base.name().c_str());
      return nullptr;
    }
  }
  return CompiledNet::buildBucket(Anchor, BNet, Plan);
}

std::shared_ptr<CompiledNetLadder>
Engine::compileLadder(const NetworkGraph &Net, const LadderOptions &Options) {
  // Normalize the ladder: clamp to >= 1, sort, deduplicate, force bucket 1
  // (the anchor). An empty list means powers of two up to MaxBatch.
  std::vector<int64_t> Buckets = Options.Buckets;
  if (Buckets.empty())
    for (int64_t B = 1; B <= std::max<int64_t>(1, Options.MaxBatch); B *= 2)
      Buckets.push_back(B);
  for (int64_t &B : Buckets)
    B = std::max<int64_t>(1, B);
  std::sort(Buckets.begin(), Buckets.end());
  Buckets.erase(std::unique(Buckets.begin(), Buckets.end()), Buckets.end());
  if (Buckets.front() != 1)
    Buckets.insert(Buckets.begin(), 1);

  // The anchor: the model solved and compiled at batch 1 through the full
  // engine pipeline (passes included); buckets derive from its execution
  // graph and plan, so rewrites and the solve happen exactly once per
  // ladder.
  NetworkGraph Anchor = Net;
  Anchor.setBatch(1);
  std::shared_ptr<const CompiledNet> Bucket1 = compile(Anchor);
  if (!Bucket1)
    return nullptr;

  auto Compiler = [this, Bucket1](int64_t B) {
    return compileBucket(Bucket1, B);
  };
  return std::make_shared<CompiledNetLadder>(std::move(Buckets), Bucket1,
                                             std::move(Compiler),
                                             Options.Background);
}

std::unique_ptr<Executor> Engine::instantiate(const NetworkGraph &Net,
                                              const NetworkPlan &Plan,
                                              unsigned Threads,
                                              uint64_t WeightSeed) const {
  return std::make_unique<Executor>(Net, Plan, Lib, Threads, WeightSeed);
}

std::unique_ptr<Executor>
Engine::instantiate(const NetworkGraph &Net, const NetworkPlan &Plan,
                    const ExecutorOptions &Options) const {
  return std::make_unique<Executor>(Net, Plan, Lib, Options);
}

std::unique_ptr<Executor>
Engine::instantiate(const NetworkGraph &Net, const SelectionResult &R,
                    const ExecutorOptions &Options) const {
  return std::make_unique<Executor>(R.executionGraph(Net), R.Plan, Lib,
                                    Options);
}

std::string Engine::emitSource(const NetworkGraph &Net,
                               const NetworkPlan &Plan,
                               const CodeGenOptions &Options) const {
  return emitPlanSource(Net, Plan, Lib, Options);
}

SelectionResult primsel::optimizeNetwork(const NetworkGraph &Net,
                                         const PrimitiveLibrary &Lib,
                                         CostProvider &Costs,
                                         const EngineOptions &Options) {
  Engine Eng(Lib, Costs, Options);
  return Eng.optimize(Net);
}
