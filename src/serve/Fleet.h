//===- serve/Fleet.h - Multi-model registry + fleet server ------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet shape of the serving stack: one process, many models, one
/// memory budget, one warm plan/cost state.
///
/// ModelRegistry owns N compiled artifacts behind one global byte budget.
/// Every model registers its NetworkGraph once (addModel); artifacts are
/// compiled on demand through one shared Engine, so every model's
/// optimize() goes through the same CachingCostProvider and PlanCache --
/// the fleet warms once and serves everywhere. Accounting charges each
/// resident artifact its prepared-kernel bytes plus its arena-template
/// bytes times the configured slab count (a laddered model: its anchor
/// plus every rung's arena); when publishing a new artifact would push
/// the total over MemBudgetBytes, the least-recently-used cold models are
/// evicted first. Eviction drops only the registry's
/// reference: in-flight requests drain on the shared_ptr they already
/// hold, and a re-requested model recompiles from the shared PlanCache --
/// eviction costs prepare time, never a PBQP solve.
///
/// Hot-swap is RCU-style: swap(name, artifact) publishes the new artifact
/// with an atomic shared_ptr store. Readers that snapshotted the old
/// pointer keep executing on it (old-or-new, never torn); the old artifact
/// is destroyed when the last in-flight batch releases it.
///
/// FleetServer routes requests through the registry: requests are tagged
/// with a model name, and each model's lane is a serve::Server over the
/// registry (its own Batcher and worker threads). Every popped batch
/// executes on the lane's current artifact snapshot (re-acquired per
/// batch, so eviction and hot-swap take effect at the next batch
/// boundary). Outputs stay bit-identical to the sequential Executor by
/// construction -- lanes are Servers.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SERVE_FLEET_H
#define PRIMSEL_SERVE_FLEET_H

#include "engine/Engine.h"
#include "serve/Server.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace primsel {
namespace serve {

/// Registry configuration.
struct RegistryOptions {
  /// Global budget for resident artifacts (prepared-kernel bytes plus
  /// arena-template bytes x ArenaSlabsPerModel). 0 = unlimited. An
  /// artifact that alone exceeds the budget is never published:
  /// acquire() returns null for that model instead of evicting the whole
  /// fleet for nothing.
  size_t MemBudgetBytes = 0;
  /// Slabs of the arena template charged per resident artifact (one per
  /// concurrent batch slot a server backs with an arena).
  unsigned ArenaSlabsPerModel = 1;
  /// Batch-bucket ladder per model (engine/Ladder.h). Non-empty: the first
  /// acquire() of a model compiles its whole ladder synchronously (so
  /// budget accounting sees it at once) and charges the sum of the rungs'
  /// artifactBytes to the budget -- the anchor's kernels once, since a
  /// bucket prepares none, plus every rung's arena. The ladder lives and
  /// dies with its anchor; a ladder that alone exceeds the budget is
  /// dropped and its anchor admitted alone, served by the per-slot path.
  /// Lanes serve through the ladder via ladderOf(). Empty = batch-1
  /// artifacts only, the historical behavior. Requires an engine over a
  /// library with the §8 minibatch wrappers (buildBatchedLibrary).
  std::vector<int64_t> LadderBuckets;
};

/// Monotonic registry counters; a consistent snapshot is returned by
/// stats().
struct RegistryStats {
  uint64_t Hits = 0;         ///< acquire() found the artifact resident
  uint64_t Compiles = 0;     ///< Engine compile runs (cold + readmission)
  uint64_t PlanCacheHits = 0; ///< compiles whose optimize() skipped the
                              ///< solve (served from the shared PlanCache)
  uint64_t Solves = 0;       ///< compiles that paid a PBQP solve
  uint64_t Evictions = 0;    ///< artifacts dropped for budget headroom
  uint64_t Swaps = 0;        ///< hot-swap publishes
  uint64_t Unavailable = 0;  ///< acquire() failures (unknown model or
                             ///< artifact alone exceeds the budget)
  size_t ResidentBytes = 0;  ///< accounted bytes currently resident
  size_t PeakResidentBytes = 0; ///< high-water mark of ResidentBytes
};

/// The multi-model artifact registry. Thread-safe: any number of lanes
/// may acquire() concurrently while other threads swap() or evict().
class ModelRegistry {
public:
  /// \p Eng is shared by every compile (one CostProvider cache, one
  /// PlanCache) and must outlive the registry. Engine is not thread-safe,
  /// so the registry serializes all Engine use internally.
  ModelRegistry(Engine &Eng, RegistryOptions Options = {});

  ModelRegistry(const ModelRegistry &) = delete;
  ModelRegistry &operator=(const ModelRegistry &) = delete;

  /// Register \p Net under \p Name. No compile happens here -- artifacts
  /// are built on first acquire(). False when the name is taken.
  bool addModel(const std::string &Name, NetworkGraph Net);

  /// The serving entry point: return the model's resident artifact,
  /// compiling it on demand (evicting LRU cold artifacts to make room).
  /// Null when the model is unknown or its artifact alone exceeds the
  /// budget. Concurrent acquires of the same cold model compile once --
  /// late arrivals wait for the winner's artifact.
  std::shared_ptr<const CompiledNet> acquire(const std::string &Name);

  /// The currently-published artifact, or null when the model is unknown
  /// or not resident. Never compiles; the pointer read is atomic, so a
  /// concurrent swap yields old-or-new, never torn.
  std::shared_ptr<const CompiledNet> current(const std::string &Name) const;

  /// The model's bucket ladder (ladder mode only; null when the registry
  /// runs batch-1 artifacts, the model is unknown, not resident, its
  /// ladder did not fit the budget, or it was hot-swapped to a plain
  /// artifact). Never compiles; lanes re-read it per batch, like the
  /// artifact snapshot.
  std::shared_ptr<CompiledNetLadder> ladderOf(const std::string &Name) const;

  /// RCU hot-swap: atomically publish \p Artifact as \p Name's artifact.
  /// In-flight requests drain on the old artifact through the shared_ptr
  /// they snapshotted. Re-accounts the budget (evicting LRU cold models
  /// if the new artifact is bigger). False when the model is unknown, the
  /// artifact is null, or it alone exceeds the budget.
  bool swap(const std::string &Name,
            std::shared_ptr<const CompiledNet> Artifact);

  /// Compile a fresh artifact for \p Name through the shared engine (a
  /// PlanCache hit once the fleet is warm) and hot-swap it in. This is
  /// the live-upgrade path: the publish races in-flight acquires, which
  /// see old-or-new. False when the model is unknown or the swap fails
  /// the budget.
  bool recompileAndSwap(const std::string &Name);

  /// Drop \p Name's resident artifact (the model stays registered and
  /// recompiles on the next acquire). False when unknown or not resident.
  bool evict(const std::string &Name);

  /// Registered model names, in registration order.
  std::vector<std::string> modelNames() const;
  /// The registered graph for \p Name (null when unknown). Stable for the
  /// registry's lifetime -- reference executors borrow it.
  const NetworkGraph *graphOf(const std::string &Name) const;

  size_t residentBytes() const;
  RegistryStats stats() const;
  const RegistryOptions &options() const { return Opts; }
  Engine &engine() { return Eng; }

  /// The bytes an artifact is charged against the budget: prepared
  /// kernels plus \p ArenaSlabs copies of the arena template.
  static size_t artifactBytes(const CompiledNet &CN, unsigned ArenaSlabs);

  /// Test-only hook: when set, invoked on the acquiring thread right
  /// after acquire() releases the registry lock for a cold compile,
  /// before it enters the engine. Lets tests deterministically
  /// interleave a swap() into the compile window.
  std::function<void(const std::string &)> TestOnCompileUnlocked;

private:
  struct Entry {
    explicit Entry(NetworkGraph N) : Net(std::move(N)) {}

    NetworkGraph Net;
    /// Published artifact; read/written with std::atomic_load/_store so
    /// swap is a torn-free RCU publish. Null when evicted/not yet built.
    std::shared_ptr<const CompiledNet> Artifact;
    /// Ladder mode: the model's bucket ladder (Artifact is its anchor).
    /// Dropped on whole-model eviction and on hot-swap to a plain
    /// artifact; accessed under Mutex.
    std::shared_ptr<CompiledNetLadder> Ladder;
    size_t Bytes = 0;     ///< accounted bytes while resident (whole ladder)
    uint64_t LastUse = 0; ///< LRU tick of the last acquire/swap
    bool Compiling = false; ///< a thread is building this artifact
    unsigned Order = 0;     ///< registration order
  };

  /// Evict whole LRU models (with their ladders) until \p NeedBytes fits
  /// under the budget. Never touches \p Keep. Requires Mutex held; always
  /// succeeds because the caller checked NeedBytes <= MemBudgetBytes.
  void makeRoomLocked(size_t NeedBytes, const Entry *Keep);

  Engine &Eng;
  RegistryOptions Opts;

  mutable std::mutex Mutex;
  std::condition_variable CompileDone;
  std::map<std::string, Entry> Models;
  RegistryStats Counters;
  uint64_t UseTick = 0;
  /// Engine::optimize/compile share mutable cost- and plan-cache state;
  /// serialize them separately from Mutex so compiles don't block
  /// acquire() of resident models.
  std::mutex EngineMutex;
};

/// Fleet server configuration. Batching policy and worker shape apply
/// per model lane; each lane's Server gets Batch, WorkersPerModel as
/// Workers, BatchThreads, and one-thread slot contexts with UseArena.
struct FleetOptions {
  BatcherOptions Batch;
  unsigned WorkersPerModel = 1;
  /// Pool width for one batch's slots (0 = Batch.MaxBatch).
  unsigned BatchThreads = 0;
  bool UseArena = true;
};

/// Per-lane execution counters, read from the lane's Server.
struct LaneStats {
  ServerStats Exec;
  /// Batches whose model could not be acquired (evicted past budget or
  /// registry failure); every request in them resolves with
  /// RejectedModelUnavailable.
  uint64_t UnavailableBatches = 0;
  uint64_t UnavailableRequests = 0;
};

/// The multi-model batched server: one Server lane per registered model,
/// all draining through one ModelRegistry.
class FleetServer {
public:
  /// Creates one lane per model registered in \p Reg at construction
  /// time. \p Reg must outlive the server.
  FleetServer(ModelRegistry &Reg, const FleetOptions &Options,
              Clock &Clk = steadyClock());

  FleetServer(const FleetServer &) = delete;
  FleetServer &operator=(const FleetServer &) = delete;

  /// Submit one inference against \p Model. Unknown models resolve
  /// immediately with RejectedModelUnavailable. Same borrowing contract
  /// as Server::submit.
  SubmitTicket submit(const std::string &Model, const Tensor3D &Input,
                      TimeNs DeadlineNs = 0);

  /// Shut every lane down in turn: stop its admission, drain its admitted
  /// requests, join its workers. Idempotent; destroying the server does
  /// the same.
  void shutdown();

  std::vector<std::string> modelNames() const;
  BatcherStats batcherStats(const std::string &Model) const;
  LaneStats laneStats(const std::string &Model) const;
  /// Submits rejected because the model name had no lane.
  uint64_t unknownModelRejects() const {
    return UnknownModel.load(std::memory_order_relaxed);
  }
  ModelRegistry &registry() { return Reg; }
  const FleetOptions &options() const { return Opts; }

private:
  ModelRegistry &Reg;
  FleetOptions Opts;
  std::map<std::string, std::unique_ptr<Server>> Lanes;
  std::atomic<uint64_t> UnknownModel{0};
};

} // namespace serve
} // namespace primsel

#endif // PRIMSEL_SERVE_FLEET_H
