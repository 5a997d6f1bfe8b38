//===- serve/Fleet.cpp ----------------------------------------------------===//

#include "serve/Fleet.h"

#include <algorithm>
#include <cassert>

using namespace primsel;
using namespace primsel::serve;

//===----------------------------------------------------------------------===//
// ModelRegistry
//===----------------------------------------------------------------------===//

ModelRegistry::ModelRegistry(Engine &Eng, RegistryOptions Options)
    : Eng(Eng), Opts(Options) {
  assert(Opts.ArenaSlabsPerModel >= 1 && "an artifact serves at least one slot");
}

size_t ModelRegistry::artifactBytes(const CompiledNet &CN,
                                    unsigned ArenaSlabs) {
  return CN.preparedBytes() +
         CN.memoryPlan().arenaBytes() * static_cast<size_t>(ArenaSlabs);
}

bool ModelRegistry::addModel(const std::string &Name, NetworkGraph Net) {
  std::lock_guard<std::mutex> G(Mutex);
  if (Models.count(Name))
    return false;
  Entry E(std::move(Net));
  E.Order = static_cast<unsigned>(Models.size());
  Models.emplace(Name, std::move(E));
  return true;
}

void ModelRegistry::makeRoomLocked(size_t NeedBytes, const Entry *Keep) {
  if (Opts.MemBudgetBytes == 0)
    return;
  while (Counters.ResidentBytes + NeedBytes > Opts.MemBudgetBytes) {
    // LRU victim among resident entries (never the one being published).
    Entry *Victim = nullptr;
    for (auto &KV : Models) {
      Entry &E = KV.second;
      if (&E == Keep || !std::atomic_load(&E.Artifact))
        continue;
      if (!Victim || E.LastUse < Victim->LastUse)
        Victim = &E;
    }
    assert(Victim && "budget admits NeedBytes once the fleet is evicted");
    std::atomic_store(&Victim->Artifact,
                      std::shared_ptr<const CompiledNet>());
    Victim->Ladder.reset();
    Counters.ResidentBytes -= Victim->Bytes;
    Victim->Bytes = 0;
    ++Counters.Evictions;
  }
}

std::shared_ptr<const CompiledNet>
ModelRegistry::acquire(const std::string &Name) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end()) {
    ++Counters.Unavailable;
    return nullptr;
  }
  Entry &E = It->second;
  for (;;) {
    if (std::shared_ptr<const CompiledNet> CN = std::atomic_load(&E.Artifact)) {
      E.LastUse = ++UseTick;
      ++Counters.Hits;
      return CN;
    }
    if (!E.Compiling)
      break;
    // Another thread is building this artifact; wait for it and re-check
    // (it may fail the budget, in which case we retry the compile).
    CompileDone.wait(Lock);
  }
  E.Compiling = true;
  Lock.unlock();

  if (TestOnCompileUnlocked)
    TestOnCompileUnlocked(Name);

  // Compile outside the registry lock so resident models keep serving.
  // The Engine's cost cache and PlanCache are shared mutable state, so
  // Engine use itself is serialized.
  std::shared_ptr<const CompiledNet> CN;
  std::shared_ptr<CompiledNetLadder> Ladder;
  bool CacheHit = false;
  {
    std::lock_guard<std::mutex> EG(EngineMutex);
    if (Opts.LadderBuckets.empty()) {
      SelectionResult R = Eng.optimize(E.Net);
      CacheHit = R.PlanCacheHit;
      CN = Eng.compile(E.Net, R);
    } else {
      // Ladder mode: the whole ladder compiles here, synchronously, so
      // the budget sees every rung at once and lane dispatch never waits
      // on a background compile. Only the anchor is solved, and a warm
      // PlanCache pays no solve for it -- detected through the shared
      // cache's miss counter.
      const PlanCacheStats *PS = Eng.planCacheStats();
      uint64_t MissesBefore = PS ? PS->Misses : 0;
      LadderOptions LO;
      LO.Buckets = Opts.LadderBuckets;
      LO.Background = false;
      Ladder = Eng.compileLadder(E.Net, LO);
      if (Ladder)
        CN = Ladder->bucket(1);
      CacheHit = PS && PS->Misses == MissesBefore;
    }
  }

  Lock.lock();
  E.Compiling = false;
  CompileDone.notify_all();
  ++Counters.Compiles;
  if (CacheHit)
    ++Counters.PlanCacheHits;
  else
    ++Counters.Solves;
  if (!CN) {
    // Optimize/ladder-compile failure (e.g. a ladder over a library
    // without minibatch wrappers): the model stays unavailable.
    ++Counters.Unavailable;
    return nullptr;
  }
  // swap()/recompileAndSwap() may have published while we compiled with
  // the lock released. That artifact is newer and already accounted;
  // serve it and drop this compile -- republishing would clobber the
  // newer artifact and re-add Bytes on top of the swap's accounting,
  // inflating ResidentBytes with phantom bytes no entry owns.
  if (std::shared_ptr<const CompiledNet> Cur = std::atomic_load(&E.Artifact)) {
    E.LastUse = ++UseTick;
    ++Counters.Hits;
    return Cur;
  }

  // The ladder, charged whole: the anchor's kernels once (a bucket
  // prepares none) plus every rung's arena. A ladder that alone busts the
  // budget is dropped, and the anchor is admitted alone.
  size_t Bytes = 0;
  if (Ladder)
    for (const CompiledNetLadder::Rung &R : Ladder->residentRungs())
      Bytes += artifactBytes(*R.Artifact, Opts.ArenaSlabsPerModel);
  if (!Ladder || (Opts.MemBudgetBytes != 0 && Bytes > Opts.MemBudgetBytes)) {
    Ladder.reset();
    Bytes = artifactBytes(*CN, Opts.ArenaSlabsPerModel);
  }
  if (Opts.MemBudgetBytes != 0 && Bytes > Opts.MemBudgetBytes) {
    // The artifact alone busts the budget: never publish it. The compile
    // still warmed the shared PlanCache, so a later, larger budget serves
    // it without a solve.
    ++Counters.Unavailable;
    return nullptr;
  }
  makeRoomLocked(Bytes, &E);
  std::atomic_store(&E.Artifact, CN);
  E.Ladder = Ladder;
  E.Bytes = Bytes;
  E.LastUse = ++UseTick;
  Counters.ResidentBytes += Bytes;
  Counters.PeakResidentBytes =
      std::max(Counters.PeakResidentBytes, Counters.ResidentBytes);
  return CN;
}

std::shared_ptr<CompiledNetLadder>
ModelRegistry::ladderOf(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  return It == Models.end() ? nullptr : It->second.Ladder;
}

std::shared_ptr<const CompiledNet>
ModelRegistry::current(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end())
    return nullptr;
  return std::atomic_load(&It->second.Artifact);
}

bool ModelRegistry::swap(const std::string &Name,
                         std::shared_ptr<const CompiledNet> Artifact) {
  if (!Artifact)
    return false;
  size_t Bytes = artifactBytes(*Artifact, Opts.ArenaSlabsPerModel);
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end())
    return false;
  Entry &E = It->second;
  if (Opts.MemBudgetBytes != 0 && Bytes > Opts.MemBudgetBytes)
    return false;
  // Release the old artifact's accounting first, then make room for the
  // new size; in-flight requests keep the old artifact alive through the
  // shared_ptr they snapshotted, and it frees when the last one drains.
  if (std::atomic_load(&E.Artifact)) {
    Counters.ResidentBytes -= E.Bytes;
    E.Bytes = 0;
  }
  // A swap publishes a plain artifact; a previous ladder (whose anchor is
  // being replaced) is dropped with it -- lanes fall back to the per-slot
  // path until the model is readmitted through acquire().
  E.Ladder.reset();
  makeRoomLocked(Bytes, &E);
  std::atomic_store(&E.Artifact, std::move(Artifact));
  E.Bytes = Bytes;
  E.LastUse = ++UseTick;
  Counters.ResidentBytes += Bytes;
  Counters.PeakResidentBytes =
      std::max(Counters.PeakResidentBytes, Counters.ResidentBytes);
  ++Counters.Swaps;
  return true;
}

bool ModelRegistry::recompileAndSwap(const std::string &Name) {
  const NetworkGraph *Net;
  {
    std::lock_guard<std::mutex> G(Mutex);
    auto It = Models.find(Name);
    if (It == Models.end())
      return false;
    // Entries are never erased, so the graph reference outlives the lock.
    Net = &It->second.Net;
  }
  std::shared_ptr<const CompiledNet> CN;
  bool CacheHit = false;
  {
    std::lock_guard<std::mutex> EG(EngineMutex);
    SelectionResult R = Eng.optimize(*Net);
    CacheHit = R.PlanCacheHit;
    CN = Eng.compile(*Net, R);
  }
  {
    std::lock_guard<std::mutex> G(Mutex);
    ++Counters.Compiles;
    if (CacheHit)
      ++Counters.PlanCacheHits;
    else
      ++Counters.Solves;
  }
  return swap(Name, std::move(CN));
}

bool ModelRegistry::evict(const std::string &Name) {
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end())
    return false;
  Entry &E = It->second;
  if (!std::atomic_load(&E.Artifact))
    return false;
  std::atomic_store(&E.Artifact, std::shared_ptr<const CompiledNet>());
  E.Ladder.reset();
  Counters.ResidentBytes -= E.Bytes;
  E.Bytes = 0;
  ++Counters.Evictions;
  return true;
}

std::vector<std::string> ModelRegistry::modelNames() const {
  std::lock_guard<std::mutex> G(Mutex);
  std::vector<std::pair<unsigned, std::string>> Ordered;
  Ordered.reserve(Models.size());
  for (const auto &KV : Models)
    Ordered.emplace_back(KV.second.Order, KV.first);
  std::sort(Ordered.begin(), Ordered.end());
  std::vector<std::string> Names;
  Names.reserve(Ordered.size());
  for (auto &P : Ordered)
    Names.push_back(std::move(P.second));
  return Names;
}

const NetworkGraph *ModelRegistry::graphOf(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  return It == Models.end() ? nullptr : &It->second.Net;
}

size_t ModelRegistry::residentBytes() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Counters.ResidentBytes;
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Counters;
}

//===----------------------------------------------------------------------===//
// FleetServer
//===----------------------------------------------------------------------===//

FleetServer::FleetServer(ModelRegistry &Reg, const FleetOptions &Options,
                         Clock &Clk)
    : Reg(Reg), Opts(Options) {
  ServerOptions SOpts;
  SOpts.Batch = Opts.Batch;
  SOpts.Workers = Opts.WorkersPerModel;
  SOpts.BatchThreads = Opts.BatchThreads;
  SOpts.Context.UseArena = Opts.UseArena;
  for (const std::string &Name : Reg.modelNames())
    Lanes.emplace(Name, std::make_unique<Server>(Reg, Name, SOpts, Clk));
}

SubmitTicket FleetServer::submit(const std::string &Model,
                                 const Tensor3D &Input, TimeNs DeadlineNs) {
  auto It = Lanes.find(Model);
  if (It == Lanes.end()) {
    UnknownModel.fetch_add(1, std::memory_order_relaxed);
    return rejectedTicket(ServeStatus::RejectedModelUnavailable);
  }
  // The lane checks the input against the model's input shape.
  return It->second->submit(Input, DeadlineNs);
}

void FleetServer::shutdown() {
  for (auto &KV : Lanes)
    KV.second->shutdown();
}

std::vector<std::string> FleetServer::modelNames() const {
  std::vector<std::string> Names;
  Names.reserve(Lanes.size());
  for (const auto &KV : Lanes)
    Names.push_back(KV.first);
  return Names;
}

BatcherStats FleetServer::batcherStats(const std::string &Model) const {
  auto It = Lanes.find(Model);
  return It == Lanes.end() ? BatcherStats() : It->second->batcherStats();
}

LaneStats FleetServer::laneStats(const std::string &Model) const {
  auto It = Lanes.find(Model);
  if (It == Lanes.end())
    return LaneStats();
  ServerStats S = It->second->stats();
  return {S, S.UnavailableBatches, S.UnavailableRequests};
}
