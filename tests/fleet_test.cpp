//===- tests/fleet_test.cpp - Multi-model fleet serving tests -------------===//
//
// The fleet layer (serve/Fleet.h): ModelRegistry budget accounting, LRU
// eviction with PlanCache-backed readmission (prepare again, never
// re-solve), RCU hot-swap under racing submitters, and the FleetServer's
// per-model lanes staying bit-identical to the sequential Executor.
//
// The hot-swap suite races real threads over shared artifacts, which is
// why this binary carries the `concurrency` CTest label and runs under
// ThreadSanitizer in CI.
//
//===----------------------------------------------------------------------===//

#include "serve/Fleet.h"

#include "batch/Minibatch.h"
#include "cost/AnalyticModel.h"
#include "nn/Models.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

using namespace primsel;
using namespace primsel::serve;

namespace {

Tensor3D inputFor(const NetworkGraph &Net, uint64_t Seed) {
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
  T.fillRandom(Seed);
  return T;
}

/// One fixture owning the shared library/cost/engine state every registry
/// test needs. CachePlans is on: the registry's whole readmission story
/// is that evicted models re-enter through this cache.
struct FleetHarness {
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Prov{Lib, MachineProfile::haswell(), 1};
  EngineOptions EOpts;
  std::unique_ptr<Engine> Eng;

  FleetHarness() {
    EOpts.AmortizeWeightTransforms = true;
    EOpts.CachePlans = true;
    Eng = std::make_unique<Engine>(Lib, Prov, EOpts);
  }
};

/// Artifact byte sizes of the two tiny models, measured through a probe
/// engine (no plan cache, so the main engine's solve accounting stays
/// clean).
struct ProbeSizes {
  size_t ChainBytes = 0;
  size_t DagBytes = 0;
};

ProbeSizes probeSizes(PrimitiveLibrary &Lib, AnalyticCostProvider &Prov,
                      unsigned Slabs) {
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  Engine Probe(Lib, Prov, EOpts);
  ProbeSizes S;
  S.ChainBytes = ModelRegistry::artifactBytes(
      *Probe.compile(tinyChain(16)), Slabs);
  S.DagBytes =
      ModelRegistry::artifactBytes(*Probe.compile(tinyDag(16)), Slabs);
  return S;
}

TEST(ModelRegistry, RegistrationAndUnknownNames) {
  FleetHarness H;
  ModelRegistry Reg(*H.Eng);
  EXPECT_TRUE(Reg.addModel("chain", tinyChain(16)));
  EXPECT_FALSE(Reg.addModel("chain", tinyChain(16)));
  EXPECT_TRUE(Reg.addModel("dag", tinyDag(16)));

  std::vector<std::string> Names = Reg.modelNames();
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "chain"); // registration order, not map order
  EXPECT_EQ(Names[1], "dag");

  EXPECT_EQ(Reg.acquire("nope"), nullptr);
  EXPECT_EQ(Reg.current("nope"), nullptr);
  EXPECT_EQ(Reg.graphOf("nope"), nullptr);
  EXPECT_FALSE(Reg.swap("nope", nullptr));
  EXPECT_FALSE(Reg.evict("nope"));
  EXPECT_EQ(Reg.stats().Unavailable, 1u); // the failed acquire
}

TEST(ModelRegistry, AcquireCompilesOnceAndAccountsBytes) {
  FleetHarness H;
  RegistryOptions ROpts;
  ROpts.ArenaSlabsPerModel = 2;
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));

  EXPECT_EQ(Reg.current("chain"), nullptr); // current() never compiles
  std::shared_ptr<const CompiledNet> A = Reg.acquire("chain");
  ASSERT_NE(A, nullptr);
  std::shared_ptr<const CompiledNet> B = Reg.acquire("chain");
  EXPECT_EQ(A.get(), B.get()); // resident: no recompile

  RegistryStats S = Reg.stats();
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.ResidentBytes, ModelRegistry::artifactBytes(*A, 2));
  EXPECT_EQ(S.PeakResidentBytes, S.ResidentBytes);

  EXPECT_TRUE(Reg.evict("chain"));
  EXPECT_FALSE(Reg.evict("chain")); // already cold
  EXPECT_EQ(Reg.residentBytes(), 0u);
  EXPECT_EQ(Reg.current("chain"), nullptr);
  // The evicted artifact stays alive for in-flight holders (RCU drain).
  EXPECT_EQ(A->graph().name(), "tiny-chain");
}

TEST(ModelRegistry, EvictionThenReuseHitsPlanCacheAndStaysBitIdentical) {
  FleetHarness H;
  RegistryOptions ROpts;
  ROpts.ArenaSlabsPerModel = 1;
  ProbeSizes Sz = probeSizes(H.Lib, H.Prov, ROpts.ArenaSlabsPerModel);
  size_t MaxB = std::max(Sz.ChainBytes, Sz.DagBytes);
  size_t SumB = Sz.ChainBytes + Sz.DagBytes;
  ASSERT_LT(MaxB, SumB);
  // Strictly between the largest artifact and the fleet total: every
  // model is servable, but never both at once.
  ROpts.MemBudgetBytes = (MaxB + SumB) / 2;
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));
  ASSERT_TRUE(Reg.addModel("dag", tinyDag(16)));

  Tensor3D In = inputFor(*Reg.graphOf("chain"), 31);

  // Cold acquire: a real solve, then the baseline output.
  std::shared_ptr<const CompiledNet> First = Reg.acquire("chain");
  ASSERT_NE(First, nullptr);
  Tensor3D RefOut;
  {
    std::unique_ptr<ExecutionContext> Ctx = First->newContext();
    Ctx->run(In);
    RefOut = Ctx->networkOutput().clone();
  }
  // The sequential Executor is the independent oracle.
  {
    Executor Seq(First->graph(), First->plan(), H.Lib);
    Seq.run(In);
    EXPECT_EQ(maxAbsDifference(Seq.networkOutput(), RefOut), 0.0f);
  }
  EXPECT_LE(Reg.residentBytes(), ROpts.MemBudgetBytes);

  // Acquiring the second model must evict the cold first one.
  std::shared_ptr<const CompiledNet> Dag = Reg.acquire("dag");
  ASSERT_NE(Dag, nullptr);
  EXPECT_LE(Reg.residentBytes(), ROpts.MemBudgetBytes);
  EXPECT_EQ(Reg.current("chain"), nullptr);
  {
    RegistryStats S = Reg.stats();
    EXPECT_EQ(S.Compiles, 2u);
    EXPECT_EQ(S.Solves, 2u);
    EXPECT_EQ(S.Evictions, 1u);
  }

  // Readmission: prepare happens (a fresh artifact), the solve does not
  // (PlanCacheHit), and the outputs are bit-identical.
  std::shared_ptr<const CompiledNet> Again = Reg.acquire("chain");
  ASSERT_NE(Again, nullptr);
  EXPECT_NE(Again.get(), First.get()); // genuinely recompiled
  EXPECT_LE(Reg.residentBytes(), ROpts.MemBudgetBytes);
  {
    RegistryStats S = Reg.stats();
    EXPECT_EQ(S.Compiles, 3u);
    EXPECT_EQ(S.Solves, 2u);
    EXPECT_EQ(S.PlanCacheHits, 1u) << "readmission must not re-solve";
    EXPECT_EQ(S.Evictions, 2u); // dag made way for chain's readmission
    EXPECT_LE(S.PeakResidentBytes, ROpts.MemBudgetBytes);
  }
  {
    std::unique_ptr<ExecutionContext> Ctx = Again->newContext();
    Ctx->run(In);
    EXPECT_EQ(maxAbsDifference(Ctx->networkOutput(), RefOut), 0.0f)
        << "evict/readmit changed the computed function";
  }
}

TEST(ModelRegistry, OversizedArtifactIsUnavailableNotPublished) {
  FleetHarness H;
  RegistryOptions ROpts;
  ROpts.MemBudgetBytes = 1; // nothing fits
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));

  EXPECT_EQ(Reg.acquire("chain"), nullptr);
  RegistryStats S = Reg.stats();
  EXPECT_EQ(S.Compiles, 1u); // it did compile (and warmed the plan cache)
  EXPECT_EQ(S.Unavailable, 1u);
  EXPECT_EQ(S.ResidentBytes, 0u);
  EXPECT_EQ(Reg.current("chain"), nullptr);
}

TEST(ModelRegistry, SwapPublishesAndReaccounts) {
  FleetHarness H;
  ModelRegistry Reg(*H.Eng);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));
  std::shared_ptr<const CompiledNet> Old = Reg.acquire("chain");
  ASSERT_NE(Old, nullptr);

  ASSERT_TRUE(Reg.recompileAndSwap("chain"));
  std::shared_ptr<const CompiledNet> New = Reg.current("chain");
  ASSERT_NE(New, nullptr);
  EXPECT_NE(New.get(), Old.get());
  RegistryStats S = Reg.stats();
  EXPECT_EQ(S.Swaps, 1u);
  EXPECT_EQ(S.PlanCacheHits, 1u); // the rebuild came from the warm cache
  EXPECT_EQ(S.ResidentBytes, ModelRegistry::artifactBytes(*New, 1));

  // Old-artifact holders still compute: the RCU drain guarantee.
  Tensor3D In = inputFor(Old->graph(), 33);
  std::unique_ptr<ExecutionContext> OldCtx = Old->newContext();
  std::unique_ptr<ExecutionContext> NewCtx = New->newContext();
  OldCtx->run(In);
  NewCtx->run(In);
  EXPECT_EQ(
      maxAbsDifference(OldCtx->networkOutput(), NewCtx->networkOutput()),
      0.0f);
}

TEST(ModelRegistry, SwapDuringCompileWinsAndConservesBytes) {
  // Regression: acquire() compiles with the registry lock released
  // (Compiling=true), so a concurrent swap() on the same model can
  // publish first. Republishing the stale compile on relock used to add
  // its bytes on top of the swap's accounting, permanently inflating
  // ResidentBytes with phantom bytes no entry owned (spurious evictions,
  // and eventually makeRoomLocked with no victim) -- and silently
  // replaced the newer swapped artifact. The test hook pins the
  // interleaving: the swap lands inside acquire()'s compile window.
  FleetHarness H;
  ModelRegistry Reg(*H.Eng);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));

  std::atomic<unsigned> HookFires{0};
  Reg.TestOnCompileUnlocked = [&](const std::string &Name) {
    // Fire once: the recursive compile inside recompileAndSwap never
    // re-enters acquire(), so a single guard suffices.
    if (HookFires.fetch_add(1) == 0) {
      EXPECT_EQ(Name, "chain");
      EXPECT_TRUE(Reg.recompileAndSwap("chain"));
    }
  };
  std::shared_ptr<const CompiledNet> Got = Reg.acquire("chain");
  Reg.TestOnCompileUnlocked = nullptr;
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(HookFires.load(), 1u);

  // The swapped artifact is newer: acquire must serve it, not the stale
  // compile it raced.
  EXPECT_EQ(Got.get(), Reg.current("chain").get());
  RegistryStats S = Reg.stats();
  EXPECT_EQ(S.Swaps, 1u);
  EXPECT_EQ(S.Compiles, 2u); // the discarded compile still ran
  EXPECT_EQ(S.ResidentBytes, ModelRegistry::artifactBytes(*Got, 1))
      << "the discarded compile must not be double-accounted";

  // Conservation: evicting the only model must drain to exactly zero.
  EXPECT_TRUE(Reg.evict("chain"));
  EXPECT_EQ(Reg.residentBytes(), 0u);
}

TEST(ModelRegistry, ThrashingAcquireEvictSwapHoldsBudgetInvariants) {
  // Stochastic companion to the deterministic race test above: hammer
  // concurrent acquire/evict/swap over two models under a budget that
  // fits only one. The budget must hold throughout, and evicting
  // everything afterwards must drain the accounting to exactly zero.
  // Runs under TSan in the concurrency CI job.
  FleetHarness H;
  RegistryOptions ROpts;
  ProbeSizes Sz = probeSizes(H.Lib, H.Prov, ROpts.ArenaSlabsPerModel);
  size_t MaxB = std::max(Sz.ChainBytes, Sz.DagBytes);
  size_t SumB = Sz.ChainBytes + Sz.DagBytes;
  ASSERT_LT(MaxB, SumB);
  ROpts.MemBudgetBytes = (MaxB + SumB) / 2; // fits either model, never both
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));
  ASSERT_TRUE(Reg.addModel("dag", tinyDag(16)));

  const char *Names[] = {"chain", "dag"};
  constexpr unsigned Iters = 150;
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (const char *Name : Names) {
    // Each acquire evicts the other model, so iterations are cold
    // compiles racing the swapper thread on the same entry.
    Threads.emplace_back([&, Name] {
      while (!Go.load())
        std::this_thread::yield();
      for (unsigned I = 0; I < Iters; ++I)
        EXPECT_NE(Reg.acquire(Name), nullptr);
    });
    // Explicit evictions widen the cold window the acquires race through.
    Threads.emplace_back([&, Name] {
      while (!Go.load())
        std::this_thread::yield();
      for (unsigned I = 0; I < Iters; ++I)
        Reg.evict(Name);
    });
  }
  Go.store(true);
  for (unsigned I = 0; I < Iters; ++I)
    EXPECT_TRUE(Reg.recompileAndSwap(Names[I % 2]));
  for (std::thread &T : Threads)
    T.join();

  EXPECT_LE(Reg.stats().PeakResidentBytes, ROpts.MemBudgetBytes);
  // Conservation: with every model evicted, no bytes may linger.
  for (const char *Name : Names)
    Reg.evict(Name);
  EXPECT_EQ(Reg.residentBytes(), 0u);
  EXPECT_EQ(Reg.current("chain"), nullptr);
  EXPECT_EQ(Reg.current("dag"), nullptr);
}

//===----------------------------------------------------------------------===//
// FleetServer lanes
//===----------------------------------------------------------------------===//

TEST(FleetServer, MixedModelsBitIdenticalToSequentialExecutor) {
  FleetHarness H;
  ModelRegistry Reg(*H.Eng);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));
  ASSERT_TRUE(Reg.addModel("dag", tinyDag(16)));

  // Per-model references from the sequential Executor.
  std::map<std::string, Tensor3D> Input, Ref;
  for (const std::string &Name : Reg.modelNames()) {
    std::shared_ptr<const CompiledNet> CN = Reg.acquire(Name);
    ASSERT_NE(CN, nullptr);
    Tensor3D In = inputFor(CN->graph(), 41);
    Executor Seq(CN->graph(), CN->plan(), H.Lib);
    Seq.run(In);
    Ref.emplace(Name, Seq.networkOutput().clone());
    Input.emplace(Name, std::move(In));
  }

  FleetOptions FOpts;
  FOpts.Batch.MaxBatch = 4;
  FOpts.Batch.MaxDelayNs = nsPerMs / 2;
  FOpts.WorkersPerModel = 2;
  FleetServer Srv(Reg, FOpts);

  const unsigned N = 24;
  std::vector<std::pair<std::string, SubmitTicket>> Tickets;
  for (unsigned I = 0; I < N; ++I) {
    const std::string &Name = I % 2 ? "dag" : "chain";
    Tickets.emplace_back(Name, Srv.submit(Name, Input.at(Name)));
  }
  // Unknown model names resolve immediately, without touching a lane.
  SubmitTicket Bad = Srv.submit("nope", Input.at("chain"));
  EXPECT_EQ(Bad.Response.get().Status,
            ServeStatus::RejectedModelUnavailable);
  EXPECT_EQ(Srv.unknownModelRejects(), 1u);

  Srv.shutdown();
  for (auto &[Name, T] : Tickets) {
    ServeResponse R = T.Response.get();
    ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);
    EXPECT_EQ(maxAbsDifference(R.Output, Ref.at(Name)), 0.0f)
        << "lane " << Name;
  }
  EXPECT_EQ(Srv.laneStats("chain").Exec.RequestsExecuted, N / 2);
  EXPECT_EQ(Srv.laneStats("dag").Exec.RequestsExecuted, N / 2);
}

TEST(FleetServer, UnadmittableModelIsRejectedWithoutStallingOtherLanes) {
  // A budget between the two artifacts' sizes: the smaller model serves,
  // the bigger one can never be admitted. Every request to the bigger
  // model must resolve RejectedModelUnavailable without executing, and
  // the other lane must serve as if the bigger model were not there.
  FleetHarness H;
  RegistryOptions ROpts;
  ROpts.ArenaSlabsPerModel = 1;
  ProbeSizes Sz = probeSizes(H.Lib, H.Prov, ROpts.ArenaSlabsPerModel);
  ASSERT_NE(Sz.ChainBytes, Sz.DagBytes);
  ROpts.MemBudgetBytes = (Sz.ChainBytes + Sz.DagBytes) / 2;
  const std::string Big = Sz.ChainBytes > Sz.DagBytes ? "chain" : "dag";
  const std::string Small = Big == "chain" ? "dag" : "chain";
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));
  ASSERT_TRUE(Reg.addModel("dag", tinyDag(16)));

  std::shared_ptr<const CompiledNet> CN = Reg.acquire(Small);
  ASSERT_NE(CN, nullptr);
  Tensor3D SmallIn = inputFor(CN->graph(), 61);
  Executor Seq(CN->graph(), CN->plan(), H.Lib);
  Seq.run(SmallIn);
  Tensor3D Ref = Seq.networkOutput().clone();
  Tensor3D BigIn = inputFor(*Reg.graphOf(Big), 62);

  FleetOptions FOpts;
  FOpts.Batch.MaxBatch = 2;
  FOpts.Batch.MaxDelayNs = nsPerMs / 4;
  FleetServer Srv(Reg, FOpts);
  const unsigned N = 6;
  std::vector<SubmitTicket> BigTickets, SmallTickets;
  for (unsigned I = 0; I < N; ++I) {
    BigTickets.push_back(Srv.submit(Big, BigIn));
    SmallTickets.push_back(Srv.submit(Small, SmallIn));
  }
  Srv.shutdown();

  for (SubmitTicket &T : BigTickets)
    EXPECT_EQ(T.Response.get().Status, ServeStatus::RejectedModelUnavailable);
  for (SubmitTicket &T : SmallTickets) {
    ServeResponse R = T.Response.get();
    ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);
    EXPECT_EQ(maxAbsDifference(R.Output, Ref), 0.0f);
  }
  LaneStats BigLane = Srv.laneStats(Big);
  EXPECT_GE(BigLane.UnavailableBatches, 1u);
  EXPECT_EQ(BigLane.UnavailableBatches, Srv.batcherStats(Big).Batches);
  EXPECT_EQ(BigLane.UnavailableRequests, N);
  EXPECT_EQ(BigLane.Exec.BatchesExecuted, 0u);
  EXPECT_EQ(BigLane.Exec.RequestsExecuted, 0u);
  LaneStats SmallLane = Srv.laneStats(Small);
  EXPECT_EQ(SmallLane.Exec.RequestsExecuted, N);
  EXPECT_EQ(SmallLane.UnavailableRequests, 0u);
  EXPECT_EQ(Reg.current(Big), nullptr);
}

TEST(FleetServer, HotSwapRacingSubmittersSeeOldOrNewNeverTorn) {
  // Submitters hammer one lane while the main thread repeatedly
  // recompiles and RCU-swaps the artifact. Every response must be Ok and
  // bit-identical to the reference -- a torn artifact pointer, a context
  // bound across generations, or a freed old artifact would all break
  // that (and trip TSan in the concurrency CI job).
  FleetHarness H;
  ModelRegistry Reg(*H.Eng);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));

  std::shared_ptr<const CompiledNet> CN = Reg.acquire("chain");
  ASSERT_NE(CN, nullptr);
  Tensor3D In = inputFor(CN->graph(), 51);
  Executor Seq(CN->graph(), CN->plan(), H.Lib);
  Seq.run(In);
  Tensor3D Ref = Seq.networkOutput().clone();

  FleetOptions FOpts;
  FOpts.Batch.MaxBatch = 2;
  FOpts.Batch.MaxDelayNs = nsPerMs / 4;
  FOpts.WorkersPerModel = 2;
  FOpts.Batch.MaxQueue = 1024;
  FleetServer Srv(Reg, FOpts);

  constexpr unsigned Submitters = 3;
  constexpr unsigned PerThread = 10;
  std::vector<std::future<ServeResponse>> Futures[Submitters];
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Submitters; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load())
        std::this_thread::yield();
      for (unsigned I = 0; I < PerThread; ++I)
        Futures[T].push_back(Srv.submit("chain", In).Response);
    });

  Go.store(true);
  for (unsigned S = 0; S < 4; ++S)
    ASSERT_TRUE(Reg.recompileAndSwap("chain"));
  for (std::thread &T : Threads)
    T.join();
  Srv.shutdown();

  for (unsigned T = 0; T < Submitters; ++T)
    for (std::future<ServeResponse> &F : Futures[T]) {
      ServeResponse R = F.get();
      ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);
      EXPECT_EQ(maxAbsDifference(R.Output, Ref), 0.0f);
    }
  RegistryStats S = Reg.stats();
  EXPECT_EQ(S.Swaps, 4u);
  EXPECT_GE(S.PlanCacheHits, 4u); // rebuilds come from the warm cache
}

//===----------------------------------------------------------------------===//
// Batch-ladder fleets (RegistryOptions::LadderBuckets)
//===----------------------------------------------------------------------===//

/// FleetHarness over the batched library: ladder buckets select among the
/// §8 minibatch wrappers.
struct FleetBatchedHarness {
  PrimitiveLibrary Lib = buildBatchedLibrary();
  AnalyticCostProvider Prov{Lib, MachineProfile::haswell(), 1};
  EngineOptions EOpts;
  std::unique_ptr<Engine> Eng;

  FleetBatchedHarness() {
    EOpts.AmortizeWeightTransforms = true;
    EOpts.CachePlans = true;
    Eng = std::make_unique<Engine>(Lib, Prov, EOpts);
  }
};

/// Whole-ladder byte cost of \p Net under \p Buckets, measured through a
/// probe engine so the test engine's accounting stays clean.
size_t ladderBytes(PrimitiveLibrary &Lib, AnalyticCostProvider &Prov,
                   NetworkGraph Net, const std::vector<int64_t> &Buckets,
                   unsigned Slabs) {
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  Engine Probe(Lib, Prov, EOpts);
  LadderOptions LO;
  LO.Buckets = Buckets;
  LO.Background = false;
  std::shared_ptr<CompiledNetLadder> L = Probe.compileLadder(Net, LO);
  size_t Sum = 0;
  for (const CompiledNetLadder::Rung &R : L->residentRungs())
    Sum += ModelRegistry::artifactBytes(*R.Artifact, Slabs);
  return Sum;
}

TEST(FleetLadder, FirstAcquireCompilesWholeLadderAndChargesIt) {
  FleetBatchedHarness H;
  RegistryOptions ROpts;
  ROpts.ArenaSlabsPerModel = 2;
  ROpts.LadderBuckets = {1, 2, 4};
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));

  EXPECT_EQ(Reg.ladderOf("chain"), nullptr); // cold: no ladder yet
  std::shared_ptr<const CompiledNet> CN = Reg.acquire("chain");
  ASSERT_NE(CN, nullptr);
  std::shared_ptr<CompiledNetLadder> L = Reg.ladderOf("chain");
  ASSERT_NE(L, nullptr);
  // The whole ladder compiled synchronously at admission...
  EXPECT_EQ(L->residentRungs().size(), 3u);
  EXPECT_EQ(L->bucket(1).get(), CN.get());
  // ...and the budget sees every rung: the anchor once, since a bucket
  // binds the anchor's kernels and prepares none, plus each other rung's
  // arena slabs.
  size_t Sum = ModelRegistry::artifactBytes(*CN, ROpts.ArenaSlabsPerModel);
  for (const CompiledNetLadder::Rung &R : L->residentRungs()) {
    if (R.Bucket == 1)
      continue;
    EXPECT_EQ(R.Artifact->preparedBytes(), 0u) << "bucket " << R.Bucket;
    Sum += R.Artifact->memoryPlan().arenaBytes() * ROpts.ArenaSlabsPerModel;
  }
  RegistryStats S = Reg.stats();
  EXPECT_EQ(S.ResidentBytes, Sum);
  EXPECT_GT(Sum,
            ModelRegistry::artifactBytes(*CN, ROpts.ArenaSlabsPerModel));

  // Whole-model eviction drops the ladder with the artifact.
  EXPECT_TRUE(Reg.evict("chain"));
  EXPECT_EQ(Reg.ladderOf("chain"), nullptr);
  EXPECT_EQ(Reg.residentBytes(), 0u);
}

TEST(FleetLadder, LadderOverBudgetIsDroppedAndAnchorAdmittedAlone) {
  FleetBatchedHarness H;
  RegistryOptions ROpts;
  ROpts.ArenaSlabsPerModel = 1;
  ROpts.LadderBuckets = {1, 2, 4};
  size_t ChainL = ladderBytes(H.Lib, H.Prov, tinyChain(16),
                              ROpts.LadderBuckets,
                              ROpts.ArenaSlabsPerModel);
  // The full ladder misses the budget by one byte, but the anchor fits:
  // admission drops the ladder and publishes the anchor alone.
  ROpts.MemBudgetBytes = ChainL - 1;
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));

  std::shared_ptr<const CompiledNet> CN = Reg.acquire("chain");
  ASSERT_NE(CN, nullptr);
  EXPECT_EQ(Reg.ladderOf("chain"), nullptr);
  RegistryStats S = Reg.stats();
  EXPECT_EQ(S.Unavailable, 0u);
  EXPECT_EQ(S.ResidentBytes,
            ModelRegistry::artifactBytes(*CN, ROpts.ArenaSlabsPerModel));

  // The lane serves every batch per slot, bit-identically.
  Tensor3D In = inputFor(CN->graph(), 63);
  Executor Seq(CN->graph(), CN->plan(), H.Lib);
  Seq.run(In);
  Tensor3D Ref = Seq.networkOutput().clone();
  FleetOptions FOpts;
  FOpts.Batch.MaxBatch = 4;
  FOpts.Batch.MaxDelayNs = nsPerMs / 2;
  FOpts.Batch.MaxQueue = 1024;
  FleetServer Srv(Reg, FOpts);
  const unsigned N = 12;
  std::vector<std::future<ServeResponse>> Futures;
  for (unsigned I = 0; I < N; ++I)
    Futures.push_back(Srv.submit("chain", In).Response);
  Srv.shutdown();
  for (std::future<ServeResponse> &F : Futures) {
    ServeResponse R = F.get();
    ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);
    EXPECT_EQ(maxAbsDifference(R.Output, Ref), 0.0f);
  }
  LaneStats LS = Srv.laneStats("chain");
  EXPECT_EQ(LS.Exec.RequestsExecuted, N);
  EXPECT_EQ(LS.Exec.BatchedBatches, 0u);
  EXPECT_EQ(LS.Exec.FallbackBatches, LS.Exec.BatchesExecuted);
  EXPECT_LE(Reg.residentBytes(), ROpts.MemBudgetBytes);
}

TEST(FleetLadder, LanesServeThroughBucketsBitIdentically) {
  FleetBatchedHarness H;
  RegistryOptions ROpts;
  ROpts.LadderBuckets = {1, 2, 4};
  ModelRegistry Reg(*H.Eng, ROpts);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));

  std::shared_ptr<const CompiledNet> CN = Reg.acquire("chain");
  ASSERT_NE(CN, nullptr);
  Tensor3D In = inputFor(CN->graph(), 61);
  Executor Seq(CN->graph(), CN->plan(), H.Lib);
  Seq.run(In);
  Tensor3D Ref = Seq.networkOutput().clone();

  FleetOptions FOpts;
  FOpts.Batch.MaxBatch = 4;
  FOpts.Batch.MaxDelayNs = nsPerMs / 2;
  FOpts.Batch.MaxQueue = 1024;
  FOpts.WorkersPerModel = 2;
  FleetServer Srv(Reg, FOpts);

  const unsigned N = 24;
  std::vector<std::future<ServeResponse>> Futures;
  for (unsigned I = 0; I < N; ++I)
    Futures.push_back(Srv.submit("chain", In).Response);
  Srv.shutdown();

  for (std::future<ServeResponse> &F : Futures) {
    ServeResponse R = F.get();
    ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);
    EXPECT_EQ(maxAbsDifference(R.Output, Ref), 0.0f);
  }
  // The whole ladder is resident from admission, so every batch -- any K
  // in [1, MaxBatch] -- dispatches through a bucket, never the per-slot
  // fallback.
  LaneStats LS = Srv.laneStats("chain");
  EXPECT_EQ(LS.Exec.RequestsExecuted, N);
  EXPECT_GT(LS.Exec.BatchedBatches, 0u);
  EXPECT_EQ(LS.Exec.FallbackBatches, 0u);
}

TEST(FleetServer, WrongShapeInputIsRejectedNotExecuted) {
  // A lane refuses an input that is not its model's input shape with
  // RejectedInvalidInput, before any compile or batch; the next valid
  // request to the same lane is served bit-identically.
  FleetHarness H;
  ModelRegistry Reg(*H.Eng);
  ASSERT_TRUE(Reg.addModel("chain", tinyChain(16)));
  ASSERT_TRUE(Reg.addModel("dag", tinyDag(16)));
  Tensor3D In = inputFor(*Reg.graphOf("chain"), 71);
  const TensorShape &Sh = Reg.graphOf("chain")->node(0).OutShape;
  Tensor3D Wrong(Sh.C, Sh.H + 1, Sh.W, Layout::CHW);
  Wrong.fillRandom(72);

  FleetServer Srv(Reg, FleetOptions{});
  SubmitTicket Bad = Srv.submit("chain", Wrong);
  EXPECT_EQ(Bad.Response.get().Status, ServeStatus::RejectedInvalidInput);
  EXPECT_EQ(Reg.stats().Compiles, 0u);
  ServeResponse R = Srv.submit("chain", In).Response.get();
  Srv.shutdown();
  ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);

  std::shared_ptr<const CompiledNet> CN = Reg.acquire("chain");
  ASSERT_NE(CN, nullptr);
  Executor Seq(CN->graph(), CN->plan(), H.Lib);
  Seq.run(In);
  EXPECT_EQ(std::memcmp(R.Output.data(), Seq.networkOutput().data(),
                        static_cast<size_t>(R.Output.size()) *
                            sizeof(float)),
            0);
  EXPECT_EQ(Srv.laneStats("chain").Exec.InvalidInputs, 1u);
  EXPECT_EQ(Srv.batcherStats("chain").Submitted, 1u);
}

} // namespace
