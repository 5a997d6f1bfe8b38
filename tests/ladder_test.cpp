//===- tests/ladder_test.cpp - Batch-ladder serving tests -----------------===//
//
// The batch-bucketed plan ladder (engine/Ladder.h + Engine::compileLadder)
// and its serving dispatch (serve/Server.h executeBatch/executeBatchLadder):
// bucket compilation sync and background, acquire/miss semantics, plan-cache
// bucket keying, anchor-routine restriction, eviction (including the
// release of evicted rungs' cached contexts), bucket-context bit-identity
// against the sequential Executor, and the per-request latency/deadline
// accounting of both dispatch paths under a VirtualClock.
//
// The background-compile suite races a live acquire() loop against the
// ladder's compile thread, which is why this binary carries the
// `concurrency` CTest label and runs under ThreadSanitizer in CI.
//
//===----------------------------------------------------------------------===//

#include "batch/Minibatch.h"
#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"
#include "serve/Server.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <thread>
#include <vector>

using namespace primsel;
using namespace primsel::serve;

namespace {

/// Deep copy of a context/executor output (their buffers are reused).
Tensor3D cloneTensor(const Tensor3D &T) {
  Tensor3D Out(T.channels(), T.height(), T.width(), T.layout());
  std::memcpy(Out.data(), T.data(),
              static_cast<size_t>(T.size()) * sizeof(float));
  return Out;
}

Tensor3D inputFor(const NetworkGraph &Net, uint64_t Seed) {
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
  T.fillRandom(Seed);
  return T;
}

/// Shared engine state for every ladder test. The library must be the
/// batched one: bucket solves select among the §8 minibatch wrappers.
struct LadderHarness {
  PrimitiveLibrary Lib = buildBatchedLibrary();
  AnalyticCostProvider Prov{Lib, MachineProfile::haswell(), 1};
  EngineOptions EOpts;
  std::unique_ptr<Engine> Eng;

  LadderHarness() {
    EOpts.AmortizeWeightTransforms = true;
    EOpts.CachePlans = true;
    Eng = std::make_unique<Engine>(Lib, Prov, EOpts);
  }

  std::shared_ptr<CompiledNetLadder> ladder(std::vector<int64_t> Buckets,
                                            bool Background) {
    LadderOptions LO;
    LO.Buckets = std::move(Buckets);
    LO.Background = Background;
    return Eng->compileLadder(tinyChain(16), LO);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Ladder compilation + acquire semantics
//===----------------------------------------------------------------------===//

TEST(Ladder, SyncModeCompilesEveryBucketUpFront) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4}, false);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->residentRungs().size(), 3u);
  EXPECT_EQ(L->maxBucket(), 4);
  LadderStats S = L->stats();
  EXPECT_EQ(S.SyncCompiles, 2u); // buckets 2 and 4; bucket 1 is the anchor
  EXPECT_EQ(S.BackgroundCompiles, 0u);
  EXPECT_EQ(S.CompileFailures, 0u);
  EXPECT_EQ(S.ResidentBuckets, 3u);
  for (const CompiledNetLadder::Rung &R : L->residentRungs()) {
    ASSERT_NE(R.Artifact, nullptr);
    EXPECT_EQ(R.Artifact->graph().batch(), R.Bucket);
  }
}

TEST(Ladder, AcquireReturnsSmallestResidentBucketHoldingK) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4}, false);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->acquire(1).Bucket, 1);
  EXPECT_EQ(L->acquire(2).Bucket, 2);
  EXPECT_EQ(L->acquire(3).Bucket, 4); // partial batch on the 4-bucket
  EXPECT_EQ(L->acquire(4).Bucket, 4);
  // K beyond the ladder: a miss, never a smaller bucket.
  CompiledNetLadder::Rung Miss = L->acquire(5);
  EXPECT_EQ(Miss.Artifact, nullptr);
  LadderStats S = L->stats();
  EXPECT_EQ(S.Hits, 4u);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(Ladder, BucketPlansRestrictToAnchorRoutines) {
  // Every bucket's plan must pick a minibatch wrapper of the anchor plan's
  // routine per conv layer -- only the §8 schedule axis (@bser/@bpar,
  // threads) is free. This is what makes bucket outputs bit-identical.
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4}, false);
  ASSERT_NE(L, nullptr);
  std::shared_ptr<const CompiledNet> Anchor = L->bucket(1);
  ASSERT_NE(Anchor, nullptr);
  for (const CompiledNetLadder::Rung &R : L->residentRungs()) {
    if (R.Bucket == 1)
      continue;
    const NetworkGraph &G = R.Artifact->graph();
    for (NetworkGraph::NodeId N : G.convNodes()) {
      const ConvPrimitive &P =
          R.Artifact->library().get(R.Artifact->plan().ConvPrim[N]);
      const auto *MB = dynamic_cast<const MinibatchPrimitive *>(&P);
      ASSERT_NE(MB, nullptr)
          << "bucket " << R.Bucket << " node " << N
          << " selected a non-minibatch routine: " << P.name();
      EXPECT_EQ(MB->base().name(),
                Anchor->library().get(Anchor->plan().ConvPrim[N]).name());
    }
  }
}

TEST(Ladder, PlanCacheKeysSeparateBuckets) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> First = H.ladder({1, 2, 4}, false);
  ASSERT_NE(First, nullptr);
  const PlanCacheStats *PS = H.Eng->planCacheStats();
  ASSERT_NE(PS, nullptr);
  // Three distinct solves: the anchor plus one per bucket > 1 -- bucket
  // keys never collide with each other or with the batch-1 plan.
  EXPECT_EQ(PS->Misses, 3u);

  // A second ladder over the same network re-acquires every plan from the
  // cache: zero new solves.
  std::shared_ptr<CompiledNetLadder> Second = H.ladder({1, 2, 4}, false);
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(PS->Misses, 3u);
  EXPECT_GE(PS->MemoryHits, 3u);
}

TEST(Ladder, BackgroundCompileStaysOffTheRequestPath) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2}, true);
  ASSERT_NE(L, nullptr);
  // Only the anchor is resident until a miss requests bucket 2.
  EXPECT_EQ(L->bucket(2), nullptr);
  CompiledNetLadder::Rung Miss = L->acquire(2);
  EXPECT_EQ(Miss.Artifact, nullptr); // the request path never waits
  L->waitForCompiles();
  LadderStats S = L->stats();
  EXPECT_EQ(S.BackgroundCompiles, 1u);
  EXPECT_EQ(S.SyncCompiles, 0u);
  CompiledNetLadder::Rung Hit = L->acquire(2);
  ASSERT_NE(Hit.Artifact, nullptr);
  EXPECT_EQ(Hit.Bucket, 2);
}

TEST(Ladder, EvictionProtectsAnchorAndDropsColdestFirst) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4}, false);
  ASSERT_NE(L, nullptr);
  EXPECT_FALSE(L->evictBucket(1)); // the anchor is the registry's business
  // Touch 4 then 2: bucket 4 is now the colder of the two evictables.
  L->acquire(4);
  L->acquire(2);
  CompiledNetLadder::Rung Dropped = L->evictColdestBucket();
  EXPECT_EQ(Dropped.Bucket, 4);
  ASSERT_NE(Dropped.Artifact, nullptr); // returned for byte accounting
  EXPECT_EQ(L->evictColdestBucket().Bucket, 2);
  // Only the anchor remains: nothing left to evict.
  EXPECT_EQ(L->evictColdestBucket().Artifact, nullptr);
  EXPECT_EQ(L->stats().ResidentBuckets, 1u);
  EXPECT_NE(L->bucket(1), nullptr);
}

TEST(Ladder, EvictedBucketIsRequestableAgainInBackgroundMode) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2}, true);
  ASSERT_NE(L, nullptr);
  L->acquire(2);
  L->waitForCompiles();
  ASSERT_NE(L->bucket(2), nullptr);
  EXPECT_TRUE(L->evictBucket(2));
  // The eviction cleared the bucket from the requested set, so the next
  // miss queues a fresh compile instead of being swallowed.
  EXPECT_EQ(L->acquire(2).Artifact, nullptr);
  L->waitForCompiles();
  EXPECT_NE(L->bucket(2), nullptr);
  EXPECT_EQ(L->stats().BackgroundCompiles, 2u);
}

TEST(Ladder, BackgroundCompileRacesAcquire) {
  // The TSan scenario: serving threads hammer acquire() while the
  // background thread compiles and publishes rungs.
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4, 8}, true);
  ASSERT_NE(L, nullptr);
  // Request every bucket up front: a hit on a larger resident bucket never
  // requests the smaller ideal one, so otherwise a slow-starting thread
  // could leave a bucket unrequested and the drained ladder incomplete.
  for (int64_t K : {2, 4, 8})
    EXPECT_EQ(L->acquire(K).Artifact, nullptr);
  constexpr int PerThread = 200;
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([&L, T] {
      for (int I = 0; I < PerThread; ++I) {
        int64_t K = 1 + ((I * 7 + T * 3) % 8);
        CompiledNetLadder::Rung R = L->acquire(K);
        if (R.Artifact)
          EXPECT_GE(R.Bucket, K);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  L->waitForCompiles();
  LadderStats S = L->stats();
  EXPECT_EQ(S.Hits + S.Misses, 2u * PerThread + 3u);
  EXPECT_EQ(S.CompileFailures, 0u);
  // Every miss queued a compile; after the drain the whole ladder stands.
  EXPECT_EQ(S.ResidentBuckets, 4u);
}

//===----------------------------------------------------------------------===//
// Bucket contexts: bit-identity across the bucket x width x branches grid
//===----------------------------------------------------------------------===//

TEST(BatchContext, BitIdenticalToSequentialExecutorAtEveryGridPoint) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4}, false);
  ASSERT_NE(L, nullptr);
  std::shared_ptr<const CompiledNet> Anchor = L->bucket(1);

  std::vector<Tensor3D> Inputs;
  std::vector<Tensor3D> Reference;
  Executor Seq(Anchor->graph(), Anchor->plan(), H.Lib);
  for (uint64_t I = 0; I < 4; ++I) {
    Inputs.push_back(inputFor(Anchor->graph(), 31 + I));
    Seq.run(Inputs.back());
    Reference.push_back(cloneTensor(Seq.networkOutput()));
  }

  for (const CompiledNetLadder::Rung &R : L->residentRungs()) {
    for (unsigned Threads = 1; Threads <= 2; ++Threads) {
      for (bool Branches : {false, true}) {
        ExecutionContextOptions Opts;
        Opts.Threads = Threads;
        Opts.ParallelBranches = Branches;
        ExecutionContext Ctx(R.Artifact, Opts);
        EXPECT_EQ(Ctx.capacity(), R.Bucket);
        // Partial batches are first-class: every K the bucket accepts.
        for (int64_t K = 1; K <= R.Bucket; ++K) {
          std::vector<const Tensor3D *> Ptrs;
          for (int64_t I = 0; I < K; ++I)
            Ptrs.push_back(&Inputs[static_cast<size_t>(I) % Inputs.size()]);
          Ctx.run(Ptrs);
          for (int64_t I = 0; I < K; ++I)
            EXPECT_EQ(maxAbsDifference(Ctx.output(static_cast<size_t>(I)),
                                       Reference[static_cast<size_t>(I) %
                                                 Reference.size()]),
                      0.0f)
                << "bucket " << R.Bucket << " K " << K << " width "
                << Threads << " branches " << Branches << " image " << I;
        }
        // The single-image entry point is K = 1 on any bucket.
        Ctx.run(Inputs[1]);
        EXPECT_EQ(maxAbsDifference(Ctx.networkOutput(), Reference[1]), 0.0f)
            << "bucket " << R.Bucket << " single-image run, width "
            << Threads << " branches " << Branches;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// executeBatch / executeBatchLadder accounting (VirtualClock)
//===----------------------------------------------------------------------===//

namespace {

/// Hand-built batch: \p Specs are (ArrivalNs, DeadlineNs) pairs; futures
/// come back in the same order.
Batch makeBatch(const Tensor3D &Input, TimeNs FormedNs,
                const std::vector<std::pair<TimeNs, TimeNs>> &Specs,
                std::vector<std::future<ServeResponse>> &Futures) {
  Batch B;
  B.FormedNs = FormedNs;
  uint64_t Id = 1;
  for (const auto &[ArrivalNs, DeadlineNs] : Specs) {
    BatchRequest Rq;
    Rq.Id = Id++;
    Rq.Input = &Input;
    Rq.ArrivalNs = ArrivalNs;
    Rq.DeadlineNs = DeadlineNs;
    Futures.push_back(Rq.Done.get_future());
    B.Requests.push_back(std::move(Rq));
  }
  return B;
}

} // namespace

TEST(ExecuteBatch, LatencyAndDeadlineAccountingUnderVirtualClock) {
  LadderHarness H;
  std::shared_ptr<const CompiledNet> CN = H.Eng->compile(tinyChain(16));
  ASSERT_NE(CN, nullptr);
  Tensor3D Input = inputFor(CN->graph(), 5);

  // Execution happens at t = 5 ms. A mixed batch: one deadline already
  // blown, one generous, one absent.
  VirtualClock Clk;
  Clk.advanceTo(5 * nsPerMs);
  std::vector<std::future<ServeResponse>> Futures;
  Batch B = makeBatch(Input, /*FormedNs=*/3 * nsPerMs,
                      {{1 * nsPerMs, 4 * nsPerMs},   // late: done at 5 > 4
                       {2 * nsPerMs, 100 * nsPerMs}, // comfortably early
                       {3 * nsPerMs, 0}},            // no deadline
                      Futures);

  std::vector<std::unique_ptr<ExecutionContext>> Slots;
  ExecutionContextOptions CtxOpts;
  ThreadPool Pool(1);
  std::atomic<uint64_t> Misses{0};
  executeBatch(CN, B, Slots, CtxOpts, Pool, Clk, Misses);

  std::vector<ServeResponse> R;
  for (auto &F : Futures)
    R.push_back(F.get());
  ASSERT_EQ(R.size(), 3u);
  // Queue time = formation - arrival, non-negative for every request.
  EXPECT_EQ(R[0].QueueNs, 2 * nsPerMs);
  EXPECT_EQ(R[1].QueueNs, 1 * nsPerMs);
  EXPECT_EQ(R[2].QueueNs, 0);
  // Total = done - arrival under the frozen clock.
  EXPECT_EQ(R[0].TotalNs, 4 * nsPerMs);
  EXPECT_EQ(R[1].TotalNs, 3 * nsPerMs);
  EXPECT_EQ(R[2].TotalNs, 2 * nsPerMs);
  // Exactly one miss: flagged on the late response, counted once, and a
  // zero deadline never misses.
  EXPECT_TRUE(R[0].MissedDeadline);
  EXPECT_FALSE(R[1].MissedDeadline);
  EXPECT_FALSE(R[2].MissedDeadline);
  EXPECT_EQ(Misses.load(), 1u);
  // Every response of the mixed batch reports the whole batch's size.
  for (const ServeResponse &Resp : R) {
    EXPECT_TRUE(Resp.ok());
    EXPECT_EQ(Resp.BatchSize, 3u);
  }
}

TEST(ExecuteBatch, RetentionCapReleasesOversizedSlotPool) {
  LadderHarness H;
  std::shared_ptr<const CompiledNet> CN = H.Eng->compile(tinyChain(16));
  ASSERT_NE(CN, nullptr);
  Tensor3D Input = inputFor(CN->graph(), 5);
  VirtualClock Clk;
  std::vector<std::unique_ptr<ExecutionContext>> Slots;
  ExecutionContextOptions CtxOpts;
  ThreadPool Pool(2);
  std::atomic<uint64_t> Misses{0};

  // A 5-request burst grows the pool to 5; the cap of 2 must shed the
  // excess after the batch drains.
  std::vector<std::future<ServeResponse>> Futures;
  Batch B = makeBatch(Input, 0, {{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
                      Futures);
  executeBatch(CN, B, Slots, CtxOpts, Pool, Clk, Misses,
               /*MaxRetainedSlots=*/2);
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());
  EXPECT_EQ(Slots.size(), 2u);

  // The retained contexts stay warm and serve the next batch; an
  // uncapped call retains everything it grew.
  std::vector<std::future<ServeResponse>> Futures2;
  Batch B2 = makeBatch(Input, 0, {{0, 0}, {0, 0}, {0, 0}}, Futures2);
  executeBatch(CN, B2, Slots, CtxOpts, Pool, Clk, Misses,
               /*MaxRetainedSlots=*/0);
  for (auto &F : Futures2)
    EXPECT_TRUE(F.get().ok());
  EXPECT_EQ(Slots.size(), 3u);
}

TEST(ExecuteBatchLadder, GathersOneBatchedRunAndScattersPerImageOutputs) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4}, false);
  ASSERT_NE(L, nullptr);
  std::shared_ptr<const CompiledNet> Anchor = L->bucket(1);

  std::vector<Tensor3D> Inputs;
  std::vector<Tensor3D> Reference;
  Executor Seq(Anchor->graph(), Anchor->plan(), H.Lib);
  for (uint64_t I = 0; I < 3; ++I) {
    Inputs.push_back(inputFor(Anchor->graph(), 41 + I));
    Seq.run(Inputs.back());
    Reference.push_back(cloneTensor(Seq.networkOutput()));
  }

  VirtualClock Clk;
  Clk.advanceTo(5 * nsPerMs);
  Batch B;
  B.FormedNs = 3 * nsPerMs;
  std::vector<std::future<ServeResponse>> Futures;
  for (uint64_t I = 0; I < 3; ++I) {
    BatchRequest Rq;
    Rq.Id = I + 1;
    Rq.Input = &Inputs[I];
    Rq.ArrivalNs = static_cast<TimeNs>(I + 1) * nsPerMs;
    Futures.push_back(Rq.Done.get_future());
    B.Requests.push_back(std::move(Rq));
  }

  std::map<int64_t, std::unique_ptr<ExecutionContext>> Contexts;
  ExecutionContextOptions CtxOpts;
  std::atomic<uint64_t> Misses{0};
  ASSERT_TRUE(executeBatchLadder(*L, B, Contexts, CtxOpts, Clk, Misses));
  // K=3 lands on bucket 4 (smallest resident >= K) as a partial batch.
  EXPECT_EQ(Contexts.size(), 1u);
  EXPECT_EQ(Contexts.begin()->first, 4);

  for (uint64_t I = 0; I < 3; ++I) {
    ServeResponse R = Futures[I].get();
    EXPECT_TRUE(R.ok());
    EXPECT_EQ(R.BatchSize, 3u);
    EXPECT_EQ(R.QueueNs, static_cast<TimeNs>(2 - I) * nsPerMs);
    // Scatter order: each request gets ITS image's output, bit-identical
    // to the sequential Executor on the same input.
    EXPECT_EQ(maxAbsDifference(R.Output, Reference[I]), 0.0f) << "image " << I;
  }
  EXPECT_EQ(Misses.load(), 0u);
}

TEST(ExecuteBatchLadder, MissLeavesBatchUntouchedForFallback) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2}, true);
  ASSERT_NE(L, nullptr);

  Tensor3D Input = inputFor(L->bucket(1)->graph(), 5);
  VirtualClock Clk;
  Batch B;
  std::vector<std::future<ServeResponse>> Futures;
  for (uint64_t I = 0; I < 2; ++I) {
    BatchRequest Rq;
    Rq.Id = I + 1;
    Rq.Input = &Input;
    Futures.push_back(Rq.Done.get_future());
    B.Requests.push_back(std::move(Rq));
  }

  std::map<int64_t, std::unique_ptr<ExecutionContext>> Contexts;
  ExecutionContextOptions CtxOpts;
  std::atomic<uint64_t> Misses{0};
  // Bucket 2 is not resident yet: the dispatch declines, leaving every
  // request pending so the caller can run the per-slot fallback.
  EXPECT_FALSE(executeBatchLadder(*L, B, Contexts, CtxOpts, Clk, Misses));
  EXPECT_EQ(B.Requests.size(), 2u);
  EXPECT_TRUE(Contexts.empty());

  std::vector<std::unique_ptr<ExecutionContext>> Slots;
  ThreadPool Pool(1);
  std::shared_ptr<const CompiledNet> Anchor = L->bucket(1);
  executeBatch(Anchor, B, Slots, CtxOpts, Pool, Clk, Misses);
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());

  // The miss queued the bucket; once compiled, the same batch shape is
  // served batched.
  L->waitForCompiles();
  EXPECT_NE(L->bucket(2), nullptr);
}

TEST(ExecuteBatchLadder, EvictedBucketContextIsReleased) {
  LadderHarness H;
  std::shared_ptr<CompiledNetLadder> L = H.ladder({1, 2, 4}, false);
  ASSERT_NE(L, nullptr);
  Tensor3D Input = inputFor(L->bucket(1)->graph(), 5);
  VirtualClock Clk;
  std::map<int64_t, std::unique_ptr<ExecutionContext>> Contexts;
  ExecutionContextOptions CtxOpts;
  std::atomic<uint64_t> Misses{0};

  // K=3 lands on bucket 4 and caches a context bound to its artifact.
  std::vector<std::future<ServeResponse>> Futures;
  Batch B = makeBatch(Input, 0, {{0, 0}, {0, 0}, {0, 0}}, Futures);
  ASSERT_TRUE(executeBatchLadder(*L, B, Contexts, CtxOpts, Clk, Misses));
  ASSERT_EQ(Contexts.count(4), 1u);
  std::weak_ptr<const CompiledNet> Bucket4 = L->bucket(4);
  ASSERT_FALSE(Bucket4.expired());

  // Once the ladder drops the rung, the next batch through the same
  // worker's map -- even one served by another bucket -- must release the
  // stale context, and with it the last reference to the artifact.
  ASSERT_TRUE(L->evictBucket(4));
  std::vector<std::future<ServeResponse>> Futures1;
  Batch B1 = makeBatch(Input, 0, {{0, 0}}, Futures1);
  ASSERT_TRUE(executeBatchLadder(*L, B1, Contexts, CtxOpts, Clk, Misses));
  EXPECT_TRUE(Bucket4.expired());
  EXPECT_EQ(Contexts.count(4), 0u);
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());
  EXPECT_TRUE(Futures1.front().get().ok());
}
