//===- engine/Ladder.h - Batch-bucketed compiled-plan ladder ----*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch size as a first-class costed serving dimension. A
/// CompiledNetLadder holds one CompiledNet artifact per batch bucket of a
/// configured ladder ({1, 2, 4, ..., MaxBatch} by default). Bucket 1 is
/// the anchor, the model's PBQP-solved batch-1 plan; every other bucket is
/// derived from it (Engine::compileBucket): the anchor's layouts, chains
/// and routines, with each conv node's §8 minibatch schedule (@bser vs
/// @bpar) and thread count chosen by the PBQP node cost at that batch
/// size. A bucket binds the anchor's prepared kernels, so a rung costs only
/// its plan and arena template.
///
/// Dispatch rule (serve/Server.h): a coalesced batch of K requests runs on
/// the smallest *resident* bucket >= K as one K-image pass of an
/// ExecutionContext bound to that bucket's artifact. When no resident
/// bucket can hold K, the server falls back to the per-slot batch-1 path
/// for that batch -- never blocking the request path on a compile.
/// Whenever the ideal bucket is missing, the ladder's background thread
/// derives it; the rung is picked up at the next batch boundary. A
/// published rung is never replaced or dropped: rungs live and die with
/// the ladder.
///
/// Every bucket's per-image outputs are bit-identical to the sequential
/// Executor: each conv node runs the anchor plan's routine on the anchor's
/// own PreparedKernel, image by image, whichever schedule wraps it.
///
/// Build ladders through Engine::compileLadder; the engine must outlive
/// the ladder (the ladder's compiles call back into it, serialized).
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_ENGINE_LADDER_H
#define PRIMSEL_ENGINE_LADDER_H

#include "engine/CompiledNet.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>

namespace primsel {

/// Ladder compile configuration (Engine::compileLadder).
struct LadderOptions {
  /// Batch buckets to plan for. Normalized: clamped to >= 1, sorted,
  /// deduplicated, bucket 1 always included (it is the anchor artifact).
  /// Empty = {1, 2, 4, ..., MaxBatch} powers of two.
  std::vector<int64_t> Buckets;
  /// Largest bucket when Buckets is empty.
  int64_t MaxBatch = 8;
  /// With Background, missing buckets compile on a ladder-owned thread,
  /// off the request path (bucket 1 is always compiled synchronously so
  /// serving can start immediately). Without it, every bucket compiles
  /// synchronously inside compileLadder -- the fleet uses this so budget
  /// accounting sees the whole ladder at once.
  bool Background = true;
};

/// Monotonic ladder counters; stats() returns a consistent snapshot.
struct LadderStats {
  uint64_t Hits = 0;   ///< acquire() served by a resident bucket >= K
  uint64_t Misses = 0; ///< no resident bucket >= K (caller falls back)
  uint64_t BackgroundCompiles = 0; ///< rungs published by the ladder thread
  uint64_t SyncCompiles = 0;       ///< rungs published synchronously
  uint64_t CompileFailures = 0;    ///< bucket compiles that returned null
  unsigned ResidentBuckets = 0;    ///< rungs currently published
};

/// The bucket ladder over one model. Thread-safe: serving threads
/// acquire() while the background thread publishes rungs.
class CompiledNetLadder {
public:
  /// Compiles bucket \p B's artifact (null on failure). Serialized by the
  /// ladder -- at most one compile runs at a time, so an Engine-backed
  /// compiler needs no locking of its own as long as nothing else uses
  /// the engine concurrently.
  using BucketCompiler =
      std::function<std::shared_ptr<const CompiledNet>(int64_t)>;

  /// A resident bucket artifact.
  struct Rung {
    int64_t Bucket = 0;
    std::shared_ptr<const CompiledNet> Artifact; ///< null = no rung
  };

  /// Built by Engine::compileLadder. \p Bucket1 must be non-null (the
  /// anchor artifact; serving is always possible). Without \p Background,
  /// every remaining bucket is compiled in the constructor.
  CompiledNetLadder(std::vector<int64_t> Buckets,
                    std::shared_ptr<const CompiledNet> Bucket1,
                    BucketCompiler Compiler, bool Background);
  ~CompiledNetLadder();

  CompiledNetLadder(const CompiledNetLadder &) = delete;
  CompiledNetLadder &operator=(const CompiledNetLadder &) = delete;

  /// Serving dispatch: the smallest resident bucket >= \p K. On a miss
  /// (no resident bucket can hold K) the returned Artifact is null and the
  /// caller falls back to its per-slot path. In background mode, the ideal
  /// bucket (the smallest configured one >= K) is queued for compilation
  /// off the request path whenever it is not the bucket returned: on a
  /// miss, and on a hit on a larger bucket. Never compiles, never blocks
  /// on a compile.
  Rung acquire(int64_t K);

  /// The exact bucket \p B's artifact (null when not resident).
  std::shared_ptr<const CompiledNet> bucket(int64_t B) const;

  /// Compile bucket \p B synchronously on the calling thread (no-op when
  /// already resident). True when the rung is resident on return.
  bool compileBucketSync(int64_t B);

  /// Block until the background queue is drained and no compile is in
  /// flight (bench warmup / clean shutdown).
  void waitForCompiles();

  /// The configured ladder, ascending.
  const std::vector<int64_t> &buckets() const { return Buckets; }
  int64_t maxBucket() const { return Buckets.back(); }
  /// Resident rungs, ascending by bucket.
  std::vector<Rung> residentRungs() const;

  LadderStats stats() const;

private:
  /// The smallest configured bucket >= K (0 when K > maxBucket()).
  int64_t idealBucket(int64_t K) const;
  void publish(int64_t B, std::shared_ptr<const CompiledNet> CN,
               bool FromBackground);
  void backgroundLoop();

  std::vector<int64_t> Buckets;
  BucketCompiler Compiler;
  bool Background = false;

  mutable std::mutex Mutex;
  std::map<int64_t, std::shared_ptr<const CompiledNet>> Rungs;
  LadderStats Counters;

  /// Pending bucket requests plus everything ever queued (failed compiles
  /// are not retried -- a broken bucket must not hot-loop the compiler).
  std::deque<int64_t> Queue;
  std::set<int64_t> Requested;
  bool CompileInFlight = false;
  bool Stop = false;
  std::condition_variable WorkCv;
  std::condition_variable IdleCv;
  /// Serializes compiles across the background thread and
  /// compileBucketSync callers (the compiler callback is not reentrant).
  std::mutex CompileMutex;
  std::thread Worker;
};

} // namespace primsel

#endif // PRIMSEL_ENGINE_LADDER_H
