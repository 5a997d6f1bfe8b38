//===- serve/Server.h - Dynamic-batching inference server -------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched serving front end: a Batcher (serve/Batcher.h) coalesces
/// independently-arriving requests into minibatches, and a pool of worker
/// threads drains them. Server::workerLoop is the only code that drains a
/// batcher: single-model serving (every `primsel-cli serve` variant, under
/// the closed- or open-loop generator of serve/OpenLoop.h) and every fleet
/// lane (serve/Fleet.h) run through it. A Server serves either one fixed
/// CompiledNet (plus an optional ladder) or one model of a ModelRegistry,
/// whose artifact it re-reads per batch.
///
/// Each popped batch takes one of two dispatch paths over the same
/// ExecutionContext type:
///
///  - per-slot (executeBatch): one context per batch slot, the popped
///    batch's images run concurrently on the worker's slot pool -- the
///    image-parallel minibatch schedule (paper §8) applied at
///    whole-network granularity;
///  - ladder (executeBatchLadder, when the artifact has a ladder): one
///    context per resident batch bucket runs the whole batch in a single
///    pass through the bucket's own §8 minibatch plan.
///
/// Both run the shared PreparedKernels through the one interpreter, so
/// responses are bit-identical to the sequential Executor by construction,
/// independent of batch size, worker count, slot-context options, dispatch
/// path or arrival interleaving.
///
/// Shutdown drains: shutdown() closes admission, lets the workers pop and
/// complete every already-admitted request (a closed batcher fires
/// partial batches immediately), then joins them. The destructor calls
/// shutdown(), so no request future is ever abandoned.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SERVE_SERVER_H
#define PRIMSEL_SERVE_SERVER_H

#include "engine/CompiledNet.h"
#include "engine/Ladder.h"
#include "serve/Batcher.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace primsel {

class ThreadPool;

namespace serve {

class ModelRegistry;

/// Resolve \p Rq, a request of batch \p B, as finished at \p DoneNs with
/// \p Status (queue and total time measured from its arrival). An Ok
/// response carries a copy of \p Output and the batch size, and a late
/// completion is flagged and counted in \p DeadlineMisses; other statuses
/// carry neither. Every serving path completes its requests through this
/// function.
void respond(BatchRequest &Rq, const Batch &B, TimeNs DoneNs,
             ServeStatus Status, const Tensor3D *Output = nullptr,
             std::atomic<uint64_t> *DeadlineMisses = nullptr);

/// Run every request of \p B on \p Net and resolve its promise with an Ok
/// response -- the Server's per-slot execution path. Grows \p Slots (one
/// context per batch slot, created with \p CtxOpts) on demand and runs the
/// slots concurrently on \p SlotPool; callers reuse both across batches.
/// \p MaxRetainedSlots caps the contexts kept alive after the batch
/// drains: an oversized burst (a closed batcher flushing, a test feeding a
/// hand-built batch) may grow the pool past the steady-state batch bound,
/// and without the cap every worker would pin that high-water mark of
/// arenas forever. 0 = retain everything. Ok-but-late completions bump
/// \p DeadlineMisses.
void executeBatch(const std::shared_ptr<const CompiledNet> &Net, Batch &B,
                  std::vector<std::unique_ptr<ExecutionContext>> &Slots,
                  const ExecutionContextOptions &CtxOpts, ThreadPool &SlotPool,
                  Clock &Clk, std::atomic<uint64_t> &DeadlineMisses,
                  size_t MaxRetainedSlots = 0);

/// Ladder dispatch (engine/Ladder.h): run every request of \p B through
/// ONE pass of the context on the smallest resident bucket >= K,
/// scattering the per-image outputs to each request's promise. Returns
/// false -- leaving \p B untouched -- when no resident bucket can hold K;
/// the caller falls back to the per-slot executeBatch for this batch while
/// the ladder's background thread compiles the missing bucket (the request
/// path never waits on a compile). \p Contexts caches one context per
/// bucket per worker, rebound when its bucket's artifact is not the one
/// the context was built on. A published rung is never replaced, so no
/// cached context goes stale while its ladder lives.
bool executeBatchLadder(
    CompiledNetLadder &Ladder, Batch &B,
    std::map<int64_t, std::unique_ptr<ExecutionContext>> &Contexts,
    const ExecutionContextOptions &CtxOpts, Clock &Clk,
    std::atomic<uint64_t> &DeadlineMisses);

/// Server configuration.
struct ServerOptions {
  /// Batching policy (max batch size, batching window, admission bound).
  BatcherOptions Batch;
  /// Worker threads draining the batcher. Each owns its own contexts, so
  /// workers never share mutable state.
  unsigned Workers = 1;
  /// Pool width for running one batch's images concurrently inside a
  /// worker; 0 = Batch.MaxBatch (every slot of a full batch runs in
  /// parallel). 1 serializes the slots -- useful to bound a worker's
  /// footprint on small machines.
  unsigned BatchThreads = 0;
  /// Options of every per-slot context. The default is single-threaded,
  /// arena-backed and sequential: parallelism then comes from the slots
  /// (the §8 image-parallel schedule). A wider pool lets a plan's per-node
  /// thread counts run, and ParallelBranches runs independent steps of a
  /// level concurrently. Ladder bucket contexts take UseArena and
  /// ParallelBranches from here; their Threads is the worker's pool width.
  ExecutionContextOptions Context{/*Threads=*/1, /*UseArena=*/true,
                                  /*ParallelBranches=*/false};
  /// Batch-bucketed plan ladder (engine/Ladder.h). When set, workers serve
  /// each popped batch as one pass of a context on the smallest
  /// resident bucket >= K -- the real §8 minibatch plans -- falling back
  /// to the per-slot path only while a bucket is still compiling in the
  /// background. Null = the historical per-slot path. A registry lane
  /// reads its ladder from the registry instead.
  std::shared_ptr<CompiledNetLadder> Ladder;
};

/// Per-server execution counters (the queue-side counters live in
/// BatcherStats).
struct ServerStats {
  uint64_t RequestsExecuted = 0;
  uint64_t BatchesExecuted = 0;
  /// Requests that completed Ok but after their deadline.
  uint64_t DeadlineMisses = 0;
  /// Batches served through a ladder bucket's context.
  uint64_t BatchedBatches = 0;
  /// Batches that fell back to the per-slot path (no ladder, or the
  /// bucket was still compiling). After ladder warmup this stops growing.
  uint64_t FallbackBatches = 0;
  /// Registry lanes only: batches whose model could not be acquired, and
  /// their requests, all resolved RejectedModelUnavailable unexecuted.
  uint64_t UnavailableBatches = 0;
  uint64_t UnavailableRequests = 0;
  /// Submits refused with RejectedInvalidInput (never queued).
  uint64_t InvalidInputs = 0;
};

/// A running batched-inference server.
class Server {
public:
  /// Serve one fixed artifact (and Options.Ladder, when set). Workers
  /// start immediately. \p Clk defaults to the process steady clock;
  /// tests pass a VirtualClock to drive the batching policy
  /// deterministically.
  Server(std::shared_ptr<const CompiledNet> Compiled,
         const ServerOptions &Options, Clock &Clk = steadyClock());
  /// Serve model \p Model of \p Reg (a fleet lane): every batch runs on
  /// the artifact and ladder the registry holds at pop time (acquire(),
  /// ladderOf()), so eviction and hot-swap take effect at the next batch
  /// boundary. A batch whose model cannot be acquired resolves
  /// RejectedModelUnavailable. Options.Ladder must be null. \p Reg must
  /// outlive the server.
  Server(ModelRegistry &Reg, std::string Model, const ServerOptions &Options,
         Clock &Clk = steadyClock());
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Submit one inference. Never blocks (admission control rejects when
  /// the queue is full). \p Input is borrowed until the future resolves;
  /// it must be CHW with the network's input shape, or the ticket resolves
  /// at once with RejectedInvalidInput. \p DeadlineNs is an absolute Clock
  /// timestamp (0 = none).
  SubmitTicket submit(const Tensor3D &Input, TimeNs DeadlineNs = 0);

  /// Cancel a queued request by ticket id.
  bool cancel(uint64_t Id) { return Queue.cancel(Id); }

  /// Stop admission, drain every admitted request, join the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  const ServerOptions &options() const { return Opts; }
  Clock &clock() const { return Queue.clock(); }
  size_t queueDepth() const { return Queue.queueDepth(); }
  BatcherStats batcherStats() const { return Queue.stats(); }
  ServerStats stats() const;

private:
  void startWorkers();
  void workerLoop();

  /// The fixed artifact; null for a registry lane.
  std::shared_ptr<const CompiledNet> Net;
  /// A registry lane's source; null for a fixed-artifact server.
  ModelRegistry *Reg = nullptr;
  std::string Model;
  /// The network's input shape; submit() refuses any other.
  TensorShape InputShape;
  ServerOptions Opts;
  Batcher Queue;

  std::atomic<uint64_t> RequestsExecuted{0};
  std::atomic<uint64_t> BatchesExecuted{0};
  std::atomic<uint64_t> DeadlineMisses{0};
  std::atomic<uint64_t> BatchedBatches{0};
  std::atomic<uint64_t> FallbackBatches{0};
  std::atomic<uint64_t> UnavailableBatches{0};
  std::atomic<uint64_t> UnavailableRequests{0};
  std::atomic<uint64_t> InvalidInputs{0};

  bool Stopped = false;
  std::mutex ShutdownMutex;
  std::vector<std::thread> Threads;
};

} // namespace serve
} // namespace primsel

#endif // PRIMSEL_SERVE_SERVER_H
