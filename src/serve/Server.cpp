//===- serve/Server.cpp ---------------------------------------------------===//

#include "serve/Server.h"

#include "support/ThreadPool.h"

#include <cassert>
#include <cstring>

using namespace primsel;
using namespace primsel::serve;

void primsel::serve::respond(BatchRequest &Rq, const Batch &B, TimeNs DoneNs,
                             ServeStatus Status, const Tensor3D *Output,
                             std::atomic<uint64_t> *DeadlineMisses) {
  ServeResponse Resp;
  Resp.Status = Status;
  Resp.QueueNs = B.FormedNs - Rq.ArrivalNs;
  Resp.TotalNs = DoneNs - Rq.ArrivalNs;
  if (Status == ServeStatus::Ok) {
    // Contexts are reused across batches, so the response owns a copy.
    assert(Output && "an Ok response carries an output");
    Resp.Output = Tensor3D(Output->channels(), Output->height(),
                           Output->width(), Output->layout());
    std::memcpy(Resp.Output.data(), Output->data(),
                static_cast<size_t>(Output->size()) * sizeof(float));
    Resp.BatchSize = static_cast<unsigned>(B.size());
    Resp.MissedDeadline = Rq.DeadlineNs != 0 && DoneNs > Rq.DeadlineNs;
    if (Resp.MissedDeadline && DeadlineMisses)
      DeadlineMisses->fetch_add(1, std::memory_order_relaxed);
  }
  Rq.Done.set_value(std::move(Resp));
}

void primsel::serve::executeBatch(
    const std::shared_ptr<const CompiledNet> &Net, Batch &B,
    std::vector<std::unique_ptr<ExecutionContext>> &Slots,
    const ExecutionContextOptions &CtxOpts, ThreadPool &SlotPool, Clock &Clk,
    std::atomic<uint64_t> &DeadlineMisses, size_t MaxRetainedSlots) {
  size_t K = B.Requests.size();
  while (Slots.size() < K)
    Slots.push_back(Net->newContext(CtxOpts));

  SlotPool.parallelFor(0, static_cast<int64_t>(K), [&](int64_t I) {
    ExecutionContext &Slot = *Slots[static_cast<size_t>(I)];
    BatchRequest &Rq = B.Requests[static_cast<size_t>(I)];
    Slot.run(*Rq.Input);
    respond(Rq, B, Clk.now(), ServeStatus::Ok, &Slot.networkOutput(),
            &DeadlineMisses);
  });

  // Release slot contexts (and their arena slabs) an oversized batch grew
  // past the retention cap; the steady-state set stays warm.
  if (MaxRetainedSlots != 0 && Slots.size() > MaxRetainedSlots)
    Slots.resize(MaxRetainedSlots);
}

bool primsel::serve::executeBatchLadder(
    CompiledNetLadder &Ladder, Batch &B,
    std::map<int64_t, std::unique_ptr<ExecutionContext>> &Contexts,
    const ExecutionContextOptions &CtxOpts, Clock &Clk,
    std::atomic<uint64_t> &DeadlineMisses) {
  // Drop contexts of evicted or recompiled rungs: an idle bucket's context
  // must not pin the kernels and arena slabs the ladder already released.
  for (auto It = Contexts.begin(); It != Contexts.end();) {
    if (Ladder.bucket(It->first).get() == &It->second->compiled())
      ++It;
    else
      It = Contexts.erase(It);
  }

  size_t K = B.Requests.size();
  CompiledNetLadder::Rung Rung = Ladder.acquire(static_cast<int64_t>(K));
  if (!Rung.Artifact)
    return false;

  // One cached context per bucket per worker, revalidated by artifact
  // identity (the rung may have been recompiled since the sweep above).
  std::unique_ptr<ExecutionContext> &Ctx = Contexts[Rung.Bucket];
  if (!Ctx || &Ctx->compiled() != Rung.Artifact.get())
    Ctx = std::make_unique<ExecutionContext>(Rung.Artifact, CtxOpts);

  // Gather -> ONE pass over the bucket's own §8 plan (@bser/@bpar and
  // thread count per layer) -> scatter per-image outputs.
  std::vector<const Tensor3D *> Inputs;
  Inputs.reserve(K);
  for (BatchRequest &Rq : B.Requests)
    Inputs.push_back(Rq.Input);
  Ctx->run(Inputs);

  TimeNs DoneNs = Clk.now();
  for (size_t I = 0; I < K; ++I)
    respond(B.Requests[I], B, DoneNs, ServeStatus::Ok, &Ctx->output(I),
            &DeadlineMisses);
  return true;
}

Server::Server(std::shared_ptr<const CompiledNet> Compiled,
               const ServerOptions &Options, Clock &Clk)
    : Net(std::move(Compiled)), Opts(Options), Queue(Options.Batch, Clk) {
  unsigned Workers = std::max(1u, Opts.Workers);
  Threads.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([this] { workerLoop(); });
}

Server::~Server() { shutdown(); }

SubmitTicket Server::submit(const Tensor3D &Input, TimeNs DeadlineNs) {
  return Queue.submit(Input, DeadlineNs);
}

void Server::shutdown() {
  std::lock_guard<std::mutex> G(ShutdownMutex);
  if (Stopped)
    return;
  Queue.close();
  for (std::thread &T : Threads)
    T.join();
  Threads.clear();
  Stopped = true;
}

ServerStats Server::stats() const {
  ServerStats S;
  S.RequestsExecuted = RequestsExecuted.load(std::memory_order_relaxed);
  S.BatchesExecuted = BatchesExecuted.load(std::memory_order_relaxed);
  S.DeadlineMisses = DeadlineMisses.load(std::memory_order_relaxed);
  S.BatchedBatches = BatchedBatches.load(std::memory_order_relaxed);
  S.FallbackBatches = FallbackBatches.load(std::memory_order_relaxed);
  return S;
}

void Server::workerLoop() {
  // Per-worker state: one context per batch slot (created on demand, so a
  // server that only ever sees partial batches never pays for the full
  // set) and a pool to run the slots of one batch concurrently. Slot
  // contexts are single-threaded -- parallelism comes from slots, the §8
  // image-parallel schedule -- and never shared across workers.
  ExecutionContextOptions CtxOpts;
  CtxOpts.Threads = 1;
  CtxOpts.UseArena = Opts.UseArena;

  unsigned MaxSlots = std::max(1u, Opts.Batch.MaxBatch);
  unsigned PoolWidth = Opts.BatchThreads == 0
                           ? MaxSlots
                           : std::min(Opts.BatchThreads, MaxSlots);
  std::vector<std::unique_ptr<ExecutionContext>> Slots;
  ThreadPool SlotPool(PoolWidth);
  Clock &Clk = Queue.clock();

  // Ladder mode: one context per resident bucket, each given the full
  // pool width -- the bucket's plan decides per layer whether the pool
  // works inside a primitive (@bser) or across images (@bpar).
  std::map<int64_t, std::unique_ptr<ExecutionContext>> BucketContexts;
  ExecutionContextOptions LadderOpts;
  LadderOpts.Threads = PoolWidth;
  LadderOpts.UseArena = Opts.UseArena;

  Batch B;
  while (Queue.waitPop(B)) {
    size_t K = B.Requests.size();
    if (Opts.Ladder && executeBatchLadder(*Opts.Ladder, B, BucketContexts,
                                          LadderOpts, Clk, DeadlineMisses)) {
      BatchedBatches.fetch_add(1, std::memory_order_relaxed);
    } else {
      executeBatch(Net, B, Slots, CtxOpts, SlotPool, Clk, DeadlineMisses,
                   MaxSlots);
      FallbackBatches.fetch_add(1, std::memory_order_relaxed);
    }
    RequestsExecuted.fetch_add(K, std::memory_order_relaxed);
    BatchesExecuted.fetch_add(1, std::memory_order_relaxed);
    B.Requests.clear();
  }
}
