//===- serve/Server.cpp ---------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Fleet.h"
#include "support/ThreadPool.h"

#include <cassert>

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
    Resp.Output = Output->clone();
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
  size_t K = B.Requests.size();
  CompiledNetLadder::Rung Rung = Ladder.acquire(static_cast<int64_t>(K));
  if (!Rung.Artifact)
    return false;

  // One cached context per bucket per worker, revalidated by artifact
  // identity, so a map reused across ladders never runs a context bound to
  // another ladder's rung.
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

namespace {

/// The shape of \p Net's input node.
TensorShape inputShapeOf(const NetworkGraph &Net) {
  for (const NetworkGraph::Node &N : Net.nodes())
    if (N.L.Kind == LayerKind::Input)
      return N.OutShape;
  assert(false && "network without an input");
  return {};
}

} // namespace

Server::Server(std::shared_ptr<const CompiledNet> Compiled,
               const ServerOptions &Options, Clock &Clk)
    : Net(std::move(Compiled)), InputShape(inputShapeOf(Net->graph())),
      Opts(Options), Queue(Options.Batch, Clk) {
  startWorkers();
}

Server::Server(ModelRegistry &Registry, std::string Name,
               const ServerOptions &Options, Clock &Clk)
    : Reg(&Registry), Model(std::move(Name)),
      InputShape(inputShapeOf(*Registry.graphOf(Model))), Opts(Options),
      Queue(Options.Batch, Clk) {
  assert(!Opts.Ladder && "a registry lane reads its ladder from the registry");
  startWorkers();
}

void Server::startWorkers() {
  unsigned Workers = std::max(1u, Opts.Workers);
  Threads.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([this] { workerLoop(); });
}

Server::~Server() { shutdown(); }

SubmitTicket Server::submit(const Tensor3D &Input, TimeNs DeadlineNs) {
  // A wrong-shape input would trip the interpreter's assertions on a
  // worker thread; refuse it here instead.
  if (Input.layout() != Layout::CHW ||
      !(TensorShape{Input.channels(), Input.height(), Input.width()} ==
        InputShape)) {
    InvalidInputs.fetch_add(1, std::memory_order_relaxed);
    return rejectedTicket(ServeStatus::RejectedInvalidInput);
  }
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
  S.UnavailableBatches = UnavailableBatches.load(std::memory_order_relaxed);
  S.UnavailableRequests = UnavailableRequests.load(std::memory_order_relaxed);
  S.InvalidInputs = InvalidInputs.load(std::memory_order_relaxed);
  return S;
}

void Server::workerLoop() {
  // Per-worker state: one context per batch slot (created on demand, so a
  // server that only ever sees partial batches never pays for the full
  // set) and a pool to run the slots of one batch concurrently. Contexts
  // are never shared across workers.
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
  ExecutionContextOptions LadderOpts = Opts.Context;
  LadderOpts.Threads = PoolWidth;

  // The artifact the contexts above are bound to. A registry lane
  // re-reads it per batch; the contexts bind its prepared kernels, so
  // they are dropped when it changes.
  std::shared_ptr<const CompiledNet> Snap = Net;
  std::shared_ptr<CompiledNetLadder> Ladder = Opts.Ladder;

  Batch B;
  while (Queue.waitPop(B)) {
    size_t K = B.Requests.size();
    if (Reg) {
      std::shared_ptr<const CompiledNet> CN = Reg->acquire(Model);
      if (!CN) {
        // Evicted past the budget (or registry failure): fail the batch
        // cleanly rather than stall the lane.
        TimeNs NowNs = Clk.now();
        for (BatchRequest &Rq : B.Requests)
          respond(Rq, B, NowNs, ServeStatus::RejectedModelUnavailable);
        UnavailableBatches.fetch_add(1, std::memory_order_relaxed);
        UnavailableRequests.fetch_add(K, std::memory_order_relaxed);
        B.Requests.clear();
        continue;
      }
      if (CN != Snap) {
        Slots.clear();
        BucketContexts.clear();
        Snap = std::move(CN);
      }
      Ladder = Reg->ladderOf(Model);
    }

    if (Ladder && executeBatchLadder(*Ladder, B, BucketContexts, LadderOpts,
                                     Clk, DeadlineMisses)) {
      BatchedBatches.fetch_add(1, std::memory_order_relaxed);
    } else {
      executeBatch(Snap, B, Slots, Opts.Context, SlotPool, Clk,
                   DeadlineMisses, MaxSlots);
      FallbackBatches.fetch_add(1, std::memory_order_relaxed);
    }
    RequestsExecuted.fetch_add(K, std::memory_order_relaxed);
    BatchesExecuted.fetch_add(1, std::memory_order_relaxed);
    B.Requests.clear();
  }
}
