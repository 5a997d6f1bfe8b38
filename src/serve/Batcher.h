//===- serve/Batcher.h - Dynamic request batching policy --------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-batching front end of the serving stack: independent
/// requests arrive one at a time (open-loop traffic), and the batcher
/// coalesces them into minibatches so the workers drain the queue in
/// chunks. Policy (SLO-aware):
///
///  - a batch fires *early* the moment MaxBatch requests are pending
///    (never waits for the window once full);
///  - a partial batch fires when the oldest pending request has queued
///    for MaxDelayNs (bounded added latency -- the batching window);
///  - admission control: at most MaxQueue requests may be pending;
///    further submits are rejected immediately with RejectedQueueFull
///    (backpressure instead of unbounded queue growth);
///  - per-request deadline accounting: a request whose deadline has
///    already passed is rejected at submit; one that expires while queued
///    is rejected at batch-formation time, *before* any execution work is
///    spent on it;
///  - close() stops admission; already-admitted requests keep draining
///    (closed partial batches fire immediately), so shutdown completes
///    every admitted request.
///
/// The batcher owns no threads and performs no inference: workers call
/// waitPop()/tryPop() and complete the popped requests themselves
/// (serve/Server.h). Every decision is a function of the queue contents
/// and Clock::now(), so with a VirtualClock the whole policy is unit-
/// testable deterministically -- tryPop() never blocks, and waitPop()
/// blocks only until a submit/close notification or a clock advance.
///
/// Completion contract: every submitted request's future is satisfied
/// exactly once -- rejected at submit, rejected/cancelled while queued,
/// handed to a worker in a popped batch (the worker must complete it), or
/// rejected with RejectedShutdown by the destructor if no worker drained
/// it. Nothing is lost and nothing completes twice.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SERVE_BATCHER_H
#define PRIMSEL_SERVE_BATCHER_H

#include "serve/Clock.h"
#include "tensor/Tensor.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

namespace primsel {
namespace serve {

/// Terminal outcome of one request. Every future resolves with exactly one
/// of these; Ok is the only outcome carrying an output tensor.
enum class ServeStatus : uint8_t {
  Ok,                ///< executed; Output holds the inference result
  RejectedQueueFull, ///< admission control: queue at MaxQueue
  RejectedDeadline,  ///< deadline passed before execution started
  RejectedShutdown,  ///< submitted after close() (or left undrained)
  Cancelled,         ///< cancel(Id) removed it while queued
  RejectedModelUnavailable, ///< fleet routing: no such model, or its
                            ///< artifact cannot fit the memory budget
  RejectedInvalidInput,     ///< the input is not a CHW tensor of the
                            ///< network's input shape
};

const char *serveStatusName(ServeStatus S);

/// What a request's future resolves to.
struct ServeResponse {
  ServeStatus Status = ServeStatus::RejectedShutdown;
  /// The inference output (valid when Status == Ok).
  Tensor3D Output;
  /// Admission -> batch formation (time spent queued).
  TimeNs QueueNs = 0;
  /// Admission -> completion.
  TimeNs TotalNs = 0;
  /// Size of the batch this request executed in (0 unless Ok).
  unsigned BatchSize = 0;
  /// Ok, but completion happened after the request's deadline (the SLO
  /// was missed even though execution had already been committed).
  bool MissedDeadline = false;

  bool ok() const { return Status == ServeStatus::Ok; }

  /// Latencies in milliseconds -- the one conversion every report (CLI
  /// summaries, BENCH_*.json) must share, pinned by tests against
  /// support/Stats fixtures so units and rounding can never drift.
  double queueMillis() const {
    return static_cast<double>(QueueNs) / static_cast<double>(nsPerMs);
  }
  double totalMillis() const {
    return static_cast<double>(TotalNs) / static_cast<double>(nsPerMs);
  }
};

/// One admitted request travelling through the batcher. The input tensor
/// is borrowed: the submitter must keep it alive until the future
/// resolves.
struct BatchRequest {
  uint64_t Id = 0;
  const Tensor3D *Input = nullptr;
  TimeNs ArrivalNs = 0;
  TimeNs DeadlineNs = 0; ///< 0 = no deadline
  std::promise<ServeResponse> Done;
};

/// A popped batch: up to MaxBatch requests, oldest first. The popping
/// worker owns the requests and must complete every promise.
struct Batch {
  std::vector<BatchRequest> Requests;
  TimeNs FormedNs = 0;

  size_t size() const { return Requests.size(); }
  bool empty() const { return Requests.empty(); }
};

/// Batching policy knobs.
struct BatcherOptions {
  /// Largest batch a single pop may return; a full batch fires
  /// immediately.
  unsigned MaxBatch = 1;
  /// Longest the oldest pending request may wait before a partial batch
  /// fires. 0 = never coalesce across time: any pending request makes a
  /// batch ready (bursts already queued still coalesce up to MaxBatch).
  TimeNs MaxDelayNs = 0;
  /// Admission bound on pending (queued, not yet popped) requests.
  unsigned MaxQueue = 64;
};

/// Monotonic counters; a consistent snapshot is returned by stats().
struct BatcherStats {
  uint64_t Submitted = 0;         ///< all submit() calls
  uint64_t Admitted = 0;          ///< passed admission control
  uint64_t RejectedQueueFull = 0; ///< backpressure rejections at submit
  uint64_t RejectedDeadline = 0;  ///< dead-on-arrival + expired-in-queue
  uint64_t ExpiredInQueue = 0;    ///< subset of RejectedDeadline: admitted,
                                  ///< then expired before execution
  uint64_t RejectedShutdown = 0;  ///< submitted after close()
  /// Admitted requests still queued when the batcher was destroyed: they
  /// resolve with RejectedShutdown, but are counted here -- not in
  /// RejectedShutdown, which counts only post-close() submits -- so the
  /// conservation identity Submitted == Admitted + RejectedQueueFull +
  /// RejectedShutdown + dead-on-arrival holds with or without a drain.
  uint64_t AbandonedAtShutdown = 0;
  uint64_t Cancelled = 0;
  uint64_t Batches = 0;          ///< popped batches
  uint64_t BatchedRequests = 0;  ///< requests across popped batches
  uint64_t FullBatches = 0;      ///< fired at MaxBatch
  uint64_t TimeoutBatches = 0;   ///< fired by window expiry
  uint64_t MaxQueueDepth = 0;    ///< high-water mark of pending requests
};

/// Ticket returned by submit(): the request id (for cancel) and the future
/// the terminal ServeResponse arrives on.
struct SubmitTicket {
  uint64_t Id = 0;
  std::future<ServeResponse> Response;
};

/// A ticket (Id 0) already resolved with \p Status: for requests refused
/// before they reach any queue.
SubmitTicket rejectedTicket(ServeStatus Status);

/// The synchronized batching queue. Thread-safe: any number of submitters
/// and workers. Owns no threads.
class Batcher {
public:
  Batcher(const BatcherOptions &Options, Clock &Clk);
  /// close()s, then rejects any still-pending request with
  /// RejectedShutdown so no promise is ever abandoned.
  ~Batcher();

  Batcher(const Batcher &) = delete;
  Batcher &operator=(const Batcher &) = delete;

  /// Submit one request. Never blocks: admission control resolves the
  /// future immediately with a rejection when the queue is full, the
  /// deadline has already passed, or the batcher is closed. \p Input is
  /// borrowed until the future resolves. \p DeadlineNs is an absolute
  /// Clock timestamp (0 = no deadline).
  SubmitTicket submit(const Tensor3D &Input, TimeNs DeadlineNs = 0);

  /// Remove a still-queued request; its future resolves with Cancelled.
  /// False when \p Id is unknown, already popped, or already completed.
  bool cancel(uint64_t Id);

  /// Non-blocking pop. First rejects every queued request whose deadline
  /// has passed, then forms a batch if policy says one is ready at
  /// Clock::now(). When no batch is ready, \p NextEventNs (if non-null)
  /// receives the earliest future time the picture can change without a
  /// new submit -- window expiry or a pending deadline -- or 0 when the
  /// queue is empty.
  bool tryPop(Batch &Out, TimeNs *NextEventNs = nullptr);

  /// Blocking pop: waits (through the Clock, so a VirtualClock test can
  /// wake it by advancing time) until a batch is ready or the batcher is
  /// closed and drained. False means closed-and-drained: the worker loop
  /// should exit.
  bool waitPop(Batch &Out);

  /// Stop admission and wake every waiter. Already-admitted requests
  /// remain poppable (a closed batcher fires partial batches immediately,
  /// so draining workers complete them all). Idempotent.
  void close();

  bool closed() const;
  size_t queueDepth() const;
  BatcherStats stats() const;
  const BatcherOptions &options() const { return Opts; }
  Clock &clock() const { return Clk; }

private:
  /// Reject expired requests and form a ready batch, all under Mutex.
  bool formBatchLocked(Batch &Out, TimeNs *NextEventNs);

  BatcherOptions Opts;
  Clock &Clk;

  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::deque<BatchRequest> Pending;
  BatcherStats Counters;
  uint64_t NextId = 1;
  bool Closed = false;
};

} // namespace serve
} // namespace primsel

#endif // PRIMSEL_SERVE_BATCHER_H
