//===- serve/Batcher.cpp --------------------------------------------------===//

#include "serve/Batcher.h"

#include <algorithm>
#include <cassert>

using namespace primsel;
using namespace primsel::serve;

const char *primsel::serve::serveStatusName(ServeStatus S) {
  switch (S) {
  case ServeStatus::Ok:
    return "ok";
  case ServeStatus::RejectedQueueFull:
    return "rejected-queue-full";
  case ServeStatus::RejectedDeadline:
    return "rejected-deadline";
  case ServeStatus::RejectedShutdown:
    return "rejected-shutdown";
  case ServeStatus::Cancelled:
    return "cancelled";
  case ServeStatus::RejectedModelUnavailable:
    return "rejected-model-unavailable";
  case ServeStatus::RejectedInvalidInput:
    return "rejected-invalid-input";
  }
  return "unknown";
}

namespace {

/// Resolve \p P with a no-output terminal status. \p ArrivalNs may be 0
/// for requests rejected at submit (they never queued).
void completeRejected(std::promise<ServeResponse> &P, ServeStatus S,
                      TimeNs NowNs, TimeNs ArrivalNs) {
  ServeResponse R;
  R.Status = S;
  if (ArrivalNs != 0) {
    R.QueueNs = NowNs - ArrivalNs;
    R.TotalNs = NowNs - ArrivalNs;
  }
  P.set_value(std::move(R));
}

} // namespace

Batcher::Batcher(const BatcherOptions &Options, Clock &Clk)
    : Opts(Options), Clk(Clk) {
  assert(Opts.MaxBatch >= 1 && "a batch holds at least one request");
  assert(Opts.MaxQueue >= 1 && "admission bound must admit something");
  Clk.attachWaiter(Mutex, WorkAvailable);
}

Batcher::~Batcher() {
  close();
  std::deque<BatchRequest> Orphans;
  {
    std::lock_guard<std::mutex> G(Mutex);
    Orphans.swap(Pending);
    // Orphans were already counted in Admitted; crediting them to
    // RejectedShutdown (which counts post-close submits, i.e. requests
    // that were *not* admitted) would double-count them and break the
    // Submitted-conservation identity. They get their own counter.
    Counters.AbandonedAtShutdown += Orphans.size();
  }
  TimeNs NowNs = Clk.now();
  for (BatchRequest &R : Orphans)
    completeRejected(R.Done, ServeStatus::RejectedShutdown, NowNs,
                     R.ArrivalNs);
  Clk.detachWaiter(WorkAvailable);
}

SubmitTicket primsel::serve::rejectedTicket(ServeStatus Status) {
  SubmitTicket Ticket;
  std::promise<ServeResponse> Done;
  Ticket.Response = Done.get_future();
  ServeResponse R;
  R.Status = Status;
  Done.set_value(std::move(R));
  return Ticket;
}

SubmitTicket Batcher::submit(const Tensor3D &Input, TimeNs DeadlineNs) {
  SubmitTicket Ticket;
  std::promise<ServeResponse> Done;
  Ticket.Response = Done.get_future();

  TimeNs NowNs = Clk.now();
  std::lock_guard<std::mutex> G(Mutex);
  Ticket.Id = NextId++;
  ++Counters.Submitted;

  if (Closed) {
    ++Counters.RejectedShutdown;
    completeRejected(Done, ServeStatus::RejectedShutdown, NowNs, 0);
    return Ticket;
  }
  if (DeadlineNs != 0 && DeadlineNs <= NowNs) {
    ++Counters.RejectedDeadline;
    completeRejected(Done, ServeStatus::RejectedDeadline, NowNs, 0);
    return Ticket;
  }
  if (Pending.size() >= Opts.MaxQueue) {
    ++Counters.RejectedQueueFull;
    completeRejected(Done, ServeStatus::RejectedQueueFull, NowNs, 0);
    return Ticket;
  }

  BatchRequest R;
  R.Id = Ticket.Id;
  R.Input = &Input;
  R.ArrivalNs = NowNs;
  R.DeadlineNs = DeadlineNs;
  R.Done = std::move(Done);
  Pending.push_back(std::move(R));
  ++Counters.Admitted;
  Counters.MaxQueueDepth =
      std::max<uint64_t>(Counters.MaxQueueDepth, Pending.size());

  // A new arrival can complete a batch or open a window; wake all waiters
  // (several workers may be parked; the policy re-check sorts them out).
  WorkAvailable.notify_all();
  return Ticket;
}

bool Batcher::cancel(uint64_t Id) {
  std::lock_guard<std::mutex> G(Mutex);
  for (auto It = Pending.begin(); It != Pending.end(); ++It) {
    if (It->Id != Id)
      continue;
    completeRejected(It->Done, ServeStatus::Cancelled, Clk.now(),
                     It->ArrivalNs);
    Pending.erase(It);
    ++Counters.Cancelled;
    return true;
  }
  return false;
}

bool Batcher::formBatchLocked(Batch &Out, TimeNs *NextEventNs) {
  TimeNs NowNs = Clk.now();

  // Deadline accounting first: a request that can no longer meet its SLO
  // must not consume execution resources. Deadlines are per-request, so
  // expiry order need not match arrival order -- scan the whole queue.
  for (auto It = Pending.begin(); It != Pending.end();) {
    if (It->DeadlineNs != 0 && It->DeadlineNs <= NowNs) {
      completeRejected(It->Done, ServeStatus::RejectedDeadline, NowNs,
                       It->ArrivalNs);
      ++Counters.RejectedDeadline;
      ++Counters.ExpiredInQueue;
      It = Pending.erase(It);
    } else {
      ++It;
    }
  }

  if (Pending.empty()) {
    if (NextEventNs)
      *NextEventNs = 0;
    return false;
  }

  bool Full = Pending.size() >= Opts.MaxBatch;
  bool WindowExpired =
      Opts.MaxDelayNs == 0 ||
      Pending.front().ArrivalNs + Opts.MaxDelayNs <= NowNs;
  if (!Full && !WindowExpired && !Closed) {
    if (NextEventNs) {
      // The earliest instant the picture can change without a new submit:
      // the batching window of the oldest request, or any queued
      // request's deadline (so expiry rejections happen at their
      // deadline, not at the next unrelated event).
      TimeNs Next = Pending.front().ArrivalNs + Opts.MaxDelayNs;
      for (const BatchRequest &R : Pending)
        if (R.DeadlineNs != 0)
          Next = std::min(Next, R.DeadlineNs);
      *NextEventNs = Next;
    }
    return false;
  }

  size_t Take = std::min<size_t>(Pending.size(), Opts.MaxBatch);
  Out.Requests.clear();
  Out.Requests.reserve(Take);
  for (size_t I = 0; I < Take; ++I) {
    Out.Requests.push_back(std::move(Pending.front()));
    Pending.pop_front();
  }
  Out.FormedNs = NowNs;
  ++Counters.Batches;
  Counters.BatchedRequests += Take;
  if (Take >= Opts.MaxBatch)
    ++Counters.FullBatches;
  else if (WindowExpired && Opts.MaxDelayNs != 0 && !Closed)
    ++Counters.TimeoutBatches;
  return true;
}

bool Batcher::tryPop(Batch &Out, TimeNs *NextEventNs) {
  std::lock_guard<std::mutex> G(Mutex);
  return formBatchLocked(Out, NextEventNs);
}

bool Batcher::waitPop(Batch &Out) {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    TimeNs NextEventNs = 0;
    if (formBatchLocked(Out, &NextEventNs))
      return true;
    if (Closed && Pending.empty())
      return false;
    if (NextEventNs != 0)
      Clk.waitUntil(Lock, WorkAvailable, NextEventNs);
    else
      WorkAvailable.wait(Lock);
  }
}

void Batcher::close() {
  std::lock_guard<std::mutex> G(Mutex);
  Closed = true;
  WorkAvailable.notify_all();
}

bool Batcher::closed() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Closed;
}

size_t Batcher::queueDepth() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Pending.size();
}

BatcherStats Batcher::stats() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Counters;
}
