//===- tests/batcher_test.cpp - Dynamic-batching serve-layer tests --------===//
//
// The serve/ front end: batching policy (full batch fires early, window
// expiry fires partial batches), admission control (queue bound,
// dead-on-arrival and expired-in-queue deadlines), cancellation, the
// exactly-once completion contract, and drain-on-shutdown.
//
// Every policy test drives a VirtualClock: time moves only when the test
// says so, so window expiry and deadline rejections are exact, with zero
// wall-clock sleeps anywhere in this file. The threaded suites at the
// bottom (one waitPop consumer woken by a clock advance; a Server over a
// real CompiledNet) are the reason this binary carries the `concurrency`
// CTest label and runs under ThreadSanitizer in CI.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"
#include "serve/OpenLoop.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

using namespace primsel;
using namespace primsel::serve;

namespace {

Tensor3D dummyInput() {
  Tensor3D T(1, 1, 1, Layout::CHW);
  T.fillRandom(1);
  return T;
}

bool isReady(const std::future<ServeResponse> &F) {
  return F.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Complete every request of \p B as a worker would (empty Ok payload --
/// these tests exercise the queue, not inference).
void completeOk(Batch &B) {
  for (BatchRequest &Rq : B.Requests) {
    ServeResponse R;
    R.Status = ServeStatus::Ok;
    R.BatchSize = static_cast<unsigned>(B.Requests.size());
    Rq.Done.set_value(std::move(R));
  }
}

//===----------------------------------------------------------------------===//
// Batching policy (VirtualClock, single-threaded, deterministic)
//===----------------------------------------------------------------------===//

TEST(Batcher, FullBatchFiresEarly) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 4;
  Opts.MaxDelayNs = 10 * nsPerMs;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  std::vector<SubmitTicket> Tickets;
  for (int I = 0; I < 3; ++I)
    Tickets.push_back(Q.submit(In));

  // Three pending, window still open: no batch, next event = expiry.
  Batch B;
  TimeNs Next = 0;
  EXPECT_FALSE(Q.tryPop(B, &Next));
  EXPECT_EQ(Next, 10 * nsPerMs);

  // The fourth arrival completes the batch with no time passing at all.
  Tickets.push_back(Q.submit(In));
  ASSERT_TRUE(Q.tryPop(B));
  EXPECT_EQ(B.size(), 4u);
  EXPECT_EQ(B.FormedNs, 0);
  EXPECT_EQ(Q.stats().FullBatches, 1u);
  EXPECT_EQ(Q.stats().TimeoutBatches, 0u);

  // Oldest-first order.
  for (size_t I = 0; I < B.size(); ++I)
    EXPECT_EQ(B.Requests[I].Id, Tickets[I].Id);
  completeOk(B);
  for (SubmitTicket &T : Tickets)
    EXPECT_TRUE(T.Response.get().ok());
}

TEST(Batcher, WindowExpiryFiresPartialBatch) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 8;
  Opts.MaxDelayNs = 1 * nsPerMs;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  SubmitTicket A = Q.submit(In);
  Clk.advance(nsPerMs / 4);
  SubmitTicket C = Q.submit(In);

  // Window anchored on the *oldest* request: not expired yet.
  Batch B;
  TimeNs Next = 0;
  EXPECT_FALSE(Q.tryPop(B, &Next));
  EXPECT_EQ(Next, 1 * nsPerMs);
  Clk.advance(nsPerMs / 2);
  EXPECT_FALSE(Q.tryPop(B, &Next));
  EXPECT_EQ(Next, 1 * nsPerMs);

  // Cross the window boundary exactly: the partial batch of 2 fires.
  Clk.advanceTo(1 * nsPerMs);
  ASSERT_TRUE(Q.tryPop(B));
  EXPECT_EQ(B.size(), 2u);
  EXPECT_EQ(B.FormedNs, 1 * nsPerMs);
  EXPECT_EQ(Q.stats().TimeoutBatches, 1u);
  EXPECT_EQ(Q.stats().FullBatches, 0u);
  completeOk(B);
  EXPECT_TRUE(A.Response.get().ok());
  EXPECT_TRUE(C.Response.get().ok());
}

TEST(Batcher, ZeroDelayNeverWaits) {
  // MaxDelayNs == 0: no batching window -- anything pending is ready
  // immediately, but an already-queued burst still coalesces.
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 4;
  Opts.MaxDelayNs = 0;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  SubmitTicket A = Q.submit(In);
  SubmitTicket C = Q.submit(In);
  Batch B;
  ASSERT_TRUE(Q.tryPop(B));
  EXPECT_EQ(B.size(), 2u);
  completeOk(B);
  EXPECT_TRUE(A.Response.get().ok());
  EXPECT_TRUE(C.Response.get().ok());
}

TEST(Batcher, DeadlineExpiredRejectedBeforeExecution) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 4;
  Opts.MaxDelayNs = 10 * nsPerMs;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  // Dead on arrival: deadline already passed at submit.
  Clk.advance(5 * nsPerMs);
  SubmitTicket Doa = Q.submit(In, 2 * nsPerMs);
  ASSERT_TRUE(isReady(Doa.Response));
  EXPECT_EQ(Doa.Response.get().Status, ServeStatus::RejectedDeadline);
  EXPECT_EQ(Q.stats().ExpiredInQueue, 0u);

  // Expires while queued: rejected at batch formation, not executed.
  SubmitTicket Tight = Q.submit(In, 7 * nsPerMs);
  SubmitTicket Loose = Q.submit(In, 40 * nsPerMs);
  Batch B;
  TimeNs Next = 0;
  EXPECT_FALSE(Q.tryPop(B, &Next));
  EXPECT_EQ(Next, 7 * nsPerMs); // the earliest deadline, not the window
  Clk.advanceTo(7 * nsPerMs);
  EXPECT_FALSE(Q.tryPop(B, &Next)); // prune fired; batch still waiting
  ASSERT_TRUE(isReady(Tight.Response));
  ServeResponse R = Tight.Response.get();
  EXPECT_EQ(R.Status, ServeStatus::RejectedDeadline);
  EXPECT_EQ(R.QueueNs, 2 * nsPerMs);
  EXPECT_EQ(Q.stats().ExpiredInQueue, 1u);

  // The surviving request still fires on the original window.
  EXPECT_EQ(Next, 15 * nsPerMs);
  Clk.advanceTo(15 * nsPerMs);
  ASSERT_TRUE(Q.tryPop(B));
  ASSERT_EQ(B.size(), 1u);
  EXPECT_EQ(B.Requests[0].Id, Loose.Id);
  completeOk(B);
  EXPECT_TRUE(Loose.Response.get().ok());
}

TEST(Batcher, QueueFullAdmissionControl) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 8;
  Opts.MaxDelayNs = 10 * nsPerMs;
  Opts.MaxQueue = 2;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  SubmitTicket A = Q.submit(In);
  SubmitTicket C = Q.submit(In);
  SubmitTicket Rejected = Q.submit(In);
  ASSERT_TRUE(isReady(Rejected.Response));
  EXPECT_EQ(Rejected.Response.get().Status, ServeStatus::RejectedQueueFull);
  EXPECT_FALSE(isReady(A.Response));
  EXPECT_EQ(Q.queueDepth(), 2u);

  // Popping frees capacity; admission recovers.
  Clk.advanceTo(10 * nsPerMs);
  Batch B;
  ASSERT_TRUE(Q.tryPop(B));
  EXPECT_EQ(B.size(), 2u);
  SubmitTicket After = Q.submit(In);
  EXPECT_FALSE(isReady(After.Response));
  completeOk(B);

  BatcherStats S = Q.stats();
  EXPECT_EQ(S.Submitted, 4u);
  EXPECT_EQ(S.Admitted, 3u);
  EXPECT_EQ(S.RejectedQueueFull, 1u);
  EXPECT_EQ(S.MaxQueueDepth, 2u);
  (void)A;
  (void)C;
  (void)After;
}

TEST(Batcher, CancelRemovesQueuedRequest) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 4;
  Opts.MaxDelayNs = 10 * nsPerMs;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  SubmitTicket Keep = Q.submit(In);
  SubmitTicket Gone = Q.submit(In);
  EXPECT_TRUE(Q.cancel(Gone.Id));
  EXPECT_EQ(Gone.Response.get().Status, ServeStatus::Cancelled);
  EXPECT_FALSE(Q.cancel(Gone.Id)); // already gone
  EXPECT_FALSE(Q.cancel(9999));    // never existed

  Clk.advanceTo(10 * nsPerMs);
  Batch B;
  ASSERT_TRUE(Q.tryPop(B));
  ASSERT_EQ(B.size(), 1u);
  EXPECT_EQ(B.Requests[0].Id, Keep.Id);
  completeOk(B);
  EXPECT_TRUE(Keep.Response.get().ok());
  EXPECT_EQ(Q.stats().Cancelled, 1u);
}

TEST(Batcher, DrainOnShutdownCompletesAllAdmitted) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 2;
  Opts.MaxDelayNs = 10 * nsPerMs;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  std::vector<SubmitTicket> Tickets;
  for (int I = 0; I < 5; ++I)
    Tickets.push_back(Q.submit(In));

  // close() stops admission but keeps the admitted requests poppable; a
  // closed batcher fires partial batches without waiting for the window.
  Q.close();
  SubmitTicket Late = Q.submit(In);
  ASSERT_TRUE(isReady(Late.Response));
  EXPECT_EQ(Late.Response.get().Status, ServeStatus::RejectedShutdown);

  Batch B;
  std::vector<size_t> Sizes;
  while (Q.tryPop(B)) {
    Sizes.push_back(B.size());
    completeOk(B);
  }
  ASSERT_EQ(Sizes.size(), 3u);
  EXPECT_EQ(Sizes[0], 2u);
  EXPECT_EQ(Sizes[1], 2u);
  EXPECT_EQ(Sizes[2], 1u); // the trailing partial batch drains too
  for (SubmitTicket &T : Tickets)
    EXPECT_TRUE(T.Response.get().ok());
}

TEST(Batcher, DestructorRejectsUndrainedRequests) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 4;
  Opts.MaxDelayNs = 10 * nsPerMs;
  Tensor3D In = dummyInput();

  SubmitTicket Orphan;
  {
    Batcher Q(Opts, Clk);
    Orphan = Q.submit(In);
    // No worker ever pops; the promise must still resolve.
  }
  ASSERT_TRUE(isReady(Orphan.Response));
  EXPECT_EQ(Orphan.Response.get().Status, ServeStatus::RejectedShutdown);
}

TEST(Batcher, ResponseMillisMatchRecordedNanosExactly) {
  // The serve path reports latency in milliseconds via queueMillis()/
  // totalMillis(); pin the conversion to exactly Ns / 1e6 with no
  // integer truncation, so summaries built from these samples agree
  // with the nanosecond timestamps the batcher recorded. Driven on a
  // VirtualClock so both nanosecond values are hand-computable.
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 1;
  Opts.MaxDelayNs = 0;
  Tensor3D In = dummyInput();

  Batcher Q(Opts, Clk);
  Clk.advance(3); // arrival at t = 3ns
  SubmitTicket T = Q.submit(In);
  Clk.advance(1500000); // queued for 1.5ms
  Batch B;
  ASSERT_TRUE(Q.tryPop(B));
  ASSERT_EQ(B.size(), 1u);
  Clk.advance(2250001); // "execution" takes 2.250001ms
  ServeResponse Resp;
  Resp.Status = ServeStatus::Ok;
  Resp.QueueNs = B.FormedNs - B.Requests[0].ArrivalNs;
  Resp.TotalNs = Clk.now() - B.Requests[0].ArrivalNs;
  B.Requests[0].Done.set_value(std::move(Resp));

  ServeResponse Got = T.Response.get();
  EXPECT_EQ(Got.QueueNs, 1500000u);
  EXPECT_EQ(Got.TotalNs, 3750001u);
  // Sub-millisecond precision survives: 3750001ns is 3.750001ms, not 3ms.
  EXPECT_DOUBLE_EQ(Got.queueMillis(), 1.5);
  EXPECT_DOUBLE_EQ(Got.totalMillis(), 3.750001);
}

//===----------------------------------------------------------------------===//
// Threaded: a blocked waitPop consumer woken by clock advances (the suite
// ThreadSanitizer watches)
//===----------------------------------------------------------------------===//

TEST(BatcherThreaded, AdvanceWakesBlockedWaitPop) {
  VirtualClock Clk;
  BatcherOptions Opts;
  Opts.MaxBatch = 4;
  Opts.MaxDelayNs = 5 * nsPerMs;
  Batcher Q(Opts, Clk);
  Tensor3D In = dummyInput();

  std::vector<size_t> Sizes;
  std::thread Worker([&] {
    Batch B;
    while (Q.waitPop(B)) {
      Sizes.push_back(B.size());
      completeOk(B);
    }
  });

  // A single request: not a full batch, so the worker can only pop it
  // once the window expires -- which only a clock advance can cause.
  SubmitTicket A = Q.submit(In);
  Clk.advance(5 * nsPerMs);
  EXPECT_TRUE(A.Response.get().ok()); // blocks until the worker serves it

  // A full batch needs no advance at all.
  std::vector<SubmitTicket> Burst;
  for (int I = 0; I < 4; ++I)
    Burst.push_back(Q.submit(In));
  for (SubmitTicket &T : Burst)
    EXPECT_TRUE(T.Response.get().ok());

  Q.close(); // wakes the worker; waitPop returns false
  Worker.join();
  ASSERT_EQ(Sizes.size(), 2u);
  EXPECT_EQ(Sizes[0], 1u);
  EXPECT_EQ(Sizes[1], 4u);
}

//===----------------------------------------------------------------------===//
// Server over a real CompiledNet
//===----------------------------------------------------------------------===//

std::shared_ptr<const CompiledNet> compileTiny(PrimitiveLibrary &Lib,
                                               AnalyticCostProvider &Prov) {
  NetworkGraph Net = tinyChain(16);
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  Engine Eng(Lib, Prov, EOpts);
  SelectionResult R = Eng.optimize(Net);
  EXPECT_FALSE(R.Plan.empty());
  return Eng.compile(Net, R);
}

TEST(Server, DrainsAndMatchesSequentialExecutor) {
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  std::shared_ptr<const CompiledNet> CN = compileTiny(Lib, Prov);
  ASSERT_NE(CN, nullptr);

  const TensorShape &Sh = CN->graph().node(0).OutShape;
  std::vector<Tensor3D> Inputs;
  std::vector<Tensor3D> Reference;
  Executor Seq(CN->graph(), CN->plan(), Lib);
  for (unsigned I = 0; I < 3; ++I) {
    Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
    T.fillRandom(31 + I);
    Seq.run(T);
    Reference.push_back(Seq.networkOutput().clone());
    Inputs.push_back(std::move(T));
  }

  ServerOptions SOpts;
  SOpts.Batch.MaxBatch = 4;
  SOpts.Batch.MaxDelayNs = nsPerMs / 2;
  SOpts.Workers = 2;

  Server Srv(CN, SOpts);
  std::vector<SubmitTicket> Tickets;
  const unsigned N = 12;
  for (unsigned I = 0; I < N; ++I)
    Tickets.push_back(Srv.submit(Inputs[I % Inputs.size()]));
  // shutdown() must complete every admitted request before returning.
  Srv.shutdown();

  for (unsigned I = 0; I < N; ++I) {
    ASSERT_TRUE(isReady(Tickets[I].Response)) << "request " << I;
    ServeResponse R = Tickets[I].Response.get();
    ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);
    EXPECT_GE(R.BatchSize, 1u);
    EXPECT_LE(R.BatchSize, 4u);
    EXPECT_EQ(maxAbsDifference(R.Output, Reference[I % Inputs.size()]), 0.0f)
        << "request " << I;
  }
  EXPECT_EQ(Srv.stats().RequestsExecuted, N);
  EXPECT_EQ(Srv.batcherStats().Admitted, N);
}

TEST(Server, WrongShapeInputIsRejectedNotExecuted) {
  // A wrong-shape (or non-CHW) input resolves at once with
  // RejectedInvalidInput and never reaches a worker, where it would trip
  // the interpreter's shape assertion; the next valid request is served
  // bit-identically.
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  std::shared_ptr<const CompiledNet> CN = compileTiny(Lib, Prov);
  ASSERT_NE(CN, nullptr);
  const TensorShape &Sh = CN->graph().node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(47);
  Executor Seq(CN->graph(), CN->plan(), Lib);
  Seq.run(In);
  Tensor3D Ref = Seq.networkOutput().clone();

  Server Srv(CN, ServerOptions{});
  Tensor3D Wrong(Sh.C + 1, Sh.H, Sh.W, Layout::CHW);
  Wrong.fillRandom(48);
  Tensor3D Hwc(Sh.C, Sh.H, Sh.W, Layout::HWC);
  Hwc.fillRandom(49);
  for (const Tensor3D *Bad : {&Wrong, &Hwc}) {
    SubmitTicket T = Srv.submit(*Bad);
    ASSERT_TRUE(isReady(T.Response));
    EXPECT_EQ(T.Response.get().Status, ServeStatus::RejectedInvalidInput);
  }
  ServeResponse R = Srv.submit(In).Response.get();
  ASSERT_TRUE(R.ok()) << serveStatusName(R.Status);
  EXPECT_EQ(std::memcmp(R.Output.data(), Ref.data(),
                        static_cast<size_t>(Ref.size()) * sizeof(float)),
            0);
  Srv.shutdown();
  EXPECT_EQ(Srv.stats().InvalidInputs, 2u);
  EXPECT_EQ(Srv.stats().RequestsExecuted, 1u);
  EXPECT_EQ(Srv.batcherStats().Submitted, 1u);
}

TEST(Server, VirtualClockDrivesBatchWindow) {
  // The server's workers park in waitPop through the VirtualClock; a full
  // batch is served with zero time advances, a partial one only after the
  // test advances past the window.
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  std::shared_ptr<const CompiledNet> CN = compileTiny(Lib, Prov);
  ASSERT_NE(CN, nullptr);

  const TensorShape &Sh = CN->graph().node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(41);

  VirtualClock Clk;
  ServerOptions SOpts;
  SOpts.Batch.MaxBatch = 2;
  SOpts.Batch.MaxDelayNs = 3 * nsPerMs;
  Server Srv(CN, SOpts, Clk);

  // Full batch: both futures resolve without any advance.
  SubmitTicket A = Srv.submit(In);
  SubmitTicket B = Srv.submit(In);
  ServeResponse RA = A.Response.get();
  ServeResponse RB = B.Response.get();
  EXPECT_TRUE(RA.ok());
  EXPECT_TRUE(RB.ok());
  EXPECT_EQ(RA.BatchSize, 2u);
  EXPECT_EQ(RB.BatchSize, 2u);
  EXPECT_EQ(RA.QueueNs, 0); // formed before virtual time moved

  // Partial batch: parked until the window expires.
  SubmitTicket C = Srv.submit(In);
  Clk.advance(3 * nsPerMs);
  ServeResponse RC = C.Response.get();
  EXPECT_TRUE(RC.ok());
  EXPECT_EQ(RC.BatchSize, 1u);
  EXPECT_EQ(RC.QueueNs, 3 * nsPerMs);
  Srv.shutdown();
  EXPECT_EQ(Srv.batcherStats().TimeoutBatches, 1u);
}

TEST(Server, ClosedLoopKeepsOneRequestPerClientInFlight) {
  // The closed-loop generator: each client waits for its response before
  // submitting again, so the queue never holds more than one request per
  // client, nothing is refused, and the uneven split (4/3/3) serves every
  // request.
  PrimitiveLibrary Lib = buildFullLibrary();
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  std::shared_ptr<const CompiledNet> CN = compileTiny(Lib, Prov);
  ASSERT_NE(CN, nullptr);
  const TensorShape &Sh = CN->graph().node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(43);

  const unsigned Clients = 3, Requests = 10;
  ServerOptions SOpts;
  SOpts.Batch.MaxQueue = Clients;
  SOpts.Workers = 2;
  Server Srv(CN, SOpts);
  OpenLoopResult Res = runClosedLoop(Srv, In, Clients, Requests);
  Srv.shutdown();

  EXPECT_EQ(Res.Offered, Requests);
  EXPECT_EQ(Res.Completed, Requests);
  EXPECT_EQ(Res.Rejected, 0u);
  EXPECT_EQ(Res.LatenciesMs.size(), Requests);
  BatcherStats BS = Srv.batcherStats();
  EXPECT_EQ(BS.Admitted, Requests);
  EXPECT_LE(BS.MaxQueueDepth, Clients);
  EXPECT_EQ(Srv.stats().RequestsExecuted, Requests);
}

} // namespace
