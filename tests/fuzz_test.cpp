//===- tests/fuzz_test.cpp - randomized whole-pipeline properties ---------===//
//
// Seed-swept property tests over randomNetwork() DAGs: arbitrary (but
// valid) topologies are pushed through the full pipeline -- formulation,
// solving, legalization, execution -- and the load-bearing invariants are
// checked on every one:
//
//   1. the PBQP plan is legalized and maps only supporting primitives;
//   2. the PBQP plan's modelled cost never exceeds any baseline strategy's
//      (optimality, whenever the solver proves its solution);
//   3. executing the PBQP plan computes the same function as executing the
//      sum2d baseline plan (whole-network functional equivalence);
//   4. the text format round-trips the generated topologies;
//   5. the dynamic batcher (serve/Batcher.h), driven by random
//      submit/cancel/advance-clock/pop schedules on a VirtualClock, never
//      loses or double-completes a request: every future resolves exactly
//      once with a valid terminal status, and the number of Ok responses
//      equals the number of requests the schedule actually executed.
//
//===----------------------------------------------------------------------===//

#include "core/Selector.h"
#include "core/Strategies.h"
#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "nn/NetParser.h"
#include "primitives/Registry.h"
#include "runtime/Executor.h"
#include "serve/Batcher.h"
#include "support/Random.h"
#include "tensor/Transform.h"
#include "transforms/Pass.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace primsel;

namespace {

const PrimitiveLibrary &library() {
  static PrimitiveLibrary Lib = buildFullLibrary();
  return Lib;
}

class RandomNetworkTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetworkTest, GeneratorProducesValidGraphs) {
  NetworkGraph Net = randomNetwork(GetParam());
  EXPECT_GT(Net.numNodes(), 3u);
  EXPECT_FALSE(Net.outputs().empty());
  // Topological discipline: every input of a node has a smaller id.
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N)
    for (NetworkGraph::NodeId In : Net.node(N).Inputs)
      EXPECT_LT(In, N);
  // Conv scenarios are well-formed.
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    const ConvScenario &S = Net.node(N).Scenario;
    EXPECT_GE(S.outHeight(), 1);
    EXPECT_GE(S.outWidth(), 1);
    EXPECT_GE(S.SparsityPct, 0);
    EXPECT_LE(S.SparsityPct, 100);
  }
}

TEST_P(RandomNetworkTest, SelectionIsLegalizedAndSupported) {
  NetworkGraph Net = randomNetwork(GetParam());
  MachineProfile Prof = MachineProfile::haswell();
  AnalyticCostProvider Costs(library(), Prof);
  SelectionResult R = optimizeNetwork(Net, library(), Costs);
  ASSERT_FALSE(R.Plan.empty());
  EXPECT_TRUE(isLegalized(R.Plan, Net));
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    const ConvPrimitive &P = library().get(R.Plan.ConvPrim[N]);
    EXPECT_TRUE(P.supports(Net.node(N).Scenario)) << P.name();
    EXPECT_EQ(P.inputLayout(), R.Plan.InLayout[N]) << P.name();
    EXPECT_EQ(P.outputLayout(), R.Plan.OutLayout[N]) << P.name();
  }
}

TEST_P(RandomNetworkTest, PBQPNeverLosesToBaselineStrategies) {
  NetworkGraph Net = randomNetwork(GetParam());
  MachineProfile Prof = MachineProfile::haswell();
  AnalyticCostProvider Costs(library(), Prof);
  SelectionResult R = optimizeNetwork(Net, library(), Costs);
  ASSERT_FALSE(R.Plan.empty());
  if (!R.Solver.ProvablyOptimal)
    GTEST_SKIP() << "RN heuristic used; optimality not guaranteed";
  for (Strategy S : {Strategy::Sum2D, Strategy::Greedy,
                     Strategy::LocalOptimalCHW, Strategy::FamilyIm2}) {
    NetworkPlan Base = planForStrategy(S, Net, library(), Costs);
    if (Base.empty())
      continue;
    double BaseCost = modelPlanCost(Base, Net, library(), Costs);
    EXPECT_LE(R.ModelledCostMs, BaseCost * (1.0 + 1e-9))
        << strategyName(S) << " beat PBQP on seed " << GetParam();
  }
}

TEST_P(RandomNetworkTest, OptimizedExecutionMatchesBaselineExecution) {
  NetworkGraph Net = randomNetwork(GetParam(), /*InputSize=*/24,
                                   /*Stages=*/2);
  MachineProfile Prof = MachineProfile::haswell();
  AnalyticCostProvider Costs(library(), Prof);

  SelectionResult R = optimizeNetwork(Net, library(), Costs);
  ASSERT_FALSE(R.Plan.empty());
  NetworkPlan Baseline =
      planForStrategy(Strategy::Sum2D, Net, library(), Costs);
  ASSERT_FALSE(Baseline.empty());

  const TensorShape &In = Net.node(0).OutShape;
  Tensor3D Input(In.C, In.H, In.W, Layout::CHW);
  Input.fillRandom(GetParam() * 31 + 7);

  Executor Opt(Net, R.Plan, library());
  Executor Base(Net, Baseline, library());
  Opt.run(Input);
  Base.run(Input);

  // Compare every network output (random nets can have several).
  for (NetworkGraph::NodeId Out : Net.outputs()) {
    Tensor3D A = convertToLayout(Opt.outputOf(Out), Layout::CHW);
    Tensor3D B = convertToLayout(Base.outputOf(Out), Layout::CHW);
    ASSERT_TRUE(A.sameShape(B));
    // Winograd/FFT selections accumulate transform error on top of deep
    // accumulation; scale tolerance with depth.
    EXPECT_LE(maxAbsDifference(A, B), 5e-2f)
        << "output " << Net.node(Out).L.Name << " seed " << GetParam();
  }
}

TEST_P(RandomNetworkTest, TextFormatRoundTripsRandomTopologies) {
  NetworkGraph Net = randomNetwork(GetParam());
  NetParseResult P = parseNetworkText(serializeNetwork(Net));
  ASSERT_TRUE(P.ok()) << P.Error << " at line " << P.Line;
  ASSERT_EQ(P.Net->numNodes(), Net.numNodes());
  EXPECT_EQ(serializeNetwork(*P.Net), serializeNetwork(Net));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkTest,
                         ::testing::Range<uint64_t>(1, 17));

TEST(RandomNetwork, DeterministicPerSeed) {
  NetworkGraph A = randomNetwork(42);
  NetworkGraph B = randomNetwork(42);
  EXPECT_EQ(serializeNetwork(A), serializeNetwork(B));
  NetworkGraph C = randomNetwork(43);
  EXPECT_NE(serializeNetwork(A), serializeNetwork(C));
}

//===----------------------------------------------------------------------===//
// Residual/depthwise topologies: the same pipeline invariants over
// randomResidualNetwork() DAGs (multi-consumer diamonds, depthwise
// scenarios, Add/GlobalAvgPool nodes on every path).
//===----------------------------------------------------------------------===//

class ResidualNetworkTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResidualNetworkTest, GeneratorProducesResidualGraphs) {
  NetworkGraph Net = randomResidualNetwork(GetParam());
  EXPECT_FALSE(Net.outputs().empty());
  unsigned Adds = 0, MultiConsumer = 0, DepthwiseNodes = 0;
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    for (NetworkGraph::NodeId In : Node.Inputs)
      EXPECT_LT(In, N);
    if (Node.L.Kind == LayerKind::Add) {
      ++Adds;
      ASSERT_GE(Node.Inputs.size(), 2u);
      for (NetworkGraph::NodeId In : Node.Inputs)
        EXPECT_TRUE(Net.node(In).OutShape == Node.OutShape);
    }
    if (Node.L.Kind == LayerKind::DepthwiseConv) {
      ++DepthwiseNodes;
      EXPECT_TRUE(Node.Scenario.Depthwise);
      EXPECT_EQ(Node.Scenario.M, Node.Scenario.C);
    }
    if (Node.Consumers.size() >= 2)
      ++MultiConsumer;
  }
  // Every generated graph is genuinely residual: at least one skip sum and
  // one multi-consumer value.
  EXPECT_GE(Adds, 1u);
  EXPECT_GE(MultiConsumer, 1u);
  (void)DepthwiseNodes; // present on most seeds; not guaranteed per seed
}

TEST_P(ResidualNetworkTest, SelectionIsLegalizedAndSupported) {
  NetworkGraph Net = randomResidualNetwork(GetParam());
  AnalyticCostProvider Costs(library(), MachineProfile::haswell());
  SelectionResult R = optimizeNetwork(Net, library(), Costs);
  ASSERT_FALSE(R.Plan.empty());
  EXPECT_TRUE(isLegalized(R.Plan, Net));
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    const ConvPrimitive &P = library().get(R.Plan.ConvPrim[N]);
    EXPECT_TRUE(P.supports(Net.node(N).Scenario)) << P.name();
    EXPECT_EQ(P.isDepthwise(),
              Net.node(N).L.Kind == LayerKind::DepthwiseConv)
        << P.name();
    EXPECT_EQ(P.inputLayout(), R.Plan.InLayout[N]) << P.name();
    EXPECT_EQ(P.outputLayout(), R.Plan.OutLayout[N]) << P.name();
  }
}

TEST_P(ResidualNetworkTest, PBQPNeverLosesToBaselineStrategies) {
  NetworkGraph Net = randomResidualNetwork(GetParam());
  AnalyticCostProvider Costs(library(), MachineProfile::haswell());
  SelectionResult R = optimizeNetwork(Net, library(), Costs);
  ASSERT_FALSE(R.Plan.empty());
  if (!R.Solver.ProvablyOptimal)
    GTEST_SKIP() << "RN heuristic used; optimality not guaranteed";
  for (Strategy S : {Strategy::Sum2D, Strategy::Greedy,
                     Strategy::LocalOptimalCHW, Strategy::FamilyIm2}) {
    NetworkPlan Base = planForStrategy(S, Net, library(), Costs);
    if (Base.empty())
      continue;
    double BaseCost = modelPlanCost(Base, Net, library(), Costs);
    EXPECT_LE(R.ModelledCostMs, BaseCost * (1.0 + 1e-9))
        << strategyName(S) << " beat PBQP on seed " << GetParam();
  }
}

TEST_P(ResidualNetworkTest, OptimizedExecutionMatchesBaselineExecution) {
  NetworkGraph Net = randomResidualNetwork(GetParam(), /*InputSize=*/16,
                                           /*Stages=*/2);
  AnalyticCostProvider Costs(library(), MachineProfile::haswell());

  SelectionResult R = optimizeNetwork(Net, library(), Costs);
  ASSERT_FALSE(R.Plan.empty());
  NetworkPlan Baseline =
      planForStrategy(Strategy::Sum2D, Net, library(), Costs);
  ASSERT_FALSE(Baseline.empty());

  const TensorShape &In = Net.node(0).OutShape;
  Tensor3D Input(In.C, In.H, In.W, Layout::CHW);
  Input.fillRandom(GetParam() * 37 + 5);

  Executor Opt(Net, R.Plan, library());
  Executor Base(Net, Baseline, library());
  Opt.run(Input);
  Base.run(Input);

  for (NetworkGraph::NodeId Out : Net.outputs()) {
    Tensor3D A = convertToLayout(Opt.outputOf(Out), Layout::CHW);
    Tensor3D B = convertToLayout(Base.outputOf(Out), Layout::CHW);
    ASSERT_TRUE(A.sameShape(B));
    EXPECT_LE(maxAbsDifference(A, B), 5e-2f)
        << "output " << Net.node(Out).L.Name << " seed " << GetParam();
  }
}

TEST_P(ResidualNetworkTest, PassPipelinePreservesReferenceEquivalence) {
  // The full transform pipeline on residual/depthwise DAGs: the rewritten
  // graph must verify, must never grow, must be a fixpoint, and the
  // O1-optimized execution must (a) bit-match the O0-optimized execution
  // and (b) stay reference-equivalent to the sum2d instantiation of the
  // *original* graph.
  NetworkGraph Net = randomResidualNetwork(GetParam(), /*InputSize=*/16,
                                           /*Stages=*/2);
  transforms::PassPipeline Pipeline = transforms::PassPipeline::fromNames(
      transforms::PassPipeline::defaultPassNames());
  std::vector<transforms::PassStats> Stats;
  NetworkGraph Fused = Pipeline.run(Net, &Stats);
  EXPECT_EQ(transforms::verifyGraph(Fused), "") << "seed " << GetParam();
  EXPECT_LE(Fused.numNodes(), Net.numNodes());
  EXPECT_EQ(Pipeline.run(Fused).numNodes(), Fused.numNodes())
      << "pipeline must be a fixpoint on its own output";

  AnalyticCostProvider Costs(library(), MachineProfile::haswell());
  Engine EngO0(library(), Costs, {});
  SelectionResult R0 = EngO0.optimize(Net);
  ASSERT_FALSE(R0.Plan.empty());
  EngineOptions O1Opts;
  O1Opts.Passes = transforms::PassPipeline::defaultPassNames();
  Engine EngO1(library(), Costs, O1Opts);
  SelectionResult R1 = EngO1.optimize(Net);
  ASSERT_FALSE(R1.Plan.empty());
  ASSERT_NE(R1.Rewritten, nullptr);
  ASSERT_EQ(R1.Rewritten->numNodes(), Fused.numNodes());

  NetworkPlan Reference =
      planForStrategy(Strategy::Sum2D, Net, library(), Costs);
  ASSERT_FALSE(Reference.empty());

  const TensorShape &In = Net.node(0).OutShape;
  Tensor3D Input(In.C, In.H, In.W, Layout::CHW);
  Input.fillRandom(GetParam() * 41 + 3);

  Executor O0(Net, R0.Plan, library());
  Executor O1(*R1.Rewritten, R1.Plan, library());
  Executor Ref(Net, Reference, library());
  O0.run(Input);
  O1.run(Input);
  Ref.run(Input);

  std::vector<NetworkGraph::NodeId> OutsO0 = Net.outputs();
  std::vector<NetworkGraph::NodeId> OutsO1 = R1.Rewritten->outputs();
  ASSERT_EQ(OutsO0.size(), OutsO1.size()) << "seed " << GetParam();
  for (size_t I = 0; I < OutsO0.size(); ++I) {
    Tensor3D A = convertToLayout(O0.outputOf(OutsO0[I]), Layout::CHW);
    Tensor3D B = convertToLayout(O1.outputOf(OutsO1[I]), Layout::CHW);
    Tensor3D R = convertToLayout(Ref.outputOf(OutsO0[I]), Layout::CHW);
    ASSERT_TRUE(A.sameShape(B));
    EXPECT_EQ(maxAbsDifference(A, B), 0.0f)
        << "O1 diverged from O0 on output " << I << " seed " << GetParam();
    EXPECT_LE(maxAbsDifference(B, R), 5e-2f)
        << "O1 diverged from the reference on output " << I << " seed "
        << GetParam();
  }
}

TEST_P(ResidualNetworkTest, TextFormatRoundTripsResidualTopologies) {
  NetworkGraph Net = randomResidualNetwork(GetParam());
  NetParseResult P = parseNetworkText(serializeNetwork(Net));
  ASSERT_TRUE(P.ok()) << P.Error << " at line " << P.Line;
  ASSERT_EQ(P.Net->numNodes(), Net.numNodes());
  EXPECT_EQ(serializeNetwork(*P.Net), serializeNetwork(Net));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidualNetworkTest,
                         ::testing::Range<uint64_t>(1, 17));

TEST(RandomResidualNetwork, DeterministicPerSeed) {
  EXPECT_EQ(serializeNetwork(randomResidualNetwork(42)),
            serializeNetwork(randomResidualNetwork(42)));
  EXPECT_NE(serializeNetwork(randomResidualNetwork(42)),
            serializeNetwork(randomResidualNetwork(43)));
}

//===----------------------------------------------------------------------===//
// 5. Batcher lifecycle property: random admission/cancel/advance/pop
//    schedules on a VirtualClock (fully deterministic per seed).
//===----------------------------------------------------------------------===//

class BatcherFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatcherFuzz, RandomSchedulesNeverLoseOrDoubleCompleteRequests) {
  Rng R(GetParam());
  serve::VirtualClock Clk;
  serve::BatcherOptions Opts;
  Opts.MaxBatch = 1 + static_cast<unsigned>(R.nextBelow(4));
  Opts.MaxDelayNs =
      R.nextBelow(2) ? static_cast<serve::TimeNs>(1 + R.nextBelow(5)) *
                           serve::nsPerMs
                     : 0;
  Opts.MaxQueue = 1 + static_cast<unsigned>(R.nextBelow(8));
  Tensor3D In(1, 1, 1, Layout::CHW);
  In.fillRandom(GetParam());

  // Every ticket ever issued; nothing may be lost. Double completion is
  // structurally loud: a second set_value on a promise throws.
  std::vector<serve::SubmitTicket> All;
  uint64_t ExecutedOk = 0;

  auto completeBatch = [&](serve::Batch &B) {
    EXPECT_LE(B.size(), Opts.MaxBatch);
    EXPECT_GE(B.size(), 1u);
    for (serve::BatchRequest &Rq : B.Requests) {
      // Admitted requests only, popped before their deadline.
      EXPECT_NE(Rq.Id, 0u);
      if (Rq.DeadlineNs != 0)
        EXPECT_GT(Rq.DeadlineNs, B.FormedNs);
      serve::ServeResponse Resp;
      Resp.Status = serve::ServeStatus::Ok;
      Resp.BatchSize = static_cast<unsigned>(B.size());
      Rq.Done.set_value(std::move(Resp));
      ++ExecutedOk;
    }
  };

  {
    serve::Batcher Q(Opts, Clk);
    for (int Step = 0; Step < 300; ++Step) {
      switch (R.nextBelow(5)) {
      case 0:
      case 1: { // submit, sometimes with a (possibly hopeless) deadline
        serve::TimeNs Deadline =
            R.nextBelow(3) == 0
                ? Clk.now() + static_cast<serve::TimeNs>(
                                  R.nextBelow(4 * serve::nsPerMs))
                : 0;
        All.push_back(Q.submit(In, Deadline));
        break;
      }
      case 2: // cancel a random ticket (often already resolved: must be
              // a clean no-op, never a double completion)
        if (!All.empty())
          Q.cancel(All[R.nextBelow(All.size())].Id);
        break;
      case 3: // let virtual time pass (expires windows and deadlines)
        Clk.advance(static_cast<serve::TimeNs>(
            R.nextBelow(2 * serve::nsPerMs)));
        break;
      case 4: { // act as the draining worker
        serve::Batch B;
        if (Q.tryPop(B))
          completeBatch(B);
        break;
      }
      }
    }

    // Shutdown drain: close admission, pop until empty. Everything still
    // queued either executes or expires -- nothing may linger.
    Q.close();
    serve::Batch B;
    while (Q.tryPop(B))
      completeBatch(B);
    EXPECT_EQ(Q.queueDepth(), 0u);

    serve::BatcherStats S = Q.stats();
    EXPECT_EQ(S.Submitted, All.size());
    // Conservation after a full drain: every admitted request was popped,
    // cancelled, or expired in the queue.
    EXPECT_EQ(S.Admitted, S.BatchedRequests + S.Cancelled + S.ExpiredInQueue);
    EXPECT_EQ(S.Submitted,
              S.Admitted + S.RejectedQueueFull + S.RejectedShutdown +
                  (S.RejectedDeadline - S.ExpiredInQueue));
    EXPECT_EQ(S.BatchedRequests, ExecutedOk);
  }

  // Exactly-once completion with a valid terminal status for every ticket.
  uint64_t SawOk = 0;
  for (serve::SubmitTicket &T : All) {
    ASSERT_TRUE(T.Response.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)
        << "lost request " << T.Id;
    serve::ServeResponse Resp = T.Response.get();
    EXPECT_STRNE(serve::serveStatusName(Resp.Status), "unknown");
    if (Resp.ok())
      ++SawOk;
    else
      EXPECT_EQ(Resp.BatchSize, 0u);
  }
  EXPECT_EQ(SawOk, ExecutedOk)
      << "Ok responses must match executions one-to-one";
}

// Same property, but popped batches are HELD by simulated slow workers
// instead of completing at pop time. This schedules the cancel-racing-fire
// window: a cancel that loses the race to tryPop must be a clean no-op
// (return false, no second completion) because the request now belongs to
// the worker holding the batch.
TEST_P(BatcherFuzz, CancelRacingPoppedBatchesNeverDoubleCompletes) {
  Rng R(GetParam() * 7919 + 1);
  serve::VirtualClock Clk;
  serve::BatcherOptions Opts;
  Opts.MaxBatch = 1 + static_cast<unsigned>(R.nextBelow(4));
  Opts.MaxDelayNs = 0; // pop-eager: keeps batches flowing into the pool
  Opts.MaxQueue = 2 + static_cast<unsigned>(R.nextBelow(8));
  Tensor3D In(1, 1, 1, Layout::CHW);
  In.fillRandom(GetParam());

  std::vector<serve::SubmitTicket> All;
  std::vector<serve::Batch> Held; // popped but not yet fired
  uint64_t ExecutedOk = 0;

  auto fire = [&](serve::Batch &B) {
    for (serve::BatchRequest &Rq : B.Requests) {
      serve::ServeResponse Resp;
      Resp.Status = serve::ServeStatus::Ok;
      Resp.BatchSize = static_cast<unsigned>(B.size());
      Rq.Done.set_value(std::move(Resp)); // throws on double completion
      ++ExecutedOk;
    }
  };

  {
    serve::Batcher Q(Opts, Clk);
    for (int Step = 0; Step < 400; ++Step) {
      switch (R.nextBelow(6)) {
      case 0:
      case 1:
        All.push_back(Q.submit(In));
        break;
      case 2: { // cancel a random ticket -- possibly one sitting in a
                // held batch. Popped requests belong to the worker: the
                // cancel must report failure and must not touch them.
        if (All.empty())
          break;
        uint64_t Id = All[R.nextBelow(All.size())].Id;
        bool InHeld = false;
        for (const serve::Batch &B : Held)
          for (const serve::BatchRequest &Rq : B.Requests)
            InHeld |= (Rq.Id == Id);
        bool DidCancel = Q.cancel(Id);
        if (InHeld)
          EXPECT_FALSE(DidCancel)
              << "cancel stole request " << Id << " from a popped batch";
        break;
      }
      case 3: // pop into the held pool (slow worker picks up work)
        Held.emplace_back();
        if (!Q.tryPop(Held.back()))
          Held.pop_back();
        break;
      case 4: // a held worker finally fires, in random order
        if (!Held.empty()) {
          size_t Pick = R.nextBelow(Held.size());
          fire(Held[Pick]);
          Held.erase(Held.begin() + static_cast<long>(Pick));
        }
        break;
      case 5:
        Clk.advance(static_cast<serve::TimeNs>(R.nextBelow(serve::nsPerMs)));
        break;
      }
    }

    Q.close();
    serve::Batch B;
    while (Q.tryPop(B))
      fire(B);
    for (serve::Batch &HB : Held)
      fire(HB);
    Held.clear();

    serve::BatcherStats S = Q.stats();
    EXPECT_EQ(S.Submitted, All.size());
    EXPECT_EQ(S.Admitted, S.BatchedRequests + S.Cancelled + S.ExpiredInQueue);
    EXPECT_EQ(S.BatchedRequests, ExecutedOk);
  }

  uint64_t SawOk = 0;
  for (serve::SubmitTicket &T : All) {
    ASSERT_TRUE(T.Response.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)
        << "lost request " << T.Id;
    if (T.Response.get().ok())
      ++SawOk;
  }
  EXPECT_EQ(SawOk, ExecutedOk);
}

// Destroy the batcher with requests still queued (no shutdown drain).
// The destructor must resolve every orphan exactly once and credit them
// to AbandonedAtShutdown -- not RejectedShutdown, which would double-count
// them against Submitted -- so both conservation identities hold even on
// the no-drain exit path.
TEST_P(BatcherFuzz, AbandonedRequestsResolveOnceAndConserveCounts) {
  Rng R(GetParam() * 104729 + 3);
  serve::VirtualClock Clk;
  serve::BatcherOptions Opts;
  Opts.MaxBatch = 1 + static_cast<unsigned>(R.nextBelow(4));
  Opts.MaxDelayNs =
      static_cast<serve::TimeNs>(1 + R.nextBelow(5)) * serve::nsPerMs;
  Opts.MaxQueue = 1 + static_cast<unsigned>(R.nextBelow(8));
  Tensor3D In(1, 1, 1, Layout::CHW);
  In.fillRandom(GetParam());

  std::vector<serve::SubmitTicket> All;
  uint64_t ExecutedOk = 0;
  serve::BatcherStats S;

  {
    serve::Batcher Q(Opts, Clk);
    for (int Step = 0; Step < 200; ++Step) {
      switch (R.nextBelow(5)) {
      case 0:
      case 1:
      case 2: // bias toward submits so the queue is non-empty at death
        All.push_back(Q.submit(In));
        break;
      case 3:
        if (!All.empty())
          Q.cancel(All[R.nextBelow(All.size())].Id);
        break;
      case 4: {
        serve::Batch B;
        if (Q.tryPop(B)) {
          for (serve::BatchRequest &Rq : B.Requests) {
            serve::ServeResponse Resp;
            Resp.Status = serve::ServeStatus::Ok;
            Rq.Done.set_value(std::move(Resp));
            ++ExecutedOk;
          }
        }
        break;
      }
      }
    }
    S = Q.stats();
    // No close(), no drain: the destructor abandons whatever is queued.
  }

  uint64_t Abandoned = 0;
  for (serve::SubmitTicket &T : All) {
    ASSERT_TRUE(T.Response.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)
        << "destructor lost request " << T.Id;
    serve::ServeResponse Resp = T.Response.get();
    if (Resp.ok())
      continue;
    if (Resp.Status == serve::ServeStatus::RejectedShutdown)
      ++Abandoned;
  }

  // The pre-destruction snapshot misses only the abandonment credit;
  // reconstruct it from the observed terminal statuses.
  EXPECT_EQ(S.AbandonedAtShutdown, 0u);
  EXPECT_EQ(S.Submitted, All.size());
  EXPECT_EQ(S.Admitted, S.BatchedRequests + S.Cancelled + S.ExpiredInQueue +
                            Abandoned);
  EXPECT_EQ(S.Submitted,
            S.Admitted + S.RejectedQueueFull + S.RejectedShutdown +
                (S.RejectedDeadline - S.ExpiredInQueue));
  EXPECT_EQ(S.BatchedRequests, ExecutedOk);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatcherFuzz,
                         ::testing::Range<uint64_t>(1, 33));

} // namespace
