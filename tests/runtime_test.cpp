//===- tests/runtime_test.cpp - execution plan + executor tests -----------===//

#include "runtime/ExecutionPlan.h"
#include "runtime/Executor.h"

#include "core/Selector.h"
#include "core/Strategies.h"
#include "cost/AnalyticModel.h"
#include "nn/Models.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  static PrimitiveLibrary L = buildFullLibrary();
  return L;
}

AnalyticCostProvider makeProvider() {
  return AnalyticCostProvider(lib(), MachineProfile::haswell(), 1);
}

Tensor3D makeInput(const NetworkGraph &Net, uint64_t Seed = 5) {
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(Seed);
  return In;
}

TEST(ExecutionPlan, CompilesAllNodes) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::Sum2D, Net, lib(), Prov);
  ExecutionPlan P = ExecutionPlan::compile(Net, Plan, lib());
  EXPECT_EQ(P.numConvSteps(), Net.convNodes().size());
  EXPECT_EQ(P.numTransformSteps(), 0u); // sum2d plan is all-CHW
  // Every node appears exactly once as a non-transform step.
  EXPECT_EQ(P.steps().size(), Net.numNodes());
}

TEST(ExecutionPlan, EmitsTransformStepsForChains) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::MkldnnLike, Net, lib(), Prov);
  ExecutionPlan P = ExecutionPlan::compile(Net, Plan, lib());
  // The HWC-pinned strategy needs at least the CHW->HWC entry conversion.
  EXPECT_GT(P.numTransformSteps(), 0u);
  unsigned ChainHops = 0;
  for (const auto &[Edge, Chain] : Plan.Chains)
    ChainHops += static_cast<unsigned>(Chain.size() - 1);
  EXPECT_EQ(P.numTransformSteps(), ChainHops);
}

TEST(ExecutionPlan, DumpMentionsPrimitiveNames) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  SelectionResult R = selectPBQP(Net, lib(), Prov);
  std::string Listing =
      R.Plan.Chains.empty()
          ? ExecutionPlan::compile(Net, R.Plan, lib()).dump(Net, R.Plan,
                                                            lib())
          : ExecutionPlan::compile(Net, R.Plan, lib()).dump(Net, R.Plan,
                                                            lib());
  for (auto N : Net.convNodes())
    EXPECT_NE(Listing.find(lib().get(R.Plan.ConvPrim[N]).name()),
              std::string::npos);
}

TEST(Executor, Sum2DPlanProducesFiniteOutput) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::Sum2D, Net, lib(), Prov);
  Executor Exec(Net, Plan, lib());
  RunResult R = Exec.run(makeInput(Net));
  EXPECT_GT(R.TotalMillis, 0.0);
  const Tensor3D &Out = Exec.networkOutput();
  EXPECT_EQ(Out.channels(), 10);
  float Sum = 0.0f;
  for (int64_t I = 0; I < Out.size(); ++I) {
    EXPECT_TRUE(std::isfinite(Out.data()[I]));
    Sum += Out.data()[I];
  }
  EXPECT_NEAR(Sum, 1.0f, 1e-3f); // softmax output
}

/// Whole-network functional equivalence: any strategy's instantiation must
/// compute the same function as the sum2d reference instantiation.
class StrategyEquivalence : public ::testing::TestWithParam<Strategy> {};

TEST_P(StrategyEquivalence, MatchesSum2DReferenceOnChain) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(20);
  Tensor3D In = makeInput(Net);

  NetworkPlan RefPlan = planForStrategy(Strategy::Sum2D, Net, lib(), Prov);
  Executor Ref(Net, RefPlan, lib());
  Ref.run(In);

  NetworkPlan Plan = planForStrategy(GetParam(), Net, lib(), Prov);
  Executor Exec(Net, Plan, lib());
  Exec.run(In);

  EXPECT_LE(maxAbsDifference(Ref.networkOutput(), Exec.networkOutput()),
            5e-3f)
      << strategyName(GetParam());
}

TEST_P(StrategyEquivalence, MatchesSum2DReferenceOnDag) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(18);
  Tensor3D In = makeInput(Net, 9);

  NetworkPlan RefPlan = planForStrategy(Strategy::Sum2D, Net, lib(), Prov);
  Executor Ref(Net, RefPlan, lib());
  Ref.run(In);

  NetworkPlan Plan = planForStrategy(GetParam(), Net, lib(), Prov);
  Executor Exec(Net, Plan, lib());
  Exec.run(In);

  EXPECT_LE(maxAbsDifference(Ref.networkOutput(), Exec.networkOutput()),
            5e-3f)
      << strategyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalence,
    ::testing::Values(Strategy::FamilyDirect, Strategy::FamilyIm2,
                      Strategy::FamilyKn2, Strategy::FamilyWinograd,
                      Strategy::FamilyFFT, Strategy::LocalOptimalCHW,
                      Strategy::Greedy, Strategy::PBQP, Strategy::CaffeLike,
                      Strategy::MkldnnLike, Strategy::ArmclLike),
    [](const auto &Info) {
      std::string Name = strategyName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(Executor, MultithreadedMatchesSingleThreaded) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(18);
  Tensor3D In = makeInput(Net, 3);
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);

  Executor Single(Net, Plan, lib(), 1);
  Single.run(In);
  Executor Multi(Net, Plan, lib(), 4);
  Multi.run(In);
  EXPECT_LE(
      maxAbsDifference(Single.networkOutput(), Multi.networkOutput()),
      1e-3f);
}

TEST(Executor, TimingBreakdownSumsSensibly) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(24);
  NetworkPlan Plan = planForStrategy(Strategy::PBQP, Net, lib(), Prov);
  Executor Exec(Net, Plan, lib());
  RunResult R = Exec.run(makeInput(Net));
  EXPECT_GE(R.ConvMillis, 0.0);
  EXPECT_GE(R.TransformMillis, 0.0);
  EXPECT_GE(R.OtherMillis, 0.0);
  EXPECT_LE(R.ConvMillis + R.TransformMillis + R.OtherMillis,
            R.TotalMillis + 1.0);
}

TEST(Executor, RepeatedRunsAreConsistent) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  Executor Exec(Net, Plan, lib());
  Tensor3D In = makeInput(Net);
  Exec.run(In);
  Tensor3D First(Exec.networkOutput().channels(),
                 Exec.networkOutput().height(),
                 Exec.networkOutput().width(),
                 Exec.networkOutput().layout());
  runTransform(Exec.networkOutput(), First);
  Exec.run(In);
  EXPECT_EQ(maxAbsDifference(First, Exec.networkOutput()), 0.0f);
}

/// Shared harness for the arena/parallel equivalence tests: run the same
/// plan through the plain executor and the given serving configuration and
/// require bit-identical outputs plus a strictly smaller peak footprint
/// for the arena.
void expectServingConfigMatches(const NetworkGraph &Net,
                                const ExecutorOptions &Config) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  Tensor3D In = makeInput(Net, 21);

  Executor Ref(Net, Plan, lib());
  Ref.run(In);
  Executor Exec(Net, Plan, lib(), Config);
  Exec.run(In);

  EXPECT_EQ(maxAbsDifference(Ref.networkOutput(), Exec.networkOutput()),
            0.0f);
  if (Config.UseArena) {
    EXPECT_GT(Exec.compiled().memoryPlan().NumArenaValues, 0u);
    EXPECT_LT(Exec.peakIntermediateBytes(), Ref.peakIntermediateBytes());
  }
}

TEST(MemoryPlanner, ArenaMatchesFreshAllocationOnAlexNet) {
  ExecutorOptions Config;
  Config.UseArena = true;
  expectServingConfigMatches(alexNet(0.18), Config);
}

TEST(MemoryPlanner, ArenaMatchesFreshAllocationOnGoogLeNet) {
  ExecutorOptions Config;
  Config.UseArena = true;
  expectServingConfigMatches(googLeNet(0.18), Config);
}

TEST(MemoryPlanner, ParallelBranchesMatchOnGoogLeNet) {
  ExecutorOptions Config;
  Config.UseArena = true;
  Config.Threads = 4;
  Config.ParallelBranches = true;
  expectServingConfigMatches(googLeNet(0.18), Config);
}

TEST(MemoryPlanner, ParallelBranchesMatchOnDag) {
  ExecutorOptions Config;
  Config.Threads = 4;
  Config.ParallelBranches = true;
  expectServingConfigMatches(tinyDag(18), Config);
}

TEST(MemoryPlanner, LifetimesNeverOverlapInArena) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(18);
  NetworkPlan Plan = planForStrategy(Strategy::MkldnnLike, Net, lib(), Prov);
  ExecutionPlan Program = ExecutionPlan::compile(Net, Plan, lib());
  MemoryPlan MP = planMemory(Net, Plan, Program);

  // Values with overlapping [def, last-use] level ranges must occupy
  // disjoint arena extents.
  for (size_t A = 0; A < MP.Values.size(); ++A) {
    for (size_t B = A + 1; B < MP.Values.size(); ++B) {
      const ValueInfo &VA = MP.Values[A];
      const ValueInfo &VB = MP.Values[B];
      if (!VA.inArena() || !VB.inArena())
        continue;
      if (VA.DefLevel > VB.LastUseLevel || VB.DefLevel > VA.LastUseLevel)
        continue; // disjoint lifetimes may share bytes
      bool Disjoint = VA.ArenaOffset + VA.Floats <= VB.ArenaOffset ||
                      VB.ArenaOffset + VB.Floats <= VA.ArenaOffset;
      EXPECT_TRUE(Disjoint) << "values " << A << " and " << B
                            << " alias while both live";
    }
  }
  // Network outputs stay out of the arena so they survive the run.
  for (NetworkGraph::NodeId N : Net.outputs())
    EXPECT_FALSE(MP.Values[MP.NodeValue[N]].inArena());
  // And the arena never grows past what per-layer allocation pays.
  EXPECT_LT(MP.arenaBytes() + MP.persistentBytes(), MP.BaselineBytes);
}

TEST(MemoryPlanner, LevelScheduleRespectsDependencies) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(18);
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  ExecutionPlan Program = ExecutionPlan::compile(Net, Plan, lib());
  MemoryPlan MP = planMemory(Net, Plan, Program);

  ASSERT_EQ(MP.Produced.size(), Program.steps().size());
  unsigned Counted = 0;
  for (unsigned L = 0; L < MP.Levels.size(); ++L) {
    EXPECT_FALSE(MP.Levels[L].empty());
    for (unsigned S : MP.Levels[L]) {
      EXPECT_EQ(MP.StepLevel[S], L);
      ++Counted;
    }
  }
  EXPECT_EQ(Counted, Program.steps().size());
  // Every non-input step reads only values defined at strictly lower
  // levels.
  for (unsigned S = 0; S < Program.steps().size(); ++S) {
    const ExecStep &Step = Program.steps()[S];
    if (Step.K == ExecStep::Kind::Transform)
      EXPECT_LT(MP.Values[MP.TransformSrc[S]].DefLevel, MP.StepLevel[S]);
    if (Step.K == ExecStep::Kind::Conv || Step.K == ExecStep::Kind::Dummy)
      for (unsigned I = 0; I < Net.node(Step.Node).Inputs.size(); ++I)
        EXPECT_LT(MP.Values[MP.inputValue(Net, Step.Node, I)].DefLevel,
                  MP.StepLevel[S]);
  }
}

/// The step (Conv/Dummy/Input) that executes node \p N.
unsigned stepOfNode(const ExecutionPlan &Program, NetworkGraph::NodeId N) {
  for (unsigned S = 0; S < Program.steps().size(); ++S)
    if (Program.steps()[S].Node == N &&
        Program.steps()[S].K != ExecStep::Kind::Transform)
      return S;
  ADD_FAILURE() << "node " << N << " has no executing step";
  return 0;
}

/// No-alias invariant of a memory plan: arena values with overlapping
/// [def, last-use] level ranges occupy disjoint extents, and network
/// outputs stay out of the arena.
void expectNoAliasing(const NetworkGraph &Net, const MemoryPlan &MP,
                      uint64_t Seed) {
  for (size_t A = 0; A < MP.Values.size(); ++A)
    for (size_t B = A + 1; B < MP.Values.size(); ++B) {
      const ValueInfo &VA = MP.Values[A];
      const ValueInfo &VB = MP.Values[B];
      if (!VA.inArena() || !VB.inArena())
        continue;
      if (VA.DefLevel > VB.LastUseLevel || VB.DefLevel > VA.LastUseLevel)
        continue;
      bool Disjoint = VA.ArenaOffset + VA.Floats <= VB.ArenaOffset ||
                      VB.ArenaOffset + VB.Floats <= VA.ArenaOffset;
      EXPECT_TRUE(Disjoint) << "values " << A << " and " << B
                            << " alias while both live (seed " << Seed
                            << ")";
    }
  for (NetworkGraph::NodeId N : Net.outputs())
    EXPECT_FALSE(MP.Values[MP.NodeValue[N]].inArena());
}

TEST(MemoryPlanner, MultiConsumerValueLivesToItsLastConsumer) {
  // A residual diamond: the block input feeds both the conv body and the
  // skip Add, so its bytes must stay intact until the *last* consumer's
  // level -- recycling after the first consumer would corrupt the skip.
  NetworkGraph Net("residual-diamond");
  NetworkGraph::NodeId In = Net.addInput("data", {4, 12, 12});
  NetworkGraph::NodeId Stem =
      Net.addLayer(Layer::conv("stem", 6, 3, 1, 1), {In});
  NetworkGraph::NodeId C1 =
      Net.addLayer(Layer::conv("body1", 6, 3, 1, 1), {Stem});
  NetworkGraph::NodeId R1 = Net.addLayer(Layer::relu("relu1"), {C1});
  NetworkGraph::NodeId C2 =
      Net.addLayer(Layer::conv("body2", 6, 3, 1, 1), {R1});
  NetworkGraph::NodeId Sum = Net.addLayer(Layer::add("add"), {C2, Stem});
  Net.addLayer(Layer::globalAvgPool("gap"), {Sum});

  AnalyticCostProvider Prov = makeProvider();
  NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
  ExecutionPlan Program = ExecutionPlan::compile(Net, Plan, lib());
  MemoryPlan MP = planMemory(Net, Plan, Program);

  // The stem's value must be live at least until the Add executes, even
  // though the body consumed it several levels earlier. (When the skip
  // edge is legalized, the chain's first hop is the consumer that pins the
  // lifetime instead; both cases are covered by "some step at the Add's
  // level or later still reads it".)
  unsigned AddLevel = MP.StepLevel[stepOfNode(Program, Sum)];
  unsigned BodyLevel = MP.StepLevel[stepOfNode(Program, C1)];
  EXPECT_GT(AddLevel, BodyLevel);
  const ValueInfo &StemValue = MP.Values[MP.NodeValue[Stem]];
  bool SkipLegalized = Plan.Chains.count({Sum, 1}) != 0;
  if (!SkipLegalized)
    EXPECT_GE(StemValue.LastUseLevel, AddLevel);
  else
    EXPECT_GE(StemValue.LastUseLevel, BodyLevel);
  expectNoAliasing(Net, MP, 0);

  // And the executed diamond agrees bit-for-bit between arena and plain.
  ExecutorOptions Config;
  Config.UseArena = true;
  expectServingConfigMatches(Net, Config);
}

TEST(MemoryPlanner, NoAliasPropertyOverRandomResidualGraphs) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    NetworkGraph Net = randomResidualNetwork(Seed, 16, 2);
    AnalyticCostProvider Prov = makeProvider();
    NetworkPlan Plan = planForStrategy(Strategy::Greedy, Net, lib(), Prov);
    ExecutionPlan Program = ExecutionPlan::compile(Net, Plan, lib());
    MemoryPlan MP = planMemory(Net, Plan, Program);
    expectNoAliasing(Net, MP, Seed);
  }
}

TEST(MemoryPlanner, ArenaMatchesFreshAllocationOnResNet18) {
  ExecutorOptions Config;
  Config.UseArena = true;
  expectServingConfigMatches(resNet18(0.1), Config);
}

TEST(MemoryPlanner, ParallelBranchesMatchOnMobileNet) {
  ExecutorOptions Config;
  Config.UseArena = true;
  Config.Threads = 4;
  Config.ParallelBranches = true;
  expectServingConfigMatches(mobileNet(0.1), Config);
}

TEST(Executor, RepeatedArenaRunsAreConsistent) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::MkldnnLike, Net, lib(), Prov);
  ExecutorOptions Config;
  Config.UseArena = true;
  Executor Exec(Net, Plan, lib(), Config);
  Tensor3D In = makeInput(Net);
  Exec.run(In);
  Tensor3D First = convertToLayout(Exec.networkOutput(),
                                   Exec.networkOutput().layout());
  Exec.run(In);
  EXPECT_EQ(maxAbsDifference(First, Exec.networkOutput()), 0.0f);
}

TEST(Executor, DifferentWeightSeedsDiffer) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(16);
  NetworkPlan Plan = planForStrategy(Strategy::Sum2D, Net, lib(), Prov);
  Tensor3D In = makeInput(Net);
  Executor A(Net, Plan, lib(), 1, /*WeightSeed=*/1);
  Executor B(Net, Plan, lib(), 1, /*WeightSeed=*/2);
  A.run(In);
  B.run(In);
  EXPECT_GT(maxAbsDifference(A.networkOutput(), B.networkOutput()), 0.0f);
}

} // namespace
