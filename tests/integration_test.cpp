//===- tests/integration_test.cpp - whole-pipeline integration ------------===//
//
// End-to-end runs of the full pipeline (model -> costs -> PBQP -> legalize
// -> execute -> verify) on down-scaled versions of the paper's networks.
//
//===----------------------------------------------------------------------===//

#include "core/Strategies.h"
#include "cost/AnalyticModel.h"
#include "cost/Profiler.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  static PrimitiveLibrary L = buildFullLibrary();
  return L;
}

Tensor3D makeInput(const NetworkGraph &Net, uint64_t Seed = 5) {
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(Seed);
  return In;
}

void expectEquivalentExecution(const NetworkGraph &Net,
                               CostProvider &Costs, float Tol) {
  Tensor3D In = makeInput(Net);
  NetworkPlan RefPlan =
      planForStrategy(Strategy::Sum2D, Net, lib(), Costs);
  Executor Ref(Net, RefPlan, lib());
  Ref.run(In);

  SelectionResult R = optimizeNetwork(Net, lib(), Costs);
  ASSERT_TRUE(R.Solver.ProvablyOptimal);
  Executor Opt(Net, R.Plan, lib());
  RunResult Timing = Opt.run(In);
  EXPECT_GT(Timing.TotalMillis, 0.0);

  EXPECT_LE(maxAbsDifference(Ref.networkOutput(), Opt.networkOutput()), Tol);
}

TEST(Integration, AlexNetAnalyticPipeline) {
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  NetworkGraph Net = alexNet(0.18);
  expectEquivalentExecution(Net, Prov, 2e-2f);
}

TEST(Integration, GoogLeNetDagAnalyticPipeline) {
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  NetworkGraph Net = googLeNet(0.15);
  expectEquivalentExecution(Net, Prov, 5e-2f);
}

TEST(Integration, VggCAnalyticPipelineArmProfile) {
  AnalyticCostProvider Prov(lib(), MachineProfile::cortexA57(), 1);
  NetworkGraph Net = vggC(0.16);
  expectEquivalentExecution(Net, Prov, 5e-2f);
}

TEST(Integration, MeasuredPipelineOnTinyNet) {
  // The real measured path: profile every candidate on the tiny network,
  // select, and verify execution.
  ProfilerOptions Opts;
  Opts.Repeats = 1;
  Opts.Warmups = 0;
  MeasuredCostProvider Prov(lib(), Opts);
  NetworkGraph Net = tinyChain(16);
  expectEquivalentExecution(Net, Prov, 2e-2f);
  EXPECT_GT(Prov.database().numConvEntries(), 0u);
}

TEST(Integration, CostDatabaseShippableAcrossProviders) {
  // Profile once, save, load into a fresh provider, and confirm the same
  // selection falls out -- the paper's "ship the cost tables with the
  // trained model" deployment story (§4).
  ProfilerOptions Opts;
  Opts.Repeats = 1;
  Opts.Warmups = 0;
  NetworkGraph Net = tinyChain(16);

  MeasuredCostProvider First(lib(), Opts);
  SelectionResult A = optimizeNetwork(Net, lib(), First);
  std::string Path = ::testing::TempDir() + "/primsel_integration_db.txt";
  ASSERT_TRUE(First.database().save(Path));

  MeasuredCostProvider Second(lib(), Opts);
  ASSERT_TRUE(Second.database().load(Path));
  SelectionResult B = optimizeNetwork(Net, lib(), Second);
  EXPECT_EQ(A.Plan.ConvPrim, B.Plan.ConvPrim);
  EXPECT_NEAR(A.ModelledCostMs, B.ModelledCostMs, 1e-9);
  std::remove(Path.c_str());
}

TEST(Integration, MultithreadedCostsCanChangeSelection) {
  // The paper solves (S) and (M) independently ("We performed separate
  // single-threaded and multi-threaded cost modelling", §5.2). The
  // formulations must at least both solve optimally.
  AnalyticCostProvider Single(lib(), MachineProfile::haswell(), 1);
  AnalyticCostProvider Multi(lib(), MachineProfile::haswell(), 4);
  NetworkGraph Net = alexNet(0.2);
  SelectionResult S = optimizeNetwork(Net, lib(), Single);
  SelectionResult M = optimizeNetwork(Net, lib(), Multi);
  EXPECT_TRUE(S.Solver.ProvablyOptimal);
  EXPECT_TRUE(M.Solver.ProvablyOptimal);
  EXPECT_LT(M.ModelledCostMs, S.ModelledCostMs);
}

TEST(Integration, SelectionsDifferAcrossArchitectures) {
  // Figure 4's point: Intel and ARM profiles lead to different selections
  // for the same network.
  AnalyticCostProvider Intel(lib(), MachineProfile::haswell(), 1);
  AnalyticCostProvider Arm(lib(), MachineProfile::cortexA57(), 1);
  NetworkGraph Net = vggB(0.25);
  SelectionResult I = optimizeNetwork(Net, lib(), Intel);
  SelectionResult A = optimizeNetwork(Net, lib(), Arm);
  EXPECT_NE(I.Plan.ConvPrim, A.Plan.ConvPrim);
}

} // namespace
