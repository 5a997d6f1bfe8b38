//===- tests/compiled_net_test.cpp - compile/run split tests --------------===//
//
// The compile-once/serve-many stack: PreparedKernel sharing semantics, the
// CompiledNet artifact, concurrent multi-context serving (N threads over
// one artifact must be bit-identical to the sequential Executor -- this is
// the suite the ThreadSanitizer CI job runs), and the serving-mode cost
// split (AmortizeWeightTransforms must never make the selected plan's
// per-inference cost worse).
//
//===----------------------------------------------------------------------===//

#include "engine/CompiledNet.h"

#include "core/Legalizer.h"
#include "cost/AnalyticModel.h"
#include "cost/CostDatabase.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

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

/// Serving-mode selection over \p Net; asserts a non-empty plan.
SelectionResult optimizeAmortized(const NetworkGraph &Net,
                                  CostProvider &Prov) {
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  Engine Eng(lib(), Prov, EOpts);
  SelectionResult R = Eng.optimize(Net);
  EXPECT_FALSE(R.Plan.empty());
  return R;
}

//===----------------------------------------------------------------------===//
// PreparedKernel semantics
//===----------------------------------------------------------------------===//

TEST(PreparedKernel, BindReusesOnePrepareBitIdentically) {
  // Families with real weight-side transforms: one prepare, many binds,
  // and the one-shot instantiate() path, all computing the same function.
  const char *Names[] = {"wino2d-m4r3-vf8-chw-chw", "im2col-b-chw-chw",
                         "fft1d-kc-chw-chw", "kn2row-as-b-chw-chw",
                         "sparse-im2col-chw-chw"};
  ConvScenario S;
  S.C = 4;
  S.H = 12;
  S.W = 12;
  S.K = 3;
  S.M = 6;
  S.Stride = 1;
  S.Pad = 1;
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(3);
  Tensor3D In(S.C, S.H, S.W, Layout::CHW);
  In.fillRandom(7);

  for (const char *Name : Names) {
    std::optional<PrimitiveId> Id = lib().findByName(Name);
    ASSERT_TRUE(Id) << Name;
    const ConvPrimitive &P = lib().get(*Id);
    ASSERT_TRUE(P.supports(S)) << Name;

    std::shared_ptr<const PreparedKernel> PK = P.prepare(S, W);
    ASSERT_NE(PK, nullptr) << Name;
    EXPECT_GT(PK->bytes(), 0u) << Name;

    Tensor3D OutA(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
    Tensor3D OutB(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
    Tensor3D OutC(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
    RunContext Ctx;
    P.bind(S, PK)->run(In, OutA, Ctx);
    P.bind(S, PK)->run(In, OutB, Ctx); // second bind, same kernel
    P.instantiate(S, W)->run(In, OutC, Ctx);
    EXPECT_EQ(maxAbsDifference(OutA, OutB), 0.0f) << Name;
    EXPECT_EQ(maxAbsDifference(OutA, OutC), 0.0f) << Name;
  }
}

TEST(PreparedKernel, ConcurrentBindsShareOneKernel) {
  // Many threads binding and running against one PreparedKernel: the
  // artifact is read-only, the scratch is per-instance.
  std::optional<PrimitiveId> Id = lib().findByName("im2row-b-hwc-hwc");
  ASSERT_TRUE(Id);
  const ConvPrimitive &P = lib().get(*Id);
  ConvScenario S;
  S.C = 8;
  S.H = 10;
  S.W = 10;
  S.K = 3;
  S.M = 8;
  S.Pad = 1;
  ASSERT_TRUE(P.supports(S));
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(11);
  Tensor3D In(S.C, S.H, S.W, P.inputLayout());
  In.fillRandom(13);

  std::shared_ptr<const PreparedKernel> PK = P.prepare(S, W);
  Tensor3D Expected(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  RunContext Ctx;
  P.bind(S, PK)->run(In, Expected, Ctx);

  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < 4; ++I) {
        Tensor3D Out(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
        RunContext C;
        P.bind(S, PK)->run(In, Out, C);
        if (maxAbsDifference(Out, Expected) != 0.0f)
          ++Mismatches;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

//===----------------------------------------------------------------------===//
// CompiledNet artifact
//===----------------------------------------------------------------------===//

TEST(CompiledNet, ArtifactIsSelfContainedAndReportsPrepareWork) {
  AnalyticCostProvider Prov = makeProvider();
  std::shared_ptr<const CompiledNet> CN;
  SelectionResult R; // outlives nothing -- the artifact must not care
  {
    NetworkGraph Net = resNet18(0.10);
    R = optimizeAmortized(Net, Prov);
    EngineOptions EOpts;
    EOpts.AmortizeWeightTransforms = true;
    Engine Eng(lib(), Prov, EOpts);
    CN = Eng.compile(Net, R);
    // Net goes out of scope here: CompiledNet owns its graph copy.
  }
  ASSERT_NE(CN, nullptr);
  EXPECT_EQ(CN->numPreparedKernels(), CN->graph().convNodes().size());
  EXPECT_GT(CN->preparedBytes(), 0u);
  EXPECT_GE(CN->prepareMillis(), 0.0);
  EXPECT_EQ(CN->program().numConvSteps(), CN->graph().convNodes().size());

  // Serving from the artifact after the source graph is gone.
  Tensor3D In = makeInput(CN->graph());
  std::unique_ptr<ExecutionContext> Ctx = CN->newContext();
  Ctx->run(In);
  EXPECT_GT(Ctx->networkOutput().size(), 0);
}

TEST(CompiledNet, ExecutorFacadeSharesTheArtifact) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyDag(24);
  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  ASSERT_FALSE(R.Plan.empty());

  Executor Exec(Net, R.Plan, lib());

  Tensor3D In = makeInput(Net);
  Exec.run(In);

  // A context opened on the executor's own artifact computes the same
  // function -- one execution path, shared prepared kernels.
  std::unique_ptr<ExecutionContext> Ctx = Exec.compiled().newContext();
  Ctx->run(In);
  EXPECT_EQ(maxAbsDifference(Exec.networkOutput(), Ctx->networkOutput()),
            0.0f);
}

//===----------------------------------------------------------------------===//
// Concurrency: N threads serving one CompiledNet (the TSan suite)
//===----------------------------------------------------------------------===//

/// N worker threads, each with its own context under \p CtxOpts, all over
/// one CompiledNet; every output must be bit-identical to the sequential
/// Executor over the same network/plan/seed.
void expectConcurrentlyBitIdentical(const NetworkGraph &Net,
                                    const SelectionResult &R,
                                    const ExecutionContextOptions &CtxOpts,
                                    unsigned Workers,
                                    unsigned RequestsPerWorker) {
  CompileOptions COpts;
  std::shared_ptr<const CompiledNet> CN =
      CompiledNet::build(R.executionGraph(Net), R.Plan, lib(), COpts);
  ASSERT_NE(CN, nullptr);

  // Reference: the plain sequential executor (no arena, no branches, one
  // thread) over the same instantiation.
  Executor Sequential(R.executionGraph(Net), R.Plan, lib());
  Tensor3D In = makeInput(Net, 21);
  Sequential.run(In);
  const Tensor3D &Expected = Sequential.networkOutput();

  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([&] {
      std::unique_ptr<ExecutionContext> Ctx = CN->newContext(CtxOpts);
      for (unsigned I = 0; I < RequestsPerWorker; ++I) {
        Ctx->run(In);
        if (maxAbsDifference(Ctx->networkOutput(), Expected) != 0.0f)
          ++Mismatches;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

/// The arena x parallel-branches grid for one model, 4 serving threads.
void runConcurrencyGrid(const NetworkGraph &Net) {
  AnalyticCostProvider Prov = makeProvider();
  SelectionResult R = optimizeAmortized(Net, Prov);
  const ExecutionContextOptions Grid[] = {
      {1, false, false}, // plain
      {1, true, false},  // arena slab per context
      {2, true, true},   // arena + parallel branches inside each context
  };
  for (const ExecutionContextOptions &CtxOpts : Grid)
    expectConcurrentlyBitIdentical(Net, R, CtxOpts, /*Workers=*/4,
                                   /*RequestsPerWorker=*/2);
}

TEST(CompiledNetConcurrency, ResNet18GridBitIdentical) {
  runConcurrencyGrid(resNet18(0.08));
}

TEST(CompiledNetConcurrency, MobileNetGridBitIdentical) {
  runConcurrencyGrid(mobileNet(0.08));
}

TEST(CompiledNetConcurrency, GoogLeNetGridBitIdentical) {
  runConcurrencyGrid(googLeNet(0.08));
}

//===----------------------------------------------------------------------===//
// Serving-mode cost split
//===----------------------------------------------------------------------===//

TEST(AmortizedCosts, AnalyticBreakdownDecomposesTheTotalExactly) {
  AnalyticCostProvider Prov = makeProvider();
  ConvScenario S;
  S.C = 16;
  S.H = 28;
  S.W = 28;
  S.K = 3;
  S.M = 32;
  S.Stride = 1;
  S.Pad = 1;
  for (PrimitiveId Id : lib().supporting(S)) {
    CostBreakdown B = Prov.cost({S, Id});
    const ConvPrimitive &P = lib().get(Id);
    double Total = analyticConvCost(P, S, MachineProfile::haswell(), 1) +
                   analyticConvPrepareCost(P, S, MachineProfile::haswell());
    EXPECT_GE(B.PerRunMs, 0.0) << lib().get(Id).name();
    EXPECT_GE(B.AmortizedMs, 0.0) << lib().get(Id).name();
    // The analytic breakdown is an exact decomposition of the one-shot
    // total, and the per-run component keeps a real share of it.
    EXPECT_NEAR(B.totalMs(), Total, 1e-9 * Total) << lib().get(Id).name();
    EXPECT_GT(B.PerRunMs, 0.0) << lib().get(Id).name();
  }
}

TEST(AmortizedCosts, WeightTransformFamiliesGainDirectFamiliesDoNot) {
  AnalyticCostProvider Prov = makeProvider();
  ConvScenario S;
  S.C = 16;
  S.H = 28;
  S.W = 28;
  S.K = 3;
  S.M = 32;
  S.Stride = 1;
  S.Pad = 1;
  for (PrimitiveId Id : lib().supporting(S)) {
    const ConvPrimitive &P = lib().get(Id);
    CostBreakdown B = Prov.cost({S, Id});
    switch (P.family()) {
    case ConvFamily::Winograd:
    case ConvFamily::Im2:
    case ConvFamily::Kn2:
      // The selections the motivation names: strictly cheaper per
      // inference once the kernel transform is amortized.
      EXPECT_GT(B.AmortizedMs, 0.0) << P.name();
      EXPECT_LT(B.PerRunMs, B.totalMs()) << P.name();
      break;
    case ConvFamily::Sum2D:
    case ConvFamily::Direct:
      EXPECT_EQ(B.AmortizedMs, 0.0) << P.name();
      break;
    default:
      break; // fft/sparse/quantized covered by the exact-decomposition test
    }
  }
}

TEST(AmortizedCosts, NeverIncreasesSelectedPlanPerInferenceCost) {
  // The satellite guarantee: switching the engine to serving-mode costs
  // must never make the *selected plan's* per-inference cost worse than
  // the plan the totals-based optimize picks.
  std::vector<NetworkGraph> Nets;
  Nets.push_back(alexNet(0.12));
  Nets.push_back(resNet18(0.10));
  Nets.push_back(mobileNet(0.10));
  Nets.push_back(googLeNet(0.10));
  for (const NetworkGraph &Net : Nets) {
    AnalyticCostProvider Prov = makeProvider();

    Engine Plain(lib(), Prov, {});
    SelectionResult R0 = Plain.optimize(Net);
    ASSERT_FALSE(R0.Plan.empty()) << Net.name();

    EngineOptions AOpts;
    AOpts.AmortizeWeightTransforms = true;
    AnalyticCostProvider AProv = makeProvider();
    Engine Amortized(lib(), AProv, AOpts);
    SelectionResult R1 = Amortized.optimize(Net);
    ASSERT_FALSE(R1.Plan.empty()) << Net.name();

    AnalyticCostProvider Meter = makeProvider();
    double PerRun0 =
        modelPlanCostBreakdown(R0.Plan, Net, lib(), Meter).PerRunMs;
    double PerRun1 =
        modelPlanCostBreakdown(R1.Plan, Net, lib(), Meter).PerRunMs;
    EXPECT_LE(PerRun1, PerRun0 + 1e-9) << Net.name();
    // And the engine's own report matches the independent meter.
    EXPECT_NEAR(R1.ModelledPerRunMs, PerRun1, 1e-9 + 1e-9 * PerRun1)
        << Net.name();
  }
}

TEST(AmortizedCosts, ModeJoinsThePlanCacheKey) {
  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(24);
  EngineOptions Plain;
  EngineOptions Serving;
  Serving.AmortizeWeightTransforms = true;
  Engine A(lib(), Prov, Plain);
  Engine B(lib(), Prov, Serving);
  // Same network, same provider, same solver -- different cost identity,
  // so amortized and totals-based plans can never serve each other.
  EXPECT_NE(A.planKey(Net).combined(), B.planKey(Net).combined());
}

//===----------------------------------------------------------------------===//
// Crash/concurrency-safe cache writes
//===----------------------------------------------------------------------===//

TEST(AtomicWrites, CostDatabaseSaveLeavesNoTempAndRoundTripsPrepRecords) {
  std::string Dir = testing::TempDir() + "primsel-costdb-atomic";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Path = Dir + "/costs.txt";

  CostDatabase DB;
  ConvScenario S;
  S.C = 3;
  S.H = 8;
  S.W = 8;
  S.K = 3;
  S.M = 4;
  DB.setConvCost(S, "sum2d", 1.5, 1);
  DB.setPrepareCost(S, "wino2d-m4r3-vf8-chw-chw", 0.25);
  ASSERT_TRUE(DB.save(Path));

  // Atomic publish: the final file exists, no temp litter remains.
  unsigned Files = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    ++Files;
    EXPECT_EQ(E.path().filename().string(), "costs.txt");
  }
  EXPECT_EQ(Files, 1u);

  CostDatabase Loaded;
  ASSERT_TRUE(Loaded.load(Path));
  EXPECT_EQ(Loaded.numPrepareEntries(), 1u);
  ASSERT_TRUE(Loaded.hasPrepareCost(S, "wino2d-m4r3-vf8-chw-chw"));
  EXPECT_DOUBLE_EQ(Loaded.prepareCost(S, "wino2d-m4r3-vf8-chw-chw"), 0.25);
  EXPECT_DOUBLE_EQ(Loaded.convCost(S, "sum2d", 1), 1.5);
  std::filesystem::remove_all(Dir);
}

TEST(AtomicWrites, PlanCacheStoreLeavesNoTempFiles) {
  std::string Dir = testing::TempDir() + "primsel-plancache-atomic";
  std::filesystem::remove_all(Dir);

  AnalyticCostProvider Prov = makeProvider();
  NetworkGraph Net = tinyChain(24);
  EngineOptions EOpts;
  EOpts.PlanCacheDir = Dir;
  Engine Eng(lib(), Prov, EOpts);
  SelectionResult R = Eng.optimize(Net);
  ASSERT_FALSE(R.Plan.empty());
  ASSERT_EQ(Eng.planCacheStats()->StoreFailures, 0u);

  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    EXPECT_EQ(Name.find(".tmp"), std::string::npos) << Name;
  }
  std::filesystem::remove_all(Dir);
}

} // namespace
