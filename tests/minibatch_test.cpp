//===- tests/minibatch_test.cpp - §8 minibatch extension tests ------------===//
//
// The paper's §8 minibatch extension: "this can be encoded with another
// integer parameter to the model (the minibatch size). This would enable
// our optimization approach to select either parallel GEMM or minibatch
// parallelism on a per-layer basis." Covers the scenario encoding, the two
// batch schedules' correctness and equivalence, library composition,
// profiling of batched scenarios, and PBQP selection over a batched
// network.
//
//===----------------------------------------------------------------------===//

#include "batch/Minibatch.h"
#include "cost/AnalyticModel.h"
#include "cost/Profiler.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "primitives/Reference.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace primsel;

namespace {

//===----------------------------------------------------------------------===//
// Scenario encoding
//===----------------------------------------------------------------------===//

TEST(BatchScenario, DefaultBatchKeepsHistoricalKey) {
  ConvScenario S{16, 28, 28, 1, 3, 32, 1};
  EXPECT_EQ(S.Batch, 1);
  EXPECT_EQ(S.key(), "c16_h28_w28_s1_k3_m32_p1");
}

TEST(BatchScenario, BatchedKeyCarriesSuffix) {
  ConvScenario S{16, 28, 28, 1, 3, 32, 1};
  S.Batch = 8;
  EXPECT_EQ(S.key(), "c16_h28_w28_s1_k3_m32_p1_b8");
}

TEST(BatchScenario, EqualityAndHashDistinguishBatch) {
  ConvScenario A{16, 28, 28, 1, 3, 32, 1};
  ConvScenario B = A;
  B.Batch = 4;
  EXPECT_FALSE(A == B);
  EXPECT_NE(ConvScenarioHash()(A), ConvScenarioHash()(B));
  EXPECT_TRUE(B.singleImage() == A);
}

TEST(BatchScenario, MacsScaleLinearlyWithBatch) {
  ConvScenario A{16, 28, 28, 1, 3, 32, 1};
  ConvScenario B = A;
  B.Batch = 4;
  EXPECT_DOUBLE_EQ(B.macs(), 4.0 * A.macs());
}

TEST(BatchScenario, GraphSetBatchAppliesRetroactively) {
  NetworkGraph Net = tinyChain(24);
  EXPECT_EQ(Net.batch(), 1);
  for (NetworkGraph::NodeId N : Net.convNodes())
    EXPECT_EQ(Net.node(N).Scenario.Batch, 1);
  Net.setBatch(4);
  EXPECT_EQ(Net.batch(), 4);
  for (NetworkGraph::NodeId N : Net.convNodes())
    EXPECT_EQ(Net.node(N).Scenario.Batch, 4);
}

//===----------------------------------------------------------------------===//
// Library composition
//===----------------------------------------------------------------------===//

TEST(BatchLibrary, BatchedLibraryTriplesTheRoutineCount) {
  PrimitiveLibrary Base = buildFullLibrary();
  PrimitiveLibrary Batched = buildBatchedLibrary();
  EXPECT_EQ(Batched.size(), 3 * Base.size());
}

TEST(BatchLibrary, AddingVariantsTwiceIsIdempotentForWrappers) {
  PrimitiveLibrary Lib = buildFullLibrary();
  unsigned First = addMinibatchVariants(Lib);
  EXPECT_EQ(First, 2 * (Lib.size() - First));
  // A second call must not wrap the wrappers; it adds nothing because
  // every remaining per-image routine is already wrapped... but the
  // base routines are still per-image, so a second call would duplicate
  // names and is rejected by the duplicate-name assert. Instead verify
  // the wrapper-detection predicate directly.
  unsigned BatchCapable = 0;
  for (PrimitiveId Id = 0; Id < Lib.size(); ++Id)
    if (Lib.get(Id).supportsBatch(2))
      ++BatchCapable;
  EXPECT_EQ(BatchCapable, First);
}

TEST(BatchLibrary, SupportingPartitionsByBatch) {
  PrimitiveLibrary Lib = buildBatchedLibrary();
  ConvScenario PerImage{8, 14, 14, 1, 3, 16, 1};
  ConvScenario Batched = PerImage;
  Batched.Batch = 4;

  for (PrimitiveId Id : Lib.supporting(PerImage))
    EXPECT_TRUE(Lib.get(Id).supportsBatch(1)) << Lib.get(Id).name();
  std::vector<PrimitiveId> BatchedIds = Lib.supporting(Batched);
  ASSERT_FALSE(BatchedIds.empty());
  for (PrimitiveId Id : BatchedIds) {
    EXPECT_TRUE(Lib.get(Id).supportsBatch(4)) << Lib.get(Id).name();
    std::string Name = Lib.get(Id).name();
    EXPECT_TRUE(Name.find("@bser") != std::string::npos ||
                Name.find("@bpar") != std::string::npos)
        << Name;
  }
  // Both schedules appear for every wrapped base routine.
  EXPECT_EQ(BatchedIds.size(), 2 * Lib.supporting(PerImage).size());
}

TEST(BatchLibrary, WrapperDescriptorsAreTransparent) {
  PrimitiveLibrary Lib = buildFullLibrary();
  PrimitiveId BaseId = *Lib.findByName("im2row-b-chw-hwc");
  const ConvPrimitive &Base = Lib.get(BaseId);
  MinibatchPrimitive Ser(Base, BatchPolicy::LayerParallel);
  MinibatchPrimitive Par(Base, BatchPolicy::ImageParallel);

  EXPECT_EQ(Ser.name(), Base.name() + "@bser");
  EXPECT_EQ(Par.name(), Base.name() + "@bpar");
  EXPECT_EQ(Ser.family(), Base.family());
  EXPECT_EQ(Ser.inputLayout(), Base.inputLayout());
  EXPECT_EQ(Ser.outputLayout(), Base.outputLayout());
  EXPECT_STREQ(Ser.libraryTag(), Base.libraryTag());

  ConvScenario S{8, 14, 14, 1, 3, 16, 1};
  S.Batch = 4;
  // Image-parallel holds every image's workspace live at once.
  EXPECT_EQ(Par.workspaceBytes(S), 4 * Ser.workspaceBytes(S));
}

TEST(BatchLibrary, WrappersRejectBatchOne) {
  PrimitiveLibrary Lib = buildFullLibrary();
  MinibatchPrimitive W(Lib.get(Lib.sum2dBaseline()),
                       BatchPolicy::LayerParallel);
  ConvScenario S{4, 10, 10, 1, 3, 4, 1};
  EXPECT_FALSE(W.supports(S));
  S.Batch = 2;
  EXPECT_TRUE(W.supports(S));
}

//===----------------------------------------------------------------------===//
// Schedule correctness
//===----------------------------------------------------------------------===//

struct BatchCase {
  const char *BaseName;
  int64_t Batch;
  unsigned Threads;
};

class BatchScheduleTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchScheduleTest, BothSchedulesMatchPerImageExecution) {
  const BatchCase &Case = GetParam();
  PrimitiveLibrary Lib = buildFullLibrary();
  PrimitiveId BaseId = *Lib.findByName(Case.BaseName);
  const ConvPrimitive &Base = Lib.get(BaseId);

  ConvScenario S{6, 13, 13, 1, 3, 8, 1};
  S.Batch = Case.Batch;
  ASSERT_TRUE(Base.supports(S.singleImage()));

  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(77);

  std::vector<Tensor3D> In;
  std::vector<Tensor3D> Expected;
  auto BaseInst = Base.instantiate(S.singleImage(), W);
  RunContext SingleThreaded;
  for (int64_t B = 0; B < S.Batch; ++B) {
    In.emplace_back(S.C, S.H, S.W, Base.inputLayout());
    In.back().fillRandom(1000 + static_cast<uint64_t>(B));
    Expected.emplace_back(S.M, S.outHeight(), S.outWidth(),
                          Base.outputLayout());
    BaseInst->run(In.back(), Expected.back(), SingleThreaded);
  }

  ThreadPool Pool(Case.Threads);
  RunContext Ctx;
  Ctx.Pool = Case.Threads > 1 ? &Pool : nullptr;

  for (BatchPolicy Policy :
       {BatchPolicy::LayerParallel, BatchPolicy::ImageParallel}) {
    MinibatchPrimitive Wrapper(Base, Policy);
    auto Inst = Wrapper.instantiate(S, W);
    std::vector<Tensor3D> Out;
    for (int64_t B = 0; B < S.Batch; ++B)
      Out.emplace_back(S.M, S.outHeight(), S.outWidth(),
                       Base.outputLayout());
    Inst->runBatch(In, Out, Ctx);
    // Both schedules run the per-image routine on each image, so the bytes
    // match exactly, whatever the pool width or the image-to-lane striding.
    for (int64_t B = 0; B < S.Batch; ++B) {
      const Tensor3D &Got = Out[static_cast<size_t>(B)];
      const Tensor3D &Want = Expected[static_cast<size_t>(B)];
      ASSERT_TRUE(Got.sameShape(Want));
      EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                            static_cast<size_t>(Want.size()) * sizeof(float)),
                0)
          << batchPolicyName(Policy) << " image " << B;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, BatchScheduleTest,
    ::testing::Values(BatchCase{"im2row-b-chw-hwc", 2, 1},
                      BatchCase{"im2row-b-chw-hwc", 4, 4},
                      BatchCase{"kn2row-as-b-chw-chw", 3, 4},
                      BatchCase{"wino2d-m2r3-vf4-chw-chw", 4, 2},
                      BatchCase{"sum2d", 2, 4},
                      // More images than lanes, not a multiple of the
                      // pool width: images stride over the lanes.
                      BatchCase{"im2col-b-chw-chw", 8, 3},
                      BatchCase{"wino2d-m4r3-vf8-chw-chw", 7, 2}),
    [](const ::testing::TestParamInfo<BatchCase> &Info) {
      std::string Name = Info.param.BaseName;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_b" + std::to_string(Info.param.Batch) + "_t" +
             std::to_string(Info.param.Threads);
    });

TEST(BatchSchedule, DefaultRunBatchLoopsOverImages) {
  // The ConvInstance default (no wrapper involved) must also be correct:
  // it is what the profiler relies on for any batch-capable primitive
  // that does not override runBatch.
  PrimitiveLibrary Lib = buildFullLibrary();
  const ConvPrimitive &Base = Lib.get(Lib.sum2dBaseline());
  ConvScenario S{3, 9, 9, 1, 3, 4, 1};
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(5);
  auto Inst = Base.instantiate(S, W);

  std::vector<Tensor3D> In, Out, Expected;
  RunContext Ctx;
  for (int64_t B = 0; B < 3; ++B) {
    In.emplace_back(S.C, S.H, S.W, Base.inputLayout());
    In.back().fillRandom(40 + static_cast<uint64_t>(B));
    Out.emplace_back(S.M, S.outHeight(), S.outWidth(), Base.outputLayout());
    Expected.emplace_back(S.M, S.outHeight(), S.outWidth(),
                          Base.outputLayout());
    referenceConv(S, In.back(), W, Expected.back());
  }
  Inst->runBatch(In, Out, Ctx);
  for (size_t B = 0; B < 3; ++B)
    EXPECT_LE(maxAbsDifference(Out[B], Expected[B]), 1e-3f);
}

//===----------------------------------------------------------------------===//
// Profiling and selection over batched networks
//===----------------------------------------------------------------------===//

TEST(BatchSelection, ProfilerMeasuresBatchedScenarios) {
  PrimitiveLibrary Lib = buildBatchedLibrary();
  MeasuredCostProvider Prov(Lib);
  ConvScenario S{4, 12, 12, 1, 3, 8, 1};
  S.Batch = 3;
  std::vector<PrimitiveId> Ids = Lib.supporting(S);
  ASSERT_FALSE(Ids.empty());
  double Millis = Prov.cost({S, Ids.front()}).PerRunMs;
  EXPECT_GT(Millis, 0.0);
  // Cached on the batched key: a second query returns the same number.
  EXPECT_DOUBLE_EQ(Prov.cost({S, Ids.front()}).PerRunMs, Millis);
}

TEST(BatchSelection, DTTablesWeightTransformsByTheBatch) {
  // A legalizing transform converts every image flowing along the edge, so
  // a batch-4 DT table prices every layout pair at 4x the batch-1 table,
  // along the same cheapest chain.
  PrimitiveLibrary Lib = buildBatchedLibrary();
  AnalyticCostProvider Costs(Lib, MachineProfile::haswell(), 1);
  TensorShape Shape{8, 16, 16};
  DTTable One = DTTable::build(Costs, Shape, 1);
  DTTable Four = DTTable::build(Costs, Shape, 4);
  for (Layout From : AllLayouts)
    for (Layout To : AllLayouts) {
      EXPECT_DOUBLE_EQ(Four.cost(From, To), 4.0 * One.cost(From, To))
          << layoutName(From) << " -> " << layoutName(To);
      EXPECT_EQ(Four.path(From, To), One.path(From, To))
          << layoutName(From) << " -> " << layoutName(To);
    }
}

TEST(BatchSelection, PBQPSelectsPerLayerSchedulesOnBatchedNetwork) {
  NetworkGraph Net = tinyChain(24);
  Net.setBatch(4);
  PrimitiveLibrary Lib = buildBatchedLibrary();
  ProfilerOptions Opts;
  Opts.Threads = 4;
  MeasuredCostProvider Costs(Lib, Opts);

  SelectionResult R = optimizeNetwork(Net, Lib, Costs);
  ASSERT_FALSE(R.Plan.empty());
  EXPECT_TRUE(isLegalized(R.Plan, Net));
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    const ConvPrimitive &P = Lib.get(R.Plan.ConvPrim[N]);
    EXPECT_TRUE(P.supportsBatch(4)) << P.name();
    std::string Name = P.name();
    EXPECT_TRUE(Name.find("@bser") != std::string::npos ||
                Name.find("@bpar") != std::string::npos)
        << Name;
  }
}

} // namespace
