//===- tests/sparse_test.cpp - sparsity extension tests -------------------===//
//
// Tests for the paper's §8 future-work extension: sparsity-exploiting
// primitives plus the kernel-sparsity-ratio scenario parameter, selected
// for by the unchanged PBQP formulation.
//
//===----------------------------------------------------------------------===//

#include "core/Strategies.h"
#include "cost/AnalyticModel.h"
#include "cost/Profiler.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "primitives/Reference.h"
#include "primitives/Registry.h"
#include "runtime/Executor.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  static PrimitiveLibrary L = buildFullLibrary();
  return L;
}

TEST(Scenario, SparsityInKeyAndEquality) {
  ConvScenario Dense{16, 14, 14, 1, 3, 16, 1};
  ConvScenario Sparse = Dense;
  Sparse.SparsityPct = 80;
  EXPECT_FALSE(Dense == Sparse);
  EXPECT_NE(ConvScenarioHash{}(Dense), ConvScenarioHash{}(Sparse));
  // Dense keys keep the historical format (shipped cost tables stay valid).
  EXPECT_EQ(Dense.key(), "c16_h14_w14_s1_k3_m16_p1");
  EXPECT_EQ(Sparse.key(), "c16_h14_w14_s1_k3_m16_p1_sp80");
  EXPECT_DOUBLE_EQ(Sparse.density(), 0.2);
}

TEST(Kernel, ApplySparsityIsDeterministicAndApproximate) {
  Kernel4D A(8, 8, 3), B(8, 8, 3);
  A.fillRandom(5);
  B.fillRandom(5);
  A.applySparsity(70, 9);
  B.applySparsity(70, 9);
  int64_t Zeros = 0;
  for (int64_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A.data()[I], B.data()[I]);
    if (A.data()[I] == 0.0f)
      ++Zeros;
  }
  double Ratio = static_cast<double>(Zeros) / static_cast<double>(A.size());
  EXPECT_NEAR(Ratio, 0.7, 0.1);
  // Zero percent is the identity.
  Kernel4D C(4, 4, 3);
  C.fillRandom(6);
  Kernel4D D(4, 4, 3);
  D.fillRandom(6);
  C.applySparsity(0, 1);
  for (int64_t I = 0; I < C.size(); ++I)
    EXPECT_EQ(C.data()[I], D.data()[I]);
}

/// Correctness of the sparse routines against the reference on weights of
/// varying sparsity.
class SparseCorrectness
    : public ::testing::TestWithParam<std::tuple<const char *, int>> {};

TEST_P(SparseCorrectness, MatchesReference) {
  auto [Name, Sparsity] = std::make_pair(std::get<0>(GetParam()),
                                         std::get<1>(GetParam()));
  ConvScenario S{6, 13, 11, 1, 3, 8, 1};
  S.SparsityPct = Sparsity;
  const ConvPrimitive &P = *[&] {
    auto Id = lib().findByName(Name);
    EXPECT_TRUE(Id.has_value());
    return &lib().get(*Id);
  }();
  ASSERT_TRUE(P.supports(S));

  Tensor3D In(S.C, S.H, S.W, Layout::CHW);
  In.fillRandom(31);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(32);
  W.applySparsity(S.SparsityPct, 33);

  Tensor3D Want(S.M, S.outHeight(), S.outWidth(), Layout::CHW);
  referenceConv(S, In, W, Want);

  Tensor3D Got(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  auto Inst = P.instantiate(S, W);
  RunContext Ctx{nullptr};
  Inst->run(In, Got, Ctx);
  EXPECT_LE(maxAbsDifference(Want, Got), 1e-3f);
}

TEST_P(SparseCorrectness, StridedAndPaddedScenarios) {
  auto Name = std::get<0>(GetParam());
  int Sparsity = std::get<1>(GetParam());
  ConvScenario S{4, 15, 15, 2, 5, 6, 2};
  S.SparsityPct = Sparsity;
  auto Id = lib().findByName(Name);
  ASSERT_TRUE(Id.has_value());
  const ConvPrimitive &P = lib().get(*Id);
  ASSERT_TRUE(P.supports(S));

  Tensor3D In(S.C, S.H, S.W, Layout::CHW);
  In.fillRandom(41);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(42);
  W.applySparsity(S.SparsityPct, 43);

  Tensor3D Want(S.M, S.outHeight(), S.outWidth(), Layout::CHW);
  referenceConv(S, In, W, Want);
  Tensor3D Got(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  auto Inst = P.instantiate(S, W);
  RunContext Ctx{nullptr};
  Inst->run(In, Got, Ctx);
  EXPECT_LE(maxAbsDifference(Want, Got), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndRatios, SparseCorrectness,
    ::testing::Combine(::testing::Values("sparse-im2col-chw-chw",
                                         "sparse-direct-chw-chw"),
                       ::testing::Values(0, 25, 50, 80, 95, 100)),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_sp" + std::to_string(std::get<1>(Info.param));
    });

TEST(SparseMeasured, TimeFallsWithSparsity) {
  // The whole point: a sparse routine's measured cost drops as the kernel
  // sparsity rises, while the dense routine's does not (meaningfully).
  ProfilerOptions Opts;
  Opts.Repeats = 3;
  Opts.Warmups = 1;
  MeasuredCostProvider Prov(lib(), Opts);
  PrimitiveId SparseId = *lib().findByName("sparse-im2col-chw-chw");

  ConvScenario Dense{32, 32, 32, 1, 3, 32, 1};
  ConvScenario VerySparse = Dense;
  VerySparse.SparsityPct = 95;

  double DenseTime = Prov.cost({Dense, SparseId}).PerRunMs;
  double SparseTime = Prov.cost({VerySparse, SparseId}).PerRunMs;
  EXPECT_LT(SparseTime, 0.7 * DenseTime)
      << "95% sparse kernels should run much faster through the sparse "
         "routine";
}

TEST(SparseAnalytic, CostMonotonicInSparsity) {
  MachineProfile P = MachineProfile::haswell();
  PrimitiveId Id = *lib().findByName("sparse-im2col-chw-chw");
  ConvScenario S{64, 28, 28, 1, 3, 64, 1};
  double Last = 1e30;
  for (int Sp : {0, 25, 50, 75, 95}) {
    S.SparsityPct = Sp;
    double C = analyticConvCost(lib().get(Id), S, P, 1);
    EXPECT_LT(C, Last) << "sparsity " << Sp;
    Last = C;
  }
}

TEST(SparseAnalytic, DenseWinsAtZeroSparseWinsWhenVerySparse) {
  MachineProfile P = MachineProfile::haswell();
  PrimitiveId Sparse = *lib().findByName("sparse-im2col-chw-chw");
  PrimitiveId Dense = *lib().findByName("im2col-b-chw-chw");
  ConvScenario S{64, 28, 28, 1, 3, 64, 1};

  S.SparsityPct = 0;
  EXPECT_LT(analyticConvCost(lib().get(Dense), S, P, 1),
            analyticConvCost(lib().get(Sparse), S, P, 1));

  S.SparsityPct = 95;
  EXPECT_LT(analyticConvCost(lib().get(Sparse), S, P, 1),
            analyticConvCost(lib().get(Dense), S, P, 1));
}

TEST(SparseSelection, PBQPPicksSparseOnlyForSparseLayers) {
  // A two-conv chain where one layer has 95% sparse kernels: the optimizer
  // should route that layer (and only that layer) to the sparse family.
  NetworkGraph Net("sparse-demo");
  auto In = Net.addInput("data", {16, 32, 32});
  auto C1 = Net.addLayer(Layer::conv("dense_conv", 32, 3, 1, 1, 0), {In});
  auto C2 =
      Net.addLayer(Layer::conv("sparse_conv", 32, 3, 1, 1, 95), {C1});
  (void)C2;

  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  SelectionResult R = optimizeNetwork(Net, lib(), Prov);
  ASSERT_TRUE(R.Solver.ProvablyOptimal);
  auto Convs = Net.convNodes();
  EXPECT_NE(lib().get(R.Plan.ConvPrim[Convs[0]]).family(),
            ConvFamily::Sparse);
  EXPECT_EQ(lib().get(R.Plan.ConvPrim[Convs[1]]).family(),
            ConvFamily::Sparse);
}

TEST(SparseSelection, ExecutionStillMatchesReference) {
  // End-to-end: a network containing a sparse layer executes and matches
  // its sum2d instantiation (weights are sparsified identically).
  NetworkGraph Net("sparse-exec");
  auto In = Net.addInput("data", {8, 20, 20});
  auto C1 = Net.addLayer(Layer::conv("c1", 16, 3, 1, 1, 90), {In});
  auto R1 = Net.addLayer(Layer::relu("r1"), {C1});
  auto C2 = Net.addLayer(Layer::conv("c2", 8, 3, 1, 1, 0), {R1});
  (void)C2;

  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  NetworkPlan Ref = planForStrategy(Strategy::Sum2D, Net, lib(), Prov);
  SelectionResult Opt = optimizeNetwork(Net, lib(), Prov);

  Tensor3D Input(8, 20, 20, Layout::CHW);
  Input.fillRandom(3);
  Executor RefExec(Net, Ref, lib());
  RefExec.run(Input);
  Executor OptExec(Net, Opt.Plan, lib());
  OptExec.run(Input);
  EXPECT_LE(
      maxAbsDifference(RefExec.networkOutput(), OptExec.networkOutput()),
      5e-3f);
}

TEST(Registry, SparseFamilyRegistered) {
  unsigned Count = 0;
  for (PrimitiveId Id = 0; Id < lib().size(); ++Id)
    if (lib().get(Id).family() == ConvFamily::Sparse)
      ++Count;
  EXPECT_EQ(Count, 2u);
}

} // namespace
