//===- tests/ensemble_test.cpp - §8 multi-library ensemble tests ----------===//
//
// The paper's §8 future-work ensemble extension: selection over the union of
// two primitive libraries. Covers (a) correctness of every hwcnn vendor
// routine against the reference convolution, (b) library tagging and
// filtering on PrimitiveLibrary, (c) the optimality property that an
// ensemble plan is never worse than either library alone under the same cost
// model, and (d) end-to-end execution equivalence of a mixed-library plan.
//
//===----------------------------------------------------------------------===//

#include "core/Strategies.h"
#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "primitives/Reference.h"
#include "primitives/Registry.h"
#include "runtime/Executor.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace primsel;

namespace {

const PrimitiveLibrary &ensembleLibrary() {
  static PrimitiveLibrary Lib = buildEnsembleLibrary();
  return Lib;
}

//===----------------------------------------------------------------------===//
// Library tagging
//===----------------------------------------------------------------------===//

TEST(EnsembleLibrary, FullLibraryHasSingleTag) {
  PrimitiveLibrary Lib = buildFullLibrary();
  std::vector<std::string> Tags = Lib.libraryTags();
  ASSERT_EQ(Tags.size(), 1u);
  EXPECT_EQ(Tags[0], "primsel");
}

TEST(EnsembleLibrary, EnsembleHasBothTags) {
  std::vector<std::string> Tags = ensembleLibrary().libraryTags();
  ASSERT_EQ(Tags.size(), 2u);
  EXPECT_EQ(Tags[0], "primsel");
  EXPECT_EQ(Tags[1], "hwcnn");
}

TEST(EnsembleLibrary, TagPartitionCoversLibrary) {
  const PrimitiveLibrary &Lib = ensembleLibrary();
  size_t Total = 0;
  for (const std::string &Tag : Lib.libraryTags())
    Total += Lib.withTag(Tag).size();
  EXPECT_EQ(Total, Lib.size());
}

TEST(EnsembleLibrary, HwcnnRoutineCountAndFamilies) {
  const PrimitiveLibrary &Lib = ensembleLibrary();
  std::vector<PrimitiveId> Hwc = Lib.withTag("hwcnn");
  EXPECT_EQ(Hwc.size(), 3u);
  for (PrimitiveId Id : Hwc) {
    const ConvPrimitive &P = Lib.get(Id);
    EXPECT_EQ(P.inputLayout(), Layout::HWC) << P.name();
    EXPECT_EQ(P.outputLayout(), Layout::HWC) << P.name();
    EXPECT_TRUE(P.family() == ConvFamily::Im2 ||
                P.family() == ConvFamily::Direct)
        << P.name();
  }
}

TEST(EnsembleLibrary, StandaloneHwcLibraryKeepsBaseline) {
  PrimitiveLibrary Lib = buildHwcLibrary();
  // sum2d + 3 vendor routines; the baseline keeps speedup reports
  // comparable across libraries.
  EXPECT_EQ(Lib.size(), 4u);
  EXPECT_EQ(Lib.get(Lib.sum2dBaseline()).family(), ConvFamily::Sum2D);
}

//===----------------------------------------------------------------------===//
// hwcnn routine correctness vs the reference convolution
//===----------------------------------------------------------------------===//

struct HwcCorrectnessCase {
  ConvScenario S;
};

class HwcCorrectnessTest
    : public ::testing::TestWithParam<HwcCorrectnessCase> {};

TEST_P(HwcCorrectnessTest, MatchesReference) {
  const ConvScenario &S = GetParam().S;
  const PrimitiveLibrary &Lib = ensembleLibrary();

  Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
  InCHW.fillRandom(311);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(412);
  Tensor3D Ref(S.M, S.outHeight(), S.outWidth(), Layout::CHW);
  referenceConv(S, InCHW, W, Ref);

  Tensor3D InHWC = convertToLayout(InCHW, Layout::HWC);
  float Tol = 1e-4f * std::sqrt(static_cast<float>(S.C * S.K * S.K));

  unsigned Tested = 0;
  for (PrimitiveId Id : Lib.withTag("hwcnn")) {
    const ConvPrimitive &P = Lib.get(Id);
    if (!P.supports(S))
      continue;
    ++Tested;
    auto Inst = P.instantiate(S, W);
    Tensor3D Out(S.M, S.outHeight(), S.outWidth(), Layout::HWC);
    RunContext Ctx;
    Inst->run(InHWC, Out, Ctx);
    Tensor3D OutCHW = convertToLayout(Out, Layout::CHW);
    EXPECT_LE(maxAbsDifference(OutCHW, Ref), Tol) << P.name();
  }
  // Every scenario in the sweep is at least coverable by im2row + direct.
  EXPECT_GE(Tested, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HwcCorrectnessTest,
    ::testing::Values(
        HwcCorrectnessCase{{3, 13, 13, 1, 3, 4, 1}},  // padded 3x3
        HwcCorrectnessCase{{8, 12, 10, 1, 3, 8, 0}},  // rectangular
        HwcCorrectnessCase{{4, 15, 15, 2, 3, 6, 1}},  // strided
        HwcCorrectnessCase{{8, 11, 11, 1, 5, 4, 2}},  // 5x5 padded
        HwcCorrectnessCase{{2, 9, 9, 1, 1, 8, 0}},    // 1x1 (pointwise)
        HwcCorrectnessCase{{6, 10, 10, 2, 1, 5, 0}},  // strided pointwise
        HwcCorrectnessCase{{3, 23, 23, 4, 11, 8, 0}}, // conv1-like
        HwcCorrectnessCase{{16, 8, 8, 1, 3, 16, 1}}), // many channels
    [](const ::testing::TestParamInfo<HwcCorrectnessCase> &Info) {
      return Info.param.S.key();
    });

TEST(HwcCorrectness, MultithreadedRunsMatchSingleThreaded) {
  ConvScenario S{8, 17, 15, 1, 3, 12, 1};
  const PrimitiveLibrary &Lib = ensembleLibrary();
  Tensor3D In(S.C, S.H, S.W, Layout::HWC);
  In.fillRandom(99);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(98);
  ThreadPool Pool(4);
  for (PrimitiveId Id : Lib.withTag("hwcnn")) {
    const ConvPrimitive &P = Lib.get(Id);
    if (!P.supports(S))
      continue;
    auto Inst = P.instantiate(S, W);
    Tensor3D OutST(S.M, S.outHeight(), S.outWidth(), Layout::HWC);
    Tensor3D OutMT(S.M, S.outHeight(), S.outWidth(), Layout::HWC);
    RunContext Single;
    Inst->run(In, OutST, Single);
    RunContext Multi;
    Multi.Pool = &Pool;
    Inst->run(In, OutMT, Multi);
    EXPECT_LE(maxAbsDifference(OutST, OutMT), 1e-5f) << P.name();
  }
}

TEST(HwcCorrectness, PointwiseRejectsNonUnitKernels) {
  const PrimitiveLibrary &Lib = ensembleLibrary();
  PrimitiveId Id = *Lib.findByName("hwcnn-pointwise-hwc-hwc");
  ConvScenario K3{4, 8, 8, 1, 3, 4, 1};
  EXPECT_FALSE(Lib.get(Id).supports(K3));
  ConvScenario Padded1x1{4, 8, 8, 1, 1, 4, 1};
  EXPECT_FALSE(Lib.get(Id).supports(Padded1x1));
  ConvScenario Clean1x1{4, 8, 8, 1, 1, 4, 0};
  EXPECT_TRUE(Lib.get(Id).supports(Clean1x1));
}

TEST(HwcCorrectness, VendorRoutinesRejectSparseScenarios) {
  const PrimitiveLibrary &Lib = ensembleLibrary();
  ConvScenario S{8, 12, 12, 1, 3, 8, 1};
  S.SparsityPct = 50;
  for (PrimitiveId Id : Lib.withTag("hwcnn"))
    EXPECT_FALSE(Lib.get(Id).supports(S)) << Lib.get(Id).name();
}

//===----------------------------------------------------------------------===//
// Ensemble selection properties
//===----------------------------------------------------------------------===//

double pbqpCost(const NetworkGraph &Net, const PrimitiveLibrary &Lib,
                CostProvider &Costs) {
  SelectionResult R = optimizeNetwork(Net, Lib, Costs);
  EXPECT_FALSE(R.Plan.empty());
  return R.ModelledCostMs;
}

TEST(EnsembleSelection, UnionNeverWorseThanEitherLibraryAlone) {
  for (const NetworkGraph &Net : {tinyChain(24), tinyDag(24)}) {
    PrimitiveLibrary Native = buildFullLibrary();
    PrimitiveLibrary Vendor = buildHwcLibrary();
    const PrimitiveLibrary &Union = ensembleLibrary();

    MachineProfile Prof = MachineProfile::haswell();
    AnalyticCostProvider NativeCosts(Native, Prof);
    AnalyticCostProvider VendorCosts(Vendor, Prof);
    AnalyticCostProvider UnionCosts(Union, Prof);

    double NativeMs = pbqpCost(Net, Native, NativeCosts);
    double VendorMs = pbqpCost(Net, Vendor, VendorCosts);
    double UnionMs = pbqpCost(Net, Union, UnionCosts);

    // The union's solution space contains both single-library spaces, so a
    // (provably optimal or at least reduction-found) union plan can only
    // tie or improve. Allow a tiny epsilon for the RN heuristic.
    EXPECT_LE(UnionMs, NativeMs * 1.0001) << Net.name();
    EXPECT_LE(UnionMs, VendorMs * 1.0001) << Net.name();
  }
}

TEST(EnsembleSelection, MixedPlanIsLegalizedAndTagsReported) {
  NetworkGraph Net = tinyDag(24);
  const PrimitiveLibrary &Lib = ensembleLibrary();
  MachineProfile Prof = MachineProfile::haswell();
  AnalyticCostProvider Costs(Lib, Prof);
  SelectionResult R = optimizeNetwork(Net, Lib, Costs);
  ASSERT_FALSE(R.Plan.empty());
  EXPECT_TRUE(isLegalized(R.Plan, Net));

  // Reporting: count conv nodes per library tag; the counts must cover all
  // conv nodes regardless of which library won each layer.
  unsigned Counted = 0;
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    const char *Tag = Lib.get(R.Plan.ConvPrim[N]).libraryTag();
    EXPECT_TRUE(std::string(Tag) == "primsel" || std::string(Tag) == "hwcnn");
    ++Counted;
  }
  EXPECT_EQ(Counted, Net.convNodes().size());
}

TEST(EnsembleSelection, ForcedVendorPlanExecutesCorrectly) {
  // Build a plan that uses a vendor routine for every conv layer it
  // supports, then check the executed network output matches the sum2d
  // instantiation of the same network: mixed-library execution is
  // functionally equivalent, with legalization bridging the libraries.
  NetworkGraph Net = tinyChain(24);
  const PrimitiveLibrary &Lib = ensembleLibrary();

  NetworkPlan Baseline =
      planForStrategy(Strategy::Sum2D, Net, Lib, *[] {
        static MachineProfile Prof = MachineProfile::haswell();
        static PrimitiveLibrary L = buildEnsembleLibrary();
        static AnalyticCostProvider Costs(L, Prof);
        return &Costs;
      }());

  // Vendor plan: hwcnn-im2row everywhere (it supports every dense
  // scenario), HWC layouts on conv nodes, CHW elsewhere.
  NetworkPlan Vendor = Baseline;
  PrimitiveId Im2Row = *Lib.findByName("hwcnn-im2row-hwc-hwc");
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    Vendor.ConvPrim[N] = Im2Row;
    Vendor.InLayout[N] = Layout::HWC;
    Vendor.OutLayout[N] = Layout::HWC;
  }
  Vendor.Chains.clear();
  MachineProfile Prof = MachineProfile::haswell();
  AnalyticCostProvider Costs(Lib, Prof);
  DTTableCache Tables(Costs, Net);
  ASSERT_TRUE(legalize(Vendor, Net, Tables));
  ASSERT_TRUE(isLegalized(Vendor, Net));

  const TensorShape &In = Net.node(0).OutShape;
  Tensor3D Input(In.C, In.H, In.W, Layout::CHW);
  Input.fillRandom(1234);

  Executor BaseExec(Net, Baseline, Lib);
  Executor VendorExec(Net, Vendor, Lib);
  BaseExec.run(Input);
  VendorExec.run(Input);

  const Tensor3D &A = BaseExec.networkOutput();
  const Tensor3D &B = VendorExec.networkOutput();
  ASSERT_TRUE(A.sameShape(B));
  EXPECT_LE(maxAbsDifference(convertToLayout(A, Layout::CHW),
                       convertToLayout(B, Layout::CHW)),
            1e-3f);
}

} // namespace
