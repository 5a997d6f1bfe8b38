//===- tests/primitives_test.cpp - conv primitive correctness sweep -------===//
//
// Every primitive in the library, on a sweep of scenarios covering strides,
// padding, kernel sizes, 1x1 convolutions, and both small and many-channel
// shapes, must reproduce the reference direct convolution. This is the
// load-bearing property test of the whole substrate: ~70 primitives x the
// supported subset of 8 scenarios.
//
//===----------------------------------------------------------------------===//

#include "batch/Minibatch.h"
#include "primitives/Reference.h"
#include "primitives/Registry.h"

#include "support/ThreadPool.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

using namespace primsel;

namespace {

const PrimitiveLibrary &fullLibrary() {
  static PrimitiveLibrary Lib = buildExtendedLibrary();
  return Lib;
}

const std::vector<ConvScenario> &sweepScenarios() {
  static const std::vector<ConvScenario> Scenarios = {
      {3, 13, 13, 1, 3, 4, 1},  // odd size, padded 3x3
      {8, 12, 10, 1, 3, 8, 0},  // rectangular, no pad
      {4, 15, 15, 2, 3, 6, 1},  // strided
      {8, 11, 11, 1, 5, 4, 2},  // 5x5 padded
      {2, 9, 9, 1, 1, 8, 0},    // 1x1
      {3, 23, 23, 4, 11, 8, 0}, // AlexNet-conv1-like
      {16, 8, 8, 1, 3, 16, 1},  // many channels
      {5, 7, 9, 2, 5, 3, 2},    // strided 5x5, rectangular
      // Weight panels across two GemmKC slabs, with M off every tier's
      // panel width (padding lanes).
      {300, 6, 6, 1, 3, 37, 1},
      {300, 6, 6, 1, 5, 37, 2},
  };
  return Scenarios;
}

/// Reference outputs, computed once per scenario (CHW).
const Tensor3D &referenceOutput(const ConvScenario &S) {
  static std::map<std::string, Tensor3D> Cache;
  auto It = Cache.find(S.key());
  if (It != Cache.end())
    return It->second;
  Tensor3D In(S.C, S.H, S.W, Layout::CHW);
  In.fillRandom(101);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(202);
  Tensor3D Out(S.M, S.outHeight(), S.outWidth(), Layout::CHW);
  referenceConv(S, In, W, Out);
  return Cache.emplace(S.key(), std::move(Out)).first->second;
}

float toleranceFor(const ConvScenario &S, ConvFamily F) {
  // Absolute tolerance scaled with the reduction length; Winograd and FFT
  // accumulate extra transform error.
  float Base = 2e-5f * std::sqrt(static_cast<float>(S.C * S.K * S.K));
  if (F == ConvFamily::Winograd)
    return 400.0f * Base;
  if (F == ConvFamily::FFT)
    return 100.0f * Base;
  // Fixed-point error grows linearly (not with the square root) in the
  // reduction length: every product carries up to (|x| qw + |w| qi)
  // resolution error, qi = qw ~ 1/32767 for inputs in [-1, 1].
  if (F == ConvFamily::Quantized)
    return 1e-4f * static_cast<float>(S.C * S.K * S.K);
  return 10.0f * Base;
}

bool sameBytes(const Tensor3D &A, const Tensor3D &B) {
  return A.sameShape(B) && A.layout() == B.layout() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.size()) * sizeof(float)) == 0;
}

class PrimitiveSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(PrimitiveSweep, MatchesReference) {
  const PrimitiveLibrary &Lib = fullLibrary();
  auto [PrimIdx, ScenIdx] = GetParam();
  const ConvPrimitive &P = Lib.get(PrimIdx);
  const ConvScenario &S = sweepScenarios()[ScenIdx];
  if (!P.supports(S))
    GTEST_SKIP() << P.name() << " does not support " << S.key();

  Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
  InCHW.fillRandom(101);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(202);

  Tensor3D In = convertToLayout(InCHW, P.inputLayout());
  Tensor3D Out(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  std::unique_ptr<ConvInstance> Inst = P.instantiate(S, W);
  RunContext Ctx{nullptr};
  Inst->run(In, Out, Ctx);

  float Diff = maxAbsDifference(referenceOutput(S), Out);
  EXPECT_LE(Diff, toleranceFor(S, P.family()))
      << P.name() << " on " << S.key();
}

TEST_P(PrimitiveSweep, MultithreadedMatchesSingleThreaded) {
  const PrimitiveLibrary &Lib = fullLibrary();
  auto [PrimIdx, ScenIdx] = GetParam();
  // Keep the MT sweep light: two representative scenarios only.
  if (ScenIdx != 0 && ScenIdx != 5)
    GTEST_SKIP() << "MT checked on a scenario subset";
  const ConvPrimitive &P = Lib.get(PrimIdx);
  const ConvScenario &S = sweepScenarios()[ScenIdx];
  if (!P.supports(S))
    GTEST_SKIP();

  Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
  InCHW.fillRandom(101);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(202);
  Tensor3D In = convertToLayout(InCHW, P.inputLayout());
  std::unique_ptr<ConvInstance> Inst = P.instantiate(S, W);

  Tensor3D OutST(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  RunContext Single{nullptr};
  Inst->run(In, OutST, Single);

  ThreadPool Pool(3);
  RunContext Multi{&Pool};
  Tensor3D OutMT(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  Inst->run(In, OutMT, Multi);

  // Same arithmetic partitioned differently: every routine promises
  // bit-identical outputs whatever the thread count.
  EXPECT_TRUE(sameBytes(OutST, OutMT)) << P.name();
}

std::string sweepName(
    const ::testing::TestParamInfo<std::tuple<unsigned, unsigned>> &Info) {
  const PrimitiveLibrary &Lib = fullLibrary();
  auto [PrimIdx, ScenIdx] = Info.param;
  std::string Name = Lib.get(PrimIdx).name() + "_s" + std::to_string(ScenIdx);
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesAllScenarios, PrimitiveSweep,
    ::testing::Combine(
        ::testing::Range(0u, static_cast<unsigned>(fullLibrary().size())),
        ::testing::Range(0u,
                         static_cast<unsigned>(sweepScenarios().size()))),
    sweepName);

/// Zoo-scale shapes the sweep's scenarios miss: many channels over few
/// tiles (the pointwise GEMMs' K spans two KC slabs), many tiles, and an
/// output width that is no multiple of m over more rows than one 1D row
/// block.
const std::vector<ConvScenario> &winogradZooScenarios() {
  static const std::vector<ConvScenario> Scenarios = {
      {512, 7, 7, 1, 3, 512, 1}, // vgg conv4 at scale 0.25: 4 m4 tiles
      {64, 56, 56, 1, 3, 64, 1}, // resnet18 layer1: 196 m4 tiles
      {24, 13, 11, 1, 3, 40, 1}, // 13 x 11 output
  };
  return Scenarios;
}

/// Library indices of every K = 3 Winograd variant.
std::vector<unsigned> k3WinogradIds() {
  std::vector<unsigned> Ids;
  const ConvScenario Probe{8, 12, 12, 1, 3, 8, 1};
  for (PrimitiveId Id : fullLibrary().supporting(Probe, ConvFamily::Winograd))
    Ids.push_back(static_cast<unsigned>(Id));
  return Ids;
}

class WinogradZooShapes
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(WinogradZooShapes, MatchesReferenceAndThreadCounts) {
  auto [PrimIdx, ScenIdx] = GetParam();
  const ConvPrimitive &P = fullLibrary().get(PrimIdx);
  const ConvScenario &S = winogradZooScenarios()[ScenIdx];
  ASSERT_TRUE(P.supports(S)) << P.name();

  Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
  InCHW.fillRandom(101);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(202);
  Tensor3D In = convertToLayout(InCHW, P.inputLayout());
  std::unique_ptr<ConvInstance> Inst = P.instantiate(S, W);

  Tensor3D OutST(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  RunContext Single{nullptr};
  Inst->run(In, OutST, Single);
  EXPECT_LE(maxAbsDifference(referenceOutput(S), OutST),
            toleranceFor(S, ConvFamily::Winograd))
      << P.name() << " on " << S.key();

  ThreadPool Pool(3);
  RunContext Multi{&Pool};
  Tensor3D OutMT(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  Inst->run(In, OutMT, Multi);
  EXPECT_TRUE(sameBytes(OutST, OutMT)) << P.name() << " on " << S.key();
}

INSTANTIATE_TEST_SUITE_P(
    K3VariantsZooScenarios, WinogradZooShapes,
    ::testing::Combine(::testing::ValuesIn(k3WinogradIds()),
                       ::testing::Range(0u, static_cast<unsigned>(
                                                winogradZooScenarios().size()))),
    sweepName);

/// The ensemble library (both vendors' routines) plus the q16 family: every
/// routine whose run() draws on a pool.
const PrimitiveLibrary &ensembleLibrary() {
  static PrimitiveLibrary Lib = [] {
    PrimitiveLibrary L = buildEnsembleLibrary();
    registerQuantizedFamily(L);
    return L;
  }();
  return Lib;
}

bool isGemmBacked(const ConvPrimitive &P) {
  return P.family() == ConvFamily::Im2 || P.family() == ConvFamily::Kn2 ||
         P.family() == ConvFamily::Winograd;
}

/// Shapes that stress the prepared weight panels: resnet18's layer4 (the
/// GEMMs' K = 4608 spans 18 KC slabs, and the few output pixels run the
/// products transposed), and an output that is no multiple of any tile
/// over 40 filters (no multiple of any tier's register widths).
const std::vector<ConvScenario> &panelScenarios() {
  static const std::vector<ConvScenario> Scenarios = {
      {512, 2, 2, 1, 3, 512, 1},
      {24, 13, 11, 1, 3, 40, 1},
  };
  return Scenarios;
}

/// Ensemble-library ids of every GEMM-backed routine supporting the panel
/// scenarios (all of them are 3 x 3, stride 1).
std::vector<unsigned> gemmBackedIds() {
  std::vector<unsigned> Ids;
  const PrimitiveLibrary &Lib = ensembleLibrary();
  for (PrimitiveId Id = 0; Id < Lib.size(); ++Id)
    if (isGemmBacked(Lib.get(Id)) && Lib.get(Id).supports(panelScenarios()[0]))
      Ids.push_back(static_cast<unsigned>(Id));
  return Ids;
}

class GemmBackedPanels
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(GemmBackedPanels, MatchesReferenceAndThreadCounts) {
  auto [PrimIdx, ScenIdx] = GetParam();
  const ConvPrimitive &P = ensembleLibrary().get(PrimIdx);
  const ConvScenario &S = panelScenarios()[ScenIdx];
  ASSERT_TRUE(P.supports(S)) << P.name();

  Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
  InCHW.fillRandom(101);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(202);
  Tensor3D In = convertToLayout(InCHW, P.inputLayout());
  std::unique_ptr<ConvInstance> Inst = P.instantiate(S, W);

  Tensor3D OutST(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  Inst->run(In, OutST, RunContext{nullptr});
  EXPECT_LE(maxAbsDifference(referenceOutput(S), OutST),
            toleranceFor(S, P.family()))
      << P.name() << " on " << S.key();

  ThreadPool Pool(3);
  Tensor3D OutMT(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  Inst->run(In, OutMT, RunContext{&Pool});
  EXPECT_TRUE(sameBytes(OutST, OutMT)) << P.name() << " on " << S.key();
}

std::string ensembleName(
    const ::testing::TestParamInfo<std::tuple<unsigned, unsigned>> &Info) {
  auto [PrimIdx, ScenIdx] = Info.param;
  std::string Name =
      ensembleLibrary().get(PrimIdx).name() + "_s" + std::to_string(ScenIdx);
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    Im2Kn2WinogradPanelScenarios, GemmBackedPanels,
    ::testing::Combine(::testing::ValuesIn(gemmBackedIds()),
                       ::testing::Range(0u, static_cast<unsigned>(
                                                panelScenarios().size()))),
    ensembleName);

// RunContext::MaxThreads is the plan's per-node worker count: a routine
// capped at 1 must run on the calling thread alone, whatever the pool, and
// every cap gives the same bytes. Every routine runs one image; every §8
// minibatch wrapper runs a 3-image batch through runBatch, where @bpar
// spreads the images over min(K, pool width, cap) lanes.
TEST(ThreadCap, EveryRoutineHonoursMaxThreads) {
  static const PrimitiveLibrary Batched = buildBatchedLibrary();
  ConvScenario Depthwise{16, 12, 12, 1, 3, 16, 1};
  Depthwise.Depthwise = true;
  const ConvScenario Scenarios[] = {
      {16, 12, 10, 1, 3, 24, 1}, // 3 x 3: im2, kn2, winograd, fft, direct
      {8, 11, 11, 1, 5, 8, 2},   // 5 x 5
      {8, 9, 9, 2, 1, 16, 0},    // strided 1 x 1: hwcnn-pointwise's gather
      {12, 10, 10, 2, 3, 8, 1},  // strided 3 x 3
      Depthwise,
  };
  ThreadPool Pool(4);
  for (int64_t K : {1, 3}) {
    const PrimitiveLibrary &Lib = K == 1 ? ensembleLibrary() : Batched;
    std::vector<bool> Ran(Lib.size(), false);
    for (ConvScenario S : Scenarios) {
      S.Batch = K;
      for (PrimitiveId Id : Lib.supporting(S)) {
        const ConvPrimitive &P = Lib.get(Id);
        Ran[Id] = true;
        std::vector<Tensor3D> In;
        for (int64_t I = 0; I < K; ++I) {
          Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
          InCHW.fillRandom(303 + static_cast<uint64_t>(I));
          In.push_back(convertToLayout(InCHW, P.inputLayout()));
        }
        Kernel4D W(S.M, S.kernelChannels(), S.K);
        W.fillRandom(404);
        std::unique_ptr<ConvInstance> Inst = P.instantiate(S, W);

        std::vector<std::vector<Tensor3D>> Outs;
        for (int Cap : {1, 2, 0}) {
          Outs.emplace_back();
          for (int64_t I = 0; I < K; ++I)
            Outs.back().emplace_back(S.M, S.outHeight(), S.outWidth(),
                                     P.outputLayout());
          const uint64_t Before = Pool.workerChunks();
          Inst->runBatch(In, Outs.back(), RunContext{&Pool, Cap});
          if (Cap == 1) {
            EXPECT_EQ(Pool.workerChunks(), Before)
                << P.name() << " on " << S.key() << " left the caller thread";
          }
        }
        for (size_t I = 0; I < In.size(); ++I) {
          EXPECT_TRUE(sameBytes(Outs[0][I], Outs[1][I]))
              << P.name() << " on " << S.key() << " image " << I;
          EXPECT_TRUE(sameBytes(Outs[0][I], Outs[2][I]))
              << P.name() << " on " << S.key() << " image " << I;
        }
      }
    }
    for (PrimitiveId Id = 0; Id < Lib.size(); ++Id)
      if (Lib.get(Id).supportsBatch(K)) {
        EXPECT_TRUE(Ran[Id]) << Lib.get(Id).name() << " ran on no scenario";
      }
  }
}

TEST(Registry, LibraryHasMoreThan70Primitives) {
  // Paper abstract: "a library of more than 70 DNN primitives".
  EXPECT_GT(fullLibrary().size(), 70u);
}

TEST(Registry, AllSixFamiliesPresent) {
  const PrimitiveLibrary &Lib = fullLibrary();
  unsigned Counts[NumConvFamilies] = {};
  for (PrimitiveId Id = 0; Id < Lib.size(); ++Id)
    Counts[static_cast<unsigned>(Lib.get(Id).family())]++;
  for (unsigned F = 0; F < NumConvFamilies; ++F)
    EXPECT_GT(Counts[F], 0u) << convFamilyName(static_cast<ConvFamily>(F));
}

TEST(Registry, NamesAreUniqueAndFindable) {
  const PrimitiveLibrary &Lib = fullLibrary();
  for (PrimitiveId Id = 0; Id < Lib.size(); ++Id) {
    auto Found = Lib.findByName(Lib.get(Id).name());
    ASSERT_TRUE(Found.has_value());
    EXPECT_EQ(*Found, Id);
  }
  EXPECT_FALSE(Lib.findByName("no-such-primitive").has_value());
}

TEST(Registry, Sum2DSupportsEverything) {
  const PrimitiveLibrary &Lib = fullLibrary();
  PrimitiveId Baseline = Lib.sum2dBaseline();
  for (const ConvScenario &S : sweepScenarios())
    EXPECT_TRUE(Lib.get(Baseline).supports(S));
}

TEST(Registry, WinogradRestrictedToItsKernelAndStride) {
  const PrimitiveLibrary &Lib = fullLibrary();
  ConvScenario Strided{8, 12, 12, 2, 3, 8, 1};
  ConvScenario K7{8, 12, 12, 1, 7, 8, 3};
  for (PrimitiveId Id = 0; Id < Lib.size(); ++Id) {
    if (Lib.get(Id).family() != ConvFamily::Winograd)
      continue;
    EXPECT_FALSE(Lib.get(Id).supports(Strided)) << Lib.get(Id).name();
    EXPECT_FALSE(Lib.get(Id).supports(K7)) << Lib.get(Id).name();
  }
}

TEST(Registry, Kn2RejectsStrided) {
  const PrimitiveLibrary &Lib = fullLibrary();
  ConvScenario Strided{8, 12, 12, 2, 3, 8, 1};
  for (PrimitiveId Id = 0; Id < Lib.size(); ++Id)
    if (Lib.get(Id).family() == ConvFamily::Kn2) {
      EXPECT_FALSE(Lib.get(Id).supports(Strided)) << Lib.get(Id).name();
    }
}

TEST(Registry, SupportingFiltersByFamily) {
  const PrimitiveLibrary &Lib = fullLibrary();
  ConvScenario S{8, 12, 12, 1, 3, 8, 1};
  auto All = Lib.supporting(S);
  auto Wino = Lib.supporting(S, ConvFamily::Winograd);
  EXPECT_GT(Wino.size(), 0u);
  EXPECT_LT(Wino.size(), All.size());
  for (PrimitiveId Id : Wino)
    EXPECT_EQ(Lib.get(Id).family(), ConvFamily::Winograd);
}

TEST(Registry, WorkspaceReflectsAlgorithmMemory) {
  // Table 1's memory column: im2 and 2D Winograd are memory hungry, kn2-as
  // and 1D Winograd are lean.
  const PrimitiveLibrary &Lib = fullLibrary();
  ConvScenario S{64, 56, 56, 1, 3, 64, 1};
  auto Ws = [&](const char *Name) {
    auto Id = Lib.findByName(Name);
    EXPECT_TRUE(Id.has_value()) << Name;
    return Lib.get(*Id).workspaceBytes(S);
  };
  EXPECT_GT(Ws("im2col-b-chw-chw"), Ws("kn2row-as-b-chw-chw"));
  EXPECT_GT(Ws("wino2d-m4r3-vf8-chw-chw"), Ws("wino1d-m4r3-vf8-chw-chw"));
  EXPECT_GT(Ws("kn2row-full-b-chw-chw"), Ws("kn2row-as-b-chw-chw"));
}

TEST(Reference, PaddedInputMatchesManualPad) {
  Tensor3D In(2, 3, 3, Layout::CHW);
  In.fillRandom(9);
  Tensor3D P = makePaddedInput(In, 2, Layout::CHW);
  EXPECT_EQ(P.height(), 7);
  EXPECT_EQ(P.width(), 7);
  EXPECT_EQ(P.at(0, 0, 0), 0.0f);
  EXPECT_EQ(P.at(1, 2, 2), In.at(1, 0, 0));
  EXPECT_EQ(P.at(1, 4, 4), In.at(1, 2, 2));
  EXPECT_EQ(P.at(0, 6, 6), 0.0f);
}

} // namespace
