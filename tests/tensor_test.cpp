//===- tests/tensor_test.cpp - layouts, tensors, transforms ---------------===//

#include "tensor/Layout.h"
#include "tensor/Tensor.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

#include <vector>

using namespace primsel;

TEST(Layout, NamesRoundTrip) {
  for (Layout L : AllLayouts) {
    std::optional<Layout> Parsed = parseLayout(layoutName(L));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, L);
  }
  EXPECT_FALSE(parseLayout("XYZ").has_value());
  EXPECT_FALSE(parseLayout("chw").has_value());
}

TEST(Layout, OrderIsAPermutation) {
  for (Layout L : AllLayouts) {
    std::array<Dim, 3> Order = layoutOrder(L);
    bool Seen[3] = {false, false, false};
    for (Dim D : Order)
      Seen[static_cast<unsigned>(D)] = true;
    EXPECT_TRUE(Seen[0] && Seen[1] && Seen[2]);
  }
}

TEST(Layout, CHWStrides) {
  auto S = layoutStrides(Layout::CHW, 3, 4, 5);
  EXPECT_EQ(S[0], 20); // C stride
  EXPECT_EQ(S[1], 5);  // H stride
  EXPECT_EQ(S[2], 1);  // W stride
}

TEST(Layout, HWCStrides) {
  auto S = layoutStrides(Layout::HWC, 3, 4, 5);
  EXPECT_EQ(S[0], 1);  // C innermost
  EXPECT_EQ(S[1], 15); // H outermost
  EXPECT_EQ(S[2], 3);
}

TEST(Layout, StridesCoverAllIndicesUniquely) {
  // Property: for every layout, the map (c,h,w) -> linear index is a
  // bijection onto [0, C*H*W).
  for (Layout L : AllLayouts) {
    Tensor3D T(3, 4, 5, L);
    std::vector<int> Seen(static_cast<size_t>(T.size()), 0);
    for (int64_t C = 0; C < 3; ++C)
      for (int64_t H = 0; H < 4; ++H)
        for (int64_t W = 0; W < 5; ++W) {
          int64_t Idx = T.index(C, H, W);
          ASSERT_GE(Idx, 0);
          ASSERT_LT(Idx, T.size());
          Seen[static_cast<size_t>(Idx)]++;
        }
    for (int Count : Seen)
      EXPECT_EQ(Count, 1);
  }
}

TEST(Tensor, AtReadsWhatWasWritten) {
  for (Layout L : AllLayouts) {
    Tensor3D T(2, 3, 4, L);
    for (int64_t C = 0; C < 2; ++C)
      for (int64_t H = 0; H < 3; ++H)
        for (int64_t W = 0; W < 4; ++W)
          T.at(C, H, W) = static_cast<float>(100 * C + 10 * H + W);
    for (int64_t C = 0; C < 2; ++C)
      for (int64_t H = 0; H < 3; ++H)
        for (int64_t W = 0; W < 4; ++W)
          EXPECT_EQ(T.at(C, H, W), static_cast<float>(100 * C + 10 * H + W));
  }
}

TEST(Tensor, CloneIsAnIndependentCopy) {
  Tensor3D Src(2, 3, 4, Layout::HWC);
  Src.fillRandom(5);
  Tensor3D Copy = Src.clone();
  EXPECT_EQ(Copy.layout(), Layout::HWC);
  EXPECT_TRUE(Copy.sameShape(Src));
  EXPECT_NE(Copy.data(), Src.data());
  EXPECT_EQ(maxAbsDifference(Copy, Src), 0.0f);

  float Before = Src.at(1, 2, 3);
  Copy.at(1, 2, 3) = Before + 1.0f;
  EXPECT_EQ(Src.at(1, 2, 3), Before);
  EXPECT_EQ(Tensor3D().clone().size(), 0);
}

TEST(Tensor, CloneOfAnArenaViewOwnsItsStorage) {
  Tensor3D Copy;
  {
    std::vector<float> Arena(2 * 3 * 4, 7.0f);
    Tensor3D View(2, 3, 4, Layout::CHW, Arena.data());
    Copy = View.clone();
    EXPECT_NE(Copy.data(), Arena.data());
    Arena[0] = -1.0f; // the arena slot is reused by a later step
    EXPECT_EQ(View.at(0, 0, 0), -1.0f);
  }
  // The arena is gone; the clone still holds the values it copied.
  for (int64_t C = 0; C < 2; ++C)
    for (int64_t H = 0; H < 3; ++H)
      for (int64_t W = 0; W < 4; ++W)
        EXPECT_EQ(Copy.at(C, H, W), 7.0f);
}

TEST(Tensor, Kernel4DIndexing) {
  Kernel4D K(2, 3, 3);
  K.fill(0.0f);
  K.at(1, 2, 0, 1) = 5.0f;
  EXPECT_EQ(K.at(1, 2, 0, 1), 5.0f);
  EXPECT_EQ(K.size(), 2 * 3 * 3 * 3);
}

TEST(Tensor, MaxAbsDifferenceAcrossLayouts) {
  Tensor3D A(2, 3, 4, Layout::CHW);
  A.fillRandom(3);
  Tensor3D B = convertToLayout(A, Layout::WHC);
  EXPECT_EQ(maxAbsDifference(A, B), 0.0f);
  B.at(1, 2, 3) += 0.5f;
  EXPECT_NEAR(maxAbsDifference(A, B), 0.5f, 1e-6f);
}

/// Property test: converting A -> B -> A is the identity for every ordered
/// layout pair.
class LayoutRoundTrip
    : public ::testing::TestWithParam<std::tuple<Layout, Layout>> {};

TEST_P(LayoutRoundTrip, Identity) {
  auto [From, To] = GetParam();
  Tensor3D Src(5, 7, 3, From);
  Src.fillRandom(11);
  Tensor3D Mid = convertToLayout(Src, To);
  Tensor3D Back = convertToLayout(Mid, From);
  EXPECT_EQ(maxAbsDifference(Src, Back), 0.0f);
  // The intermediate holds the same logical values.
  EXPECT_EQ(maxAbsDifference(Src, Mid), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, LayoutRoundTrip,
    ::testing::Combine(::testing::ValuesIn(AllLayouts),
                       ::testing::ValuesIn(AllLayouts)),
    [](const ::testing::TestParamInfo<std::tuple<Layout, Layout>> &Info) {
      return std::string(layoutName(std::get<0>(Info.param))) + "_to_" +
             layoutName(std::get<1>(Info.param));
    });

TEST(Transform, DirectRoutineSetIsIncomplete) {
  // The paper's premise: not every pair has a direct routine, so chains are
  // required (§3.1).
  unsigned DirectPairs = 0;
  for (Layout A : AllLayouts)
    for (Layout B : AllLayouts)
      if (A != B && hasDirectTransform(A, B))
        ++DirectPairs;
  EXPECT_GT(DirectPairs, 0u);
  EXPECT_LT(DirectPairs, 30u); // strictly fewer than all ordered pairs
}

TEST(Transform, RoutinesHaveUniqueNames) {
  const auto &Routines = directTransformRoutines();
  for (size_t I = 0; I < Routines.size(); ++I)
    for (size_t J = I + 1; J < Routines.size(); ++J)
      EXPECT_NE(Routines[I].Name, Routines[J].Name);
}

TEST(Transform, SameLayoutCopyIsExact) {
  Tensor3D A(3, 5, 4, Layout::HCW);
  A.fillRandom(5);
  Tensor3D B(3, 5, 4, Layout::HCW);
  runTransform(A, B);
  EXPECT_EQ(maxAbsDifference(A, B), 0.0f);
}
