//===- tests/gemm_test.cpp - GEMM substrate tests -------------------------===//

#include "gemm/Gemm.h"

#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <vector>

using namespace primsel;

namespace {

/// Trusted double-precision reference.
std::vector<float> referenceGemm(int64_t M, int64_t N, int64_t K,
                                 const std::vector<float> &A,
                                 const std::vector<float> &B,
                                 const std::vector<float> &CInit,
                                 bool Accumulate) {
  std::vector<float> C(static_cast<size_t>(M * N), 0.0f);
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double Sum = Accumulate ? CInit[static_cast<size_t>(I * N + J)] : 0.0;
      for (int64_t P = 0; P < K; ++P)
        Sum += static_cast<double>(A[static_cast<size_t>(I * K + P)]) *
               B[static_cast<size_t>(P * N + J)];
      C[static_cast<size_t>(I * N + J)] = static_cast<float>(Sum);
    }
  return C;
}

std::vector<float> randomVec(size_t N, uint64_t Seed) {
  std::vector<float> V(N);
  fillRandom(V.data(), N, Seed);
  return V;
}

std::vector<float> transpose(const std::vector<float> &B, int64_t K,
                             int64_t N) {
  std::vector<float> Bt(static_cast<size_t>(N * K));
  for (int64_t P = 0; P < K; ++P)
    for (int64_t J = 0; J < N; ++J)
      Bt[static_cast<size_t>(J * K + P)] = B[static_cast<size_t>(P * N + J)];
  return Bt;
}

struct GemmCase {
  int64_t M, N, K;
};

class GemmAllVariants
    : public ::testing::TestWithParam<std::tuple<GemmVariant, GemmCase>> {};

TEST_P(GemmAllVariants, MatchesReference) {
  auto [Variant, Sz] = GetParam();
  std::vector<float> A = randomVec(static_cast<size_t>(Sz.M * Sz.K), 1);
  std::vector<float> B = randomVec(static_cast<size_t>(Sz.K * Sz.N), 2);
  std::vector<float> C(static_cast<size_t>(Sz.M * Sz.N), 0.0f);
  std::vector<float> Want = referenceGemm(Sz.M, Sz.N, Sz.K, A, B, C, false);

  const std::vector<float> &BOp =
      Variant == GemmVariant::TransposedB ? transpose(B, Sz.K, Sz.N) : B;
  sgemm(Variant, Sz.M, Sz.N, Sz.K, A.data(), BOp.data(), C.data(), Sz.N,
        /*Accumulate=*/false);

  float Tol = 1e-4f * static_cast<float>(Sz.K);
  for (size_t I = 0; I < C.size(); ++I)
    ASSERT_NEAR(C[I], Want[I], Tol) << "at " << I;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmAllVariants,
    ::testing::Combine(::testing::Values(GemmVariant::Naive,
                                         GemmVariant::Blocked,
                                         GemmVariant::TransposedB),
                       ::testing::Values(GemmCase{1, 1, 1}, GemmCase{4, 4, 4},
                                         GemmCase{7, 13, 5},
                                         GemmCase{16, 3, 33},
                                         GemmCase{33, 17, 64},
                                         GemmCase{5, 64, 2})),
    [](const auto &Info) {
      GemmVariant V = std::get<0>(Info.param);
      GemmCase Sz = std::get<1>(Info.param);
      return std::string(gemmVariantName(V)) + "_" + std::to_string(Sz.M) +
             "x" + std::to_string(Sz.N) + "x" + std::to_string(Sz.K);
    });

TEST(Gemm, AccumulateAddsIntoC) {
  const int64_t M = 5, N = 6, K = 7;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 3);
  std::vector<float> B = randomVec(static_cast<size_t>(K * N), 4);
  std::vector<float> C = randomVec(static_cast<size_t>(M * N), 5);
  std::vector<float> Want = referenceGemm(M, N, K, A, B, C, true);
  sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C.data(), N,
        /*Accumulate=*/true);
  for (size_t I = 0; I < C.size(); ++I)
    ASSERT_NEAR(C[I], Want[I], 1e-3f);
}

TEST(Gemm, StridedCWritesSubview) {
  // C has row stride 10 but only 4 columns are written.
  const int64_t M = 3, N = 4, K = 5, LdC = 10;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 6);
  std::vector<float> B = randomVec(static_cast<size_t>(K * N), 7);
  std::vector<float> C(static_cast<size_t>(M * LdC), -9.0f);
  sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C.data(), LdC,
        false);
  std::vector<float> Zero(static_cast<size_t>(M * N), 0.0f);
  std::vector<float> Want = referenceGemm(M, N, K, A, B, Zero, false);
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < LdC; ++J) {
      if (J < N)
        ASSERT_NEAR(C[static_cast<size_t>(I * LdC + J)],
                    Want[static_cast<size_t>(I * N + J)], 1e-3f);
      else
        ASSERT_EQ(C[static_cast<size_t>(I * LdC + J)], -9.0f)
            << "GEMM wrote outside its subview";
    }
}

TEST(Gemm, ThreadedMatchesSingle) {
  const int64_t M = 37, N = 29, K = 31;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 8);
  std::vector<float> B = randomVec(static_cast<size_t>(K * N), 9);
  std::vector<float> C1(static_cast<size_t>(M * N), 0.0f);
  std::vector<float> C2 = C1;
  sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C1.data(), N,
        false);
  ThreadPool Pool(4);
  sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C2.data(), N,
        false, &Pool);
  EXPECT_EQ(C1, C2); // identical math per row, so bitwise equal
}

TEST(Gemv, MatchesGemmColumn) {
  const int64_t M = 9, K = 17;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 10);
  std::vector<float> X = randomVec(static_cast<size_t>(K), 11);
  std::vector<float> Y(static_cast<size_t>(M), 0.0f);
  sgemv(M, K, A.data(), X.data(), Y.data(), false);
  std::vector<float> Zero(static_cast<size_t>(M), 0.0f);
  std::vector<float> Want = referenceGemm(M, 1, K, A, X, Zero, false);
  for (int64_t I = 0; I < M; ++I)
    ASSERT_NEAR(Y[static_cast<size_t>(I)], Want[static_cast<size_t>(I)],
                1e-4f);
}

TEST(Gemv, ThreadedMatchesSingle) {
  // K = 16 * 12 + 5: whole lane chunks plus a tail.
  const int64_t M = 37, K = 197;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 12);
  std::vector<float> X = randomVec(static_cast<size_t>(K), 13);
  std::vector<float> Y1(static_cast<size_t>(M), 0.0f);
  std::vector<float> Y2 = Y1;
  sgemv(M, K, A.data(), X.data(), Y1.data(), false);
  ThreadPool Pool(3);
  sgemv(M, K, A.data(), X.data(), Y2.data(), false, &Pool);
  EXPECT_EQ(Y1, Y2); // one worker per row, fixed lane order: bitwise equal
  std::vector<float> Zero(static_cast<size_t>(M), 0.0f);
  std::vector<float> Want = referenceGemm(M, 1, K, A, X, Zero, false);
  for (int64_t I = 0; I < M; ++I)
    ASSERT_NEAR(Y1[static_cast<size_t>(I)], Want[static_cast<size_t>(I)],
                1e-4f);
}

TEST(Gemv, AccumulateMode) {
  const int64_t M = 4, K = 3;
  std::vector<float> A(static_cast<size_t>(M * K), 1.0f);
  std::vector<float> X(static_cast<size_t>(K), 2.0f);
  std::vector<float> Y(static_cast<size_t>(M), 10.0f);
  sgemv(M, K, A.data(), X.data(), Y.data(), true);
  for (float V : Y)
    EXPECT_FLOAT_EQ(V, 16.0f);
}

TEST(Gemm, ZeroDimensionsAreSafe) {
  std::vector<float> A(1), B(1), C(1, 42.0f);
  sgemm(GemmVariant::Blocked, 0, 0, 0, A.data(), B.data(), C.data(), 0,
        false);
  EXPECT_EQ(C[0], 42.0f);
}

} // namespace
