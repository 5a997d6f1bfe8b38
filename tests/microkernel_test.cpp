//===- tests/microkernel_test.cpp - Packed micro-kernel tests -------------===//
//
// Unit tests for the register-blocked micro-kernels behind the packed GEMM
// (gemm/MicroKernel.h): every dispatch tier the host can run is exercised
// directly on packed panels, and through sgemm on edge-tile shapes (M, N, K
// not multiples of the register block, including 1x1 and K=1). The packed
// path's numerical contract -- bitwise identity across worker counts and
// partitionings, and under the transposed orientation sgemm picks for
// narrow products -- is asserted per tier.
//
//===----------------------------------------------------------------------===//

#include "gemm/Gemm.h"
#include "gemm/MicroKernel.h"

#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

using namespace primsel;
using namespace primsel::gemm;

namespace {

std::vector<float> randomVec(size_t N, uint64_t Seed) {
  std::vector<float> V(N);
  fillRandom(V.data(), N, Seed);
  return V;
}

/// Trusted double-precision reference for C = A * B (+ C).
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

/// RAII guard so a forced tier never leaks into other tests.
struct TierOverrideGuard {
  TierOverrideGuard() : Saved(activeMicroKernel().Tier) {}
  ~TierOverrideGuard() { setSimdTierOverride(Saved); }
  SimdTier Saved;
};

class MicroKernelAllTiers : public ::testing::TestWithParam<SimdTier> {
protected:
  void SetUp() override {
    if (microKernelFor(GetParam()).Tier != GetParam())
      GTEST_SKIP() << "tier " << simdTierName(GetParam())
                   << " unsupported on this host";
  }
};

// The kernel function itself, on hand-packed full panels: an MR x NR tile
// over several K depths, assign and accumulate stores.
TEST_P(MicroKernelAllTiers, KernelMatchesReferenceOnPackedPanels) {
  const MicroKernel &MK = microKernelFor(GetParam());
  const int64_t MR = MK.MR, NR = MK.NR;
  for (int64_t K : {int64_t(1), int64_t(2), int64_t(7), int64_t(64)}) {
    std::vector<float> A =
        randomVec(static_cast<size_t>(MR * K), 100 + static_cast<uint64_t>(K));
    std::vector<float> B =
        randomVec(static_cast<size_t>(K * NR), 200 + static_cast<uint64_t>(K));
    // Pack: APanel[k*MR+i] = A[i][k], BPanel[k*NR+j] = B[k][j].
    std::vector<float> APanel(static_cast<size_t>(K * MR));
    for (int64_t P = 0; P < K; ++P)
      for (int64_t I = 0; I < MR; ++I)
        APanel[static_cast<size_t>(P * MR + I)] =
            A[static_cast<size_t>(I * K + P)];
    std::vector<float> CInit = randomVec(static_cast<size_t>(MR * NR), 300);

    for (bool Accumulate : {false, true}) {
      std::vector<float> C = CInit;
      MK.Fn(K, APanel.data(), B.data(), C.data(), NR, Accumulate);
      std::vector<float> Want =
          referenceGemm(MR, NR, K, A, B, CInit, Accumulate);
      float Tol = 1e-4f * static_cast<float>(K);
      for (size_t I = 0; I < C.size(); ++I)
        ASSERT_NEAR(C[I], Want[I], Tol)
            << simdTierName(MK.Tier) << " K=" << K << " acc=" << Accumulate
            << " at " << I;
    }
  }
}

// Edge tiles through the full packed path: M, N, K not multiples of MR/NR
// (including sub-tile, 1x1, and K=1 shapes) for both packed variants.
TEST_P(MicroKernelAllTiers, EdgeTilesMatchReferenceThroughSgemm) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const MicroKernel &MK = activeMicroKernel();
  const int64_t MR = MK.MR, NR = MK.NR;

  struct Case {
    int64_t M, N, K;
  };
  const Case Cases[] = {
      {1, 1, 1},           {1, 1, 257},        {MR - 1, NR - 1, 3},
      {MR + 1, NR + 1, 1}, {MR, NR, 256},      {2 * MR + 1, NR, 5},
      {MR, 2 * NR + 3, 5}, {3 * MR - 1, 3 * NR - 1, 300},
      {1, 4 * NR, 17},     {4 * MR, 1, 17},
  };
  for (const Case &Sz : Cases) {
    std::vector<float> A =
        randomVec(static_cast<size_t>(Sz.M * Sz.K),
                  static_cast<uint64_t>(Sz.M * 31 + Sz.N * 7 + Sz.K));
    std::vector<float> B = randomVec(static_cast<size_t>(Sz.K * Sz.N),
                                     static_cast<uint64_t>(Sz.N * 13 + Sz.K));
    std::vector<float> CInit =
        randomVec(static_cast<size_t>(Sz.M * Sz.N), 99);

    for (bool Accumulate : {false, true}) {
      std::vector<float> Want =
          referenceGemm(Sz.M, Sz.N, Sz.K, A, B, CInit, Accumulate);
      float Tol = 1e-4f * static_cast<float>(Sz.K);

      std::vector<float> C = CInit;
      sgemm(GemmVariant::Blocked, Sz.M, Sz.N, Sz.K, A.data(), B.data(),
            C.data(), Sz.N, Accumulate);
      for (size_t I = 0; I < C.size(); ++I)
        ASSERT_NEAR(C[I], Want[I], Tol)
            << simdTierName(MK.Tier) << " blocked " << Sz.M << "x" << Sz.N
            << "x" << Sz.K << " acc=" << Accumulate << " at " << I;

      // TransposedB must agree too (same micro-kernel, B packed from B^T).
      std::vector<float> Bt(static_cast<size_t>(Sz.N * Sz.K));
      for (int64_t P = 0; P < Sz.K; ++P)
        for (int64_t J = 0; J < Sz.N; ++J)
          Bt[static_cast<size_t>(J * Sz.K + P)] =
              B[static_cast<size_t>(P * Sz.N + J)];
      std::vector<float> Ct = CInit;
      sgemm(GemmVariant::TransposedB, Sz.M, Sz.N, Sz.K, A.data(), Bt.data(),
            Ct.data(), Sz.N, Accumulate);
      for (size_t I = 0; I < Ct.size(); ++I)
        ASSERT_NEAR(Ct[I], Want[I], Tol)
            << simdTierName(MK.Tier) << " transposedB " << Sz.M << "x" << Sz.N
            << "x" << Sz.K << " acc=" << Accumulate << " at " << I;
    }
  }
}

// The numerical contract: for one tier, the packed path is bitwise
// identical across pool widths and worker caps (partitioning redistributes
// whole tiles, never the order of per-element accumulation).
TEST_P(MicroKernelAllTiers, BitIdenticalAcrossWorkerCounts) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const MicroKernel &MK = activeMicroKernel();

  const int64_t M = 3 * MK.MR + 2, N = 2 * MK.NR + 5, K = 300;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 5);
  std::vector<float> B = randomVec(static_cast<size_t>(K * N), 6);

  std::vector<float> Serial(static_cast<size_t>(M * N), 0.0f);
  sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), Serial.data(), N,
        false);

  ThreadPool Pool(4);
  for (int MaxThreads : {0, 1, 2, 3, 4}) {
    std::vector<float> C(static_cast<size_t>(M * N), 0.0f);
    sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C.data(), N,
          false, &Pool, MaxThreads);
    for (size_t I = 0; I < C.size(); ++I)
      ASSERT_EQ(C[I], Serial[I])
          << simdTierName(MK.Tier) << " MaxThreads=" << MaxThreads << " at "
          << I;
  }
}

// Orientation: sgemm may run a narrow product as C^T = B^T A^T. Whichever
// grid it picks, C must equal, byte for byte, the transpose of sgemm on the
// transposed problem (one of the two runs narrow-N, the other narrow-M),
// with and without accumulation, into a strided C, on 1 and 4 workers; and
// it must leave C's row padding alone.
TEST_P(MicroKernelAllTiers, OrientationNeverChangesBits) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const MicroKernel &MK = activeMicroKernel();
  const int64_t MR = MK.MR, NR = MK.NR;
  const float Sentinel = 12345.0f;

  struct Case {
    int64_t M, N;
  };
  const Case Cases[] = {{24 * MR + 1, 2}, {2, 24 * NR + 5}, {5 * MR + 3, 3}};
  ThreadPool Pool(4);
  for (const Case &Sz : Cases)
    for (int64_t K : {int64_t(17), int64_t(300)}) {
      const int64_t M = Sz.M, N = Sz.N, LdC = N + 3, LdCt = M + 5;
      std::vector<float> A = randomVec(static_cast<size_t>(M * K), 40 + K);
      std::vector<float> B = randomVec(static_cast<size_t>(K * N), 50 + K);
      std::vector<float> At(A.size()), Bt(B.size());
      for (int64_t I = 0; I < M; ++I)
        for (int64_t P = 0; P < K; ++P)
          At[static_cast<size_t>(P * M + I)] = A[static_cast<size_t>(I * K + P)];
      for (int64_t P = 0; P < K; ++P)
        for (int64_t J = 0; J < N; ++J)
          Bt[static_cast<size_t>(J * K + P)] = B[static_cast<size_t>(P * N + J)];
      std::vector<float> CInit = randomVec(static_cast<size_t>(M * N), 60);

      for (bool Accumulate : {false, true})
        for (ThreadPool *P : {static_cast<ThreadPool *>(nullptr), &Pool}) {
          std::vector<float> C(static_cast<size_t>(M * LdC), Sentinel);
          std::vector<float> Ct(static_cast<size_t>(N * LdCt), Sentinel);
          for (int64_t I = 0; I < M; ++I)
            for (int64_t J = 0; J < N; ++J) {
              float V = CInit[static_cast<size_t>(I * N + J)];
              C[static_cast<size_t>(I * LdC + J)] = V;
              Ct[static_cast<size_t>(J * LdCt + I)] = V;
            }
          sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C.data(),
                LdC, Accumulate, P);
          sgemm(GemmVariant::Blocked, N, M, K, Bt.data(), At.data(),
                Ct.data(), LdCt, Accumulate, P);

          std::vector<float> Want =
              referenceGemm(M, N, K, A, B, CInit, Accumulate);
          const float Tol = 1e-4f * static_cast<float>(K);
          for (int64_t I = 0; I < M; ++I) {
            for (int64_t J = 0; J < N; ++J) {
              float Got = C[static_cast<size_t>(I * LdC + J)];
              float Tr = Ct[static_cast<size_t>(J * LdCt + I)];
              ASSERT_EQ(std::memcmp(&Got, &Tr, sizeof(float)), 0)
                  << simdTierName(MK.Tier) << " " << M << "x" << N << "x" << K
                  << " acc=" << Accumulate << " pool=" << (P != nullptr)
                  << " at (" << I << ", " << J << ")";
              ASSERT_NEAR(Got, Want[static_cast<size_t>(I * N + J)], Tol);
            }
            for (int64_t J = N; J < LdC; ++J)
              ASSERT_EQ(C[static_cast<size_t>(I * LdC + J)], Sentinel);
          }
          for (int64_t J = 0; J < N; ++J)
            for (int64_t I = M; I < LdCt; ++I)
              ASSERT_EQ(Ct[static_cast<size_t>(J * LdCt + I)], Sentinel);
        }
    }
}

// A prepared operand stands in for the raw one: for either side, with B
// stored plainly or transposed, in both orientations (the scalar tier's
// square tile has only one), K within one KC slab, filling it and spanning
// two, lane counts off every tier's register widths, accumulating or not,
// into a strided C, with no pool and on 4 workers, the product is byte for
// byte sgemm's on the raw operand, and C's row padding stays untouched.
TEST_P(MicroKernelAllTiers, PackedOperandMatchesSgemmBytes) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const MicroKernel &MK = activeMicroKernel();
  const float Sentinel = 12345.0f;
  ThreadPool Pool(4);
  bool Seen[2][2] = {}; // [side][transposed]

  for (int64_t K : {int64_t(17), int64_t(256), int64_t(300)})
    for (int64_t Lanes : {int64_t(13), int64_t(40)})
      for (int64_t Other : {int64_t(3), int64_t(200)})
        for (GemmSide Side : {GemmSide::A, GemmSide::B}) {
          const int64_t M = Side == GemmSide::A ? Lanes : Other;
          const int64_t N = Side == GemmSide::A ? Other : Lanes;
          const int64_t LdC = N + 3;
          std::vector<float> A = randomVec(static_cast<size_t>(M * K), 70 + K);
          std::vector<float> B = randomVec(static_cast<size_t>(K * N), 80 + K);
          std::vector<float> Bt(B.size());
          for (int64_t P = 0; P < K; ++P)
            for (int64_t J = 0; J < N; ++J)
              Bt[static_cast<size_t>(J * K + P)] =
                  B[static_cast<size_t>(P * N + J)];
          std::vector<float> CInit =
              randomVec(static_cast<size_t>(M * LdC), 90);
          for (int64_t I = 0; I < M; ++I)
            for (int64_t J = N; J < LdC; ++J)
              CInit[static_cast<size_t>(I * LdC + J)] = Sentinel;

          PackedOperand Op(Side, M, N, K);
          EXPECT_EQ(Op.tier(), MK.Tier);
          std::vector<float> Panels(Op.floats());
          Op.place(Panels.data());
          Seen[Side == GemmSide::B][Op.transposed()] = true;

          for (GemmVariant V : {GemmVariant::Blocked, GemmVariant::TransposedB}) {
            const bool Tb = V == GemmVariant::TransposedB;
            // Operand B is packed from whichever storage the variant reads.
            if (Side == GemmSide::A)
              Op.fill([&](int64_t L, int64_t P) {
                return A[static_cast<size_t>(L * K + P)];
              });
            else
              Op.fill([&](int64_t L, int64_t P) {
                return Tb ? Bt[static_cast<size_t>(L * K + P)]
                          : B[static_cast<size_t>(P * N + L)];
              });
            const float *RawB = Tb ? Bt.data() : B.data();
            for (bool Accumulate : {false, true})
              for (ThreadPool *P : {static_cast<ThreadPool *>(nullptr), &Pool}) {
                std::vector<float> Want = CInit, Got = CInit;
                sgemm(V, M, N, K, A.data(), RawB, Want.data(), LdC,
                      Accumulate, P);
                if (Side == GemmSide::A)
                  sgemm(V, M, N, K, Op, RawB, Got.data(), LdC, Accumulate, P);
                else
                  sgemm(M, N, K, A.data(), Op, Got.data(), LdC, Accumulate,
                        P);
                ASSERT_EQ(std::memcmp(Got.data(), Want.data(),
                                      Got.size() * sizeof(float)),
                          0)
                    << simdTierName(MK.Tier) << " side "
                    << (Side == GemmSide::A ? "A " : "B ") << M << "x" << N
                    << "x" << K << " " << gemmVariantName(V)
                    << " transposed=" << Op.transposed()
                    << " acc=" << Accumulate << " pool=" << (P != nullptr);
              }
          }
        }
  for (int Side = 0; Side < 2; ++Side) {
    EXPECT_TRUE(Seen[Side][0]) << "side " << Side << " never ran upright";
    if (MK.MR != MK.NR) {
      EXPECT_TRUE(Seen[Side][1]) << "side " << Side << " never ran transposed";
    }
  }
}

// The group visitor states the panel order that forEachSlot, fill and the
// Winograd weight transform all write through: each (lane group, depth)
// once, in storage order, at the documented offset, and its groups
// expanded lane by lane are exactly forEachSlot's slots, in order. K = 300
// crosses a GemmKC slab, and 37 lanes leave the last group ragged at every
// tier's width.
TEST_P(MicroKernelAllTiers, GroupVisitorYieldsTheSlotOrder) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const int64_t K = 300, Lanes = 37;
  struct Slot {
    int64_t Lane, P, Offset;
    bool operator==(const Slot &O) const {
      return Lane == O.Lane && P == O.P && Offset == O.Offset;
    }
  };
  for (int64_t Other : {int64_t(3), int64_t(200)})
    for (GemmSide Side : {GemmSide::A, GemmSide::B}) {
      const int64_t M = Side == GemmSide::A ? Lanes : Other;
      const int64_t N = Side == GemmSide::A ? Other : Lanes;
      const PackedOperand Op(Side, M, N, K);
      const int64_t W = Op.width();
      ASSERT_NE(Lanes % W, 0) << "37 lanes fill every group at width " << W;
      const int64_t Padded = (Lanes + W - 1) / W * W;
      std::vector<Slot> Slots, Expanded;
      Op.forEachSlot([&](int64_t L, int64_t P, int64_t Off) {
        Slots.push_back({L, P, Off});
      });
      int64_t Next = 0;
      Op.forEachGroup([&](int64_t L0, int64_t P, int64_t Off) {
        const int64_t Pc = P / GemmKC * GemmKC;
        const int64_t Kc = std::min(GemmKC, K - Pc);
        ASSERT_EQ(L0 % W, 0);
        ASSERT_EQ(Off, Pc * Padded + L0 / W * Kc * W + (P - Pc) * W)
            << "lane " << L0 << " depth " << P;
        ASSERT_EQ(Off, Next) << "lane " << L0 << " depth " << P;
        Next = Off + W;
        for (int64_t L = 0; L < W; ++L)
          Expanded.push_back({L0 + L, P, Off + L});
      });
      EXPECT_EQ(static_cast<size_t>(Next), Op.floats());
      EXPECT_TRUE(Expanded == Slots)
          << (Side == GemmSide::A ? "side A " : "side B ") << M << "x" << N
          << "x" << K << " width " << W;
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, MicroKernelAllTiers,
                         ::testing::Values(SimdTier::Scalar, SimdTier::AVX2,
                                           SimdTier::AVX512),
                         [](const ::testing::TestParamInfo<SimdTier> &Info) {
                           return simdTierName(Info.param);
                         });

// An operand records the tier it was packed for: packed at the best tier
// the host runs, it still computes that tier's bytes after the process
// drops to the scalar tier.
TEST(PackedOperand, KeepsTheTierItWasPackedFor) {
  TierOverrideGuard Guard;
  const SimdTier Best = setSimdTierOverride(SimdTier::AVX512);
  const int64_t M = 40, N = 13, K = 300;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 7);
  std::vector<float> B = randomVec(static_cast<size_t>(K * N), 8);
  std::vector<float> Want(static_cast<size_t>(M * N), 0.0f);
  sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), Want.data(), N,
        false);

  PackedOperand Op(GemmSide::A, M, N, K);
  std::vector<float> Panels(Op.floats());
  Op.place(Panels.data());
  Op.fill([&](int64_t L, int64_t P) { return A[static_cast<size_t>(L * K + P)]; });
  ASSERT_EQ(Op.tier(), Best);

  setSimdTierOverride(SimdTier::Scalar);
  std::vector<float> Got(Want.size(), 0.0f);
  sgemm(GemmVariant::Blocked, M, N, K, Op, B.data(), Got.data(), N, false);
  EXPECT_EQ(std::memcmp(Got.data(), Want.data(), Got.size() * sizeof(float)),
            0)
      << "packed at " << simdTierName(Best);
}

TEST(MicroKernelDispatch, FallbackNeverExceedsRequestedTier) {
  for (SimdTier T : {SimdTier::Scalar, SimdTier::AVX2, SimdTier::AVX512})
    EXPECT_LE(static_cast<int>(microKernelFor(T).Tier), static_cast<int>(T));
}

TEST(MicroKernelDispatch, GetRangeCoversExactlyOnce) {
  for (int64_t Total : {int64_t(0), int64_t(1), int64_t(7), int64_t(64),
                        int64_t(65)}) {
    for (int64_t Slots : {int64_t(1), int64_t(3), int64_t(8)}) {
      int64_t Covered = 0, PrevEnd = 0;
      for (int64_t S = 0; S < Slots; ++S) {
        int64_t Begin, End;
        getRange(Total, Slots, S, Begin, End);
        EXPECT_EQ(Begin, PrevEnd);
        EXPECT_LE(Begin, End);
        Covered += End - Begin;
        PrevEnd = End;
      }
      EXPECT_EQ(Covered, Total);
      EXPECT_EQ(PrevEnd, Total);
    }
  }
}

} // namespace
