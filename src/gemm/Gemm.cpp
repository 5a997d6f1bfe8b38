//===- gemm/Gemm.cpp ------------------------------------------------------===//
//
// The Blocked and TransposedB variants run through a BLIS-style packed
// macro-kernel: K is blocked by KC, both operands are packed into
// register-tile panels (zero-padded at the edges), and an MR x NR
// micro-kernel (runtime-dispatched: scalar / AVX2 / AVX-512, see
// MicroKernel.h) computes each C tile from the panels. Work is split across
// the pool with a deterministic getRange partition of the larger tile
// dimension; the pack buffers are thread-local and reused across calls, so
// the serving hot path allocates nothing after warm-up. A PackedOperand
// supplies one operand's panels ready-made (a primitive's weights, packed
// at prepare), and the macro-kernel then packs only the other one.
//
// A product whose N side is narrower than its M side, in padded register
// tiles, runs transposed (C^T = B^T A^T) on the same micro-kernel, so a
// 4-column product does not spend most of an NR-wide tile on zeros.
//
// Bit-identity contract: element C[i][j] accumulates its K products in
// ascending-k order -- fixed KC blocking, register accumulation within a
// block, one add into C per block -- independent of tile position, edge
// handling, orientation, worker count, or partition dimension. sgemm
// therefore returns bitwise-identical results for any Pool/MaxThreads. The
// Naive variant keeps the textbook loops (it is priced as the slow baseline
// primitive). sgemv sums each row in fixed lanes and is likewise
// independent of the pool.
//
//===----------------------------------------------------------------------===//

#include "gemm/Gemm.h"

#include "gemm/MicroKernel.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

using namespace primsel;
using namespace primsel::gemm;

const char *primsel::gemmVariantName(GemmVariant V) {
  switch (V) {
  case GemmVariant::Naive:
    return "naive";
  case GemmVariant::Blocked:
    return "blocked";
  case GemmVariant::TransposedB:
    return "Bt";
  }
  assert(false && "unknown gemm variant");
  return "?";
}

namespace {

void gemmRowNaive(int64_t I, int64_t N, int64_t K, const float *A,
                  const float *B, float *CRow) {
  const float *ARow = A + I * K;
  for (int64_t J = 0; J < N; ++J) {
    float Sum = 0.0f;
    for (int64_t P = 0; P < K; ++P)
      Sum += ARow[P] * B[P * N + J];
    CRow[J] += Sum;
  }
}

//===----------------------------------------------------------------------===//
// Packed macro-kernel path
//===----------------------------------------------------------------------===//

/// Per-thread pack scratch, grown on demand and reused across sgemm calls.
struct PackScratch {
  AlignedBuffer A;
  AlignedBuffer B;
};

PackScratch &packScratch() {
  thread_local PackScratch S;
  return S;
}

void ensureCapacity(AlignedBuffer &Buf, size_t NumFloats) {
  if (Buf.size() < NumFloats)
    Buf.reset(NumFloats);
}

/// Dst[j * LdD + i] = Src[i * LdS + j] for a 4 x 4 block.
inline void transpose4x4(const float *Src, int64_t LdS, float *Dst,
                         int64_t LdD) {
#if defined(__SSE__)
  __m128 R0 = _mm_loadu_ps(Src), R1 = _mm_loadu_ps(Src + LdS),
         R2 = _mm_loadu_ps(Src + 2 * LdS), R3 = _mm_loadu_ps(Src + 3 * LdS);
  _MM_TRANSPOSE4_PS(R0, R1, R2, R3);
  _mm_storeu_ps(Dst, R0);
  _mm_storeu_ps(Dst + LdD, R1);
  _mm_storeu_ps(Dst + 2 * LdD, R2);
  _mm_storeu_ps(Dst + 3 * LdD, R3);
#else
  for (int I = 0; I < 4; ++I)
    for (int J = 0; J < 4; ++J)
      Dst[J * LdD + I] = Src[I * LdS + J];
#endif
}

/// Pack a W-wide panel from an operand stored row-major as Rows x K whose
/// rows become the panel's lanes: Panel[p * W + r] = Src[R0 + r][Pc + p],
/// zero beyond row Rows. Packs A, and B when it is supplied transposed.
/// Whole 4 x 4 blocks are transposed in registers, the rest one by one.
void packRowsPanel(const float *Src, int64_t Rows, int64_t K, int64_t R0,
                   int W, int64_t Pc, int64_t Kc, float *Panel) {
  const int Wr = static_cast<int>(std::min<int64_t>(W, Rows - R0));
  int R = 0;
  for (; R + 4 <= Wr; R += 4) {
    const float *Block = Src + (R0 + R) * K + Pc;
    int64_t P = 0;
    for (; P + 4 <= Kc; P += 4)
      transpose4x4(Block + P, K, Panel + P * W + R, W);
    for (; P < Kc; ++P)
      for (int I = 0; I < 4; ++I)
        Panel[P * W + R + I] = Block[I * K + P];
  }
  for (; R < Wr; ++R) {
    const float *Row = Src + (R0 + R) * K + Pc;
    for (int64_t P = 0; P < Kc; ++P)
      Panel[P * W + R] = Row[P];
  }
  for (; R < W; ++R)
    for (int64_t P = 0; P < Kc; ++P)
      Panel[P * W + R] = 0.0f;
}

/// Pack a W-wide panel from an operand stored row-major as K x Cols whose
/// columns become the panel's lanes: Panel[p * W + c] = Src[Pc + p][C0 + c],
/// zero beyond column Cols. Packs B in its plain storage.
void packColsPanel(const float *Src, int64_t Cols, int64_t C0, int W,
                   int64_t Pc, int64_t Kc, float *Panel) {
  int Wc = static_cast<int>(std::min<int64_t>(W, Cols - C0));
  for (int64_t P = 0; P < Kc; ++P) {
    const float *Row = Src + (Pc + P) * Cols + C0;
    float *Out = Panel + P * W;
    for (int C = 0; C < Wc; ++C)
      Out[C] = Row[C];
    for (int C = Wc; C < W; ++C)
      Out[C] = 0.0f;
  }
}

/// Elements of a Rows x Cols grid once padded to whole MR x NR tiles.
int64_t paddedArea(int64_t Rows, int64_t Cols, int MR, int NR) {
  return (Rows + MR - 1) / MR * MR * ((Cols + NR - 1) / NR * NR);
}

/// The orientation rule, shared by packing and running: C^T = B^T A^T runs
/// the same products on an N x M tile grid, with B packed as the MR-wide
/// panels and A as the NR-wide ones. A 4-column product fills 4 of an
/// NR = 32 tile's columns but 4 of an MR = 8 tile's rows. Every transposed
/// tile is stored through the temp, which costs about NR k-steps of the
/// kernel per tile and K block, so take that grid only when it pads to
/// fewer elements by more than that.
bool runsTransposed(int64_t M, int64_t N, int64_t K, const MicroKernel &MK) {
  const int64_t KcMax = std::min(K, GemmKC);
  return paddedArea(N, M, MK.MR, MK.NR) * (KcMax + MK.NR) <
         paddedArea(M, N, MK.MR, MK.NR) * KcMax;
}

/// Run the micro-kernel on one tile of the kernel-orientation grid (Rows x
/// Cols; C itself when !Swap, C^T when Swap). Edge tiles and every swapped
/// tile go through a stack temp, so the kernel always sees a full MR x NR
/// footprint; the copy-out performs the same single add (or assign) into C
/// that an interior tile's kernel store does, so neither edge handling nor
/// orientation changes bits.
void runTile(const MicroKernel &MK, int64_t Kc, const float *APanel,
             const float *BPanel, float *C, int64_t LdC, int64_t Rows,
             int64_t Cols, int64_t I0, int64_t J0, bool Swap,
             bool AccumBlock) {
  const int MR = MK.MR, NR = MK.NR;
  if (!Swap && I0 + MR <= Rows && J0 + NR <= Cols) {
    MK.Fn(Kc, APanel, BPanel, C + I0 * LdC + J0, LdC, AccumBlock);
    return;
  }
  float Tmp[8 * 32]; // covers the largest tier geometry
  MK.Fn(Kc, APanel, BPanel, Tmp, NR, /*Accumulate=*/false);
  int Mr = static_cast<int>(std::min<int64_t>(MR, Rows - I0));
  int Nr = static_cast<int>(std::min<int64_t>(NR, Cols - J0));
  if (!Swap) {
    for (int I = 0; I < Mr; ++I) {
      float *Row = C + (I0 + I) * LdC + J0;
      const float *Src = Tmp + I * NR;
      if (AccumBlock)
        for (int J = 0; J < Nr; ++J)
          Row[J] += Src[J];
      else
        for (int J = 0; J < Nr; ++J)
          Row[J] = Src[J];
    }
    return;
  }
  // Kernel element (i, j) is C[J0 + j][I0 + i].
  for (int J = 0; J < Nr; ++J) {
    float *Row = C + (J0 + J) * LdC + I0;
    const float *Src = Tmp + J;
    if (AccumBlock)
      for (int I = 0; I < Mr; ++I)
        Row[I] += Src[I * NR];
    else
      for (int I = 0; I < Mr; ++I)
        Row[I] = Src[I * NR];
  }
}

/// The packed path. \p Pre, when set, is operand A (if Pre->side() is A)
/// or B supplied as prepared panels; the matching raw pointer is unused.
/// The tier and orientation are then the prepared operand's own.
void packedGemm(bool BTransposed, int64_t M, int64_t N, int64_t K,
                const float *A, const float *B, const PackedOperand *Pre,
                float *C, int64_t LdC, bool Accumulate, ThreadPool *Pool,
                int MaxThreads) {
  const MicroKernel &MK =
      Pre ? microKernelFor(Pre->tier()) : activeMicroKernel();
  const int MR = MK.MR, NR = MK.NR;
  const int64_t KcMax = std::min(K, GemmKC);
  const bool Swap = Pre ? Pre->transposed() : runsTransposed(M, N, K, MK);
  const int64_t Rows = Swap ? N : M, Cols = Swap ? M : N;
  const int64_t MTiles = (Rows + MR - 1) / MR;
  const int64_t NTiles = (Cols + NR - 1) / NR;
  // Which grid side (MR-wide row panels or NR-wide column panels) comes
  // prepared: operand A feeds the rows unless the grid is transposed.
  const bool RowsPrepared = Pre && (Pre->side() == GemmSide::A) != Swap;
  const bool ColsPrepared = Pre && !RowsPrepared;
  assert((!Pre || Pre->width() == (RowsPrepared ? MR : NR)) &&
         "prepared panels of another width");
  // Partition the dimension with more register tiles; conv GEMMs typically
  // have a short M (output channels) and a long N (output pixels). The
  // choice only redistributes work -- it never changes any element's math.
  const bool SplitN = NTiles >= MTiles;
  // A-block height per compute sweep, in tiles: keeps the packed A slice
  // resident in L2 while B panels stream past it.
  const int64_t MCTiles = std::max<int64_t>(1, 192 / MR);

  int64_t W = 1;
  if (Pool && Pool->numThreads() > 1) {
    W = std::min<int64_t>(Pool->numThreads(), SplitN ? NTiles : MTiles);
    if (MaxThreads > 0)
      W = std::min<int64_t>(W, MaxThreads);
  }

  PackScratch &S = packScratch();
  if (!RowsPrepared)
    ensureCapacity(S.A, static_cast<size_t>(MTiles * MR * KcMax));
  if (!ColsPrepared)
    ensureCapacity(S.B, static_cast<size_t>(NTiles * NR * KcMax));
  float *APack = S.A.data();
  float *BPack = S.B.data();

  for (int64_t Pc = 0; Pc < K; Pc += GemmKC) {
    const int64_t Kc = std::min(GemmKC, K - Pc);
    const bool AccumBlock = Accumulate || Pc > 0;
    // Panel bases of this K block: prepared panels sit Pc * paddedLanes
    // into the operand, Kc * width apart; scratch panels KcMax * width.
    const float *PreBlock = Pre ? Pre->data() + Pc * (Pre->floats() / K)
                                : nullptr;
    const float *ARows = RowsPrepared ? PreBlock : APack;
    const float *BCols = ColsPrepared ? PreBlock : BPack;
    const int64_t AStride = (RowsPrepared ? Kc : KcMax) * MR;
    const int64_t BStride = (ColsPrepared ? Kc : KcMax) * NR;

    // A W-wide panel of the caller's A (rows from I0) or B (columns from J0).
    auto PackOfA = [&](int64_t I0, int Width, float *Panel) {
      packRowsPanel(A, M, K, I0, Width, Pc, Kc, Panel);
    };
    auto PackOfB = [&](int64_t J0, int Width, float *Panel) {
      if (BTransposed)
        packRowsPanel(B, N, K, J0, Width, Pc, Kc, Panel);
      else
        packColsPanel(B, N, J0, Width, Pc, Kc, Panel);
    };
    auto PackARange = [&](int64_t TB, int64_t TE) {
      if (RowsPrepared)
        return;
      for (int64_t It = TB; It < TE; ++It) {
        float *Panel = APack + It * AStride;
        if (Swap)
          PackOfB(It * MR, MR, Panel);
        else
          PackOfA(It * MR, MR, Panel);
      }
    };
    auto PackBRange = [&](int64_t TB, int64_t TE) {
      if (ColsPrepared)
        return;
      for (int64_t Jt = TB; Jt < TE; ++Jt) {
        float *Panel = BPack + Jt * BStride;
        if (Swap)
          PackOfA(Jt * NR, NR, Panel);
        else
          PackOfB(Jt * NR, NR, Panel);
      }
    };

    // Sweep the C tiles for a j-tile range crossed with an i-tile range,
    // blocking the i sweep so one packed A slice is reused across the
    // whole j range before moving on.
    auto Compute = [&](int64_t IB, int64_t IE, int64_t JB, int64_t JE) {
      for (int64_t It0 = IB; It0 < IE; It0 += MCTiles) {
        int64_t It1 = std::min(It0 + MCTiles, IE);
        for (int64_t Jt = JB; Jt < JE; ++Jt)
          for (int64_t It = It0; It < It1; ++It)
            runTile(MK, Kc, ARows + It * AStride, BCols + Jt * BStride, C,
                    LdC, Rows, Cols, It * MR, Jt * NR, Swap, AccumBlock);
      }
    };

    if (W == 1) {
      PackARange(0, MTiles);
      PackBRange(0, NTiles);
      Compute(0, MTiles, 0, NTiles);
      continue;
    }

    if (SplitN) {
      // Shared operand A is packed cooperatively first (unless prepared);
      // each worker then packs and consumes its own j-tile slice.
      if (!RowsPrepared)
        Pool->parallelFor(0, W, [&](int64_t Slot) {
          int64_t TB, TE;
          getRange(MTiles, W, Slot, TB, TE);
          PackARange(TB, TE);
        });
      Pool->parallelFor(0, W, [&](int64_t Slot) {
        int64_t JB, JE;
        getRange(NTiles, W, Slot, JB, JE);
        PackBRange(JB, JE);
        Compute(0, MTiles, JB, JE);
      });
    } else {
      if (!ColsPrepared)
        Pool->parallelFor(0, W, [&](int64_t Slot) {
          int64_t TB, TE;
          getRange(NTiles, W, Slot, TB, TE);
          PackBRange(TB, TE);
        });
      Pool->parallelFor(0, W, [&](int64_t Slot) {
        int64_t IB, IE;
        getRange(MTiles, W, Slot, IB, IE);
        PackARange(IB, IE);
        Compute(IB, IE, 0, NTiles);
      });
    }
  }
}

/// sgemm's degenerate shapes: true (after zeroing C unless accumulating)
/// when there is nothing to multiply.
bool trivialProduct(int64_t M, int64_t N, int64_t K, float *C, int64_t LdC,
                    bool Accumulate) {
  assert(M >= 0 && N >= 0 && K >= 0 && "negative GEMM dimensions");
  assert(LdC >= N && "C row stride shorter than row");
  if (M == 0 || N == 0)
    return true;
  if (K != 0)
    return false;
  if (!Accumulate)
    for (int64_t I = 0; I < M; ++I)
      std::memset(C + I * LdC, 0, static_cast<size_t>(N) * sizeof(float));
  return true;
}

} // namespace

void primsel::sgemm(GemmVariant Variant, int64_t M, int64_t N, int64_t K,
                    const float *A, const float *B, float *C, int64_t LdC,
                    bool Accumulate, ThreadPool *Pool, int MaxThreads) {
  if (trivialProduct(M, N, K, C, LdC, Accumulate))
    return;
  if (Variant != GemmVariant::Naive) {
    packedGemm(Variant == GemmVariant::TransposedB, M, N, K, A, B, nullptr, C,
               LdC, Accumulate, Pool, MaxThreads);
    return;
  }

  auto RunRow = [&](int64_t I) {
    float *CRow = C + I * LdC;
    if (!Accumulate)
      std::memset(CRow, 0, static_cast<size_t>(N) * sizeof(float));
    gemmRowNaive(I, N, K, A, B, CRow);
  };
  if (Pool && Pool->numThreads() > 1) {
    Pool->parallelFor(0, M, RunRow, MaxThreads);
    return;
  }
  for (int64_t I = 0; I < M; ++I)
    RunRow(I);
}

PackedOperand::PackedOperand(GemmSide Side, int64_t M, int64_t N, int64_t K)
    : Lanes(Side == GemmSide::A ? M : N), K(K), Side(Side) {
  const MicroKernel &MK = activeMicroKernel();
  Tier = MK.Tier;
  Swap = runsTransposed(M, N, K, MK);
  Width = (Side == GemmSide::A) != Swap ? MK.MR : MK.NR;
}

PackedOperands::PackedOperands(const PackedOperand &Geometry, int64_t Count)
    : Storage(Geometry.floats() * static_cast<size_t>(Count)),
      Ops(static_cast<size_t>(Count), Geometry) {
  for (size_t I = 0; I < Ops.size(); ++I)
    Ops[I].place(Storage.data() + I * Geometry.floats());
}

void primsel::sgemm(GemmVariant Variant, int64_t M, int64_t N, int64_t K,
                    const PackedOperand &A, const float *B, float *C,
                    int64_t LdC, bool Accumulate, ThreadPool *Pool,
                    int MaxThreads) {
  assert(Variant != GemmVariant::Naive && "naive GEMM reads no panels");
  assert(A.side() == GemmSide::A && A.lanes() == M && A.depth() == K &&
         "operand packed for another shape");
  if (trivialProduct(M, N, K, C, LdC, Accumulate))
    return;
  packedGemm(Variant == GemmVariant::TransposedB, M, N, K, nullptr, B, &A, C,
             LdC, Accumulate, Pool, MaxThreads);
}

void primsel::sgemm(int64_t M, int64_t N, int64_t K, const float *A,
                    const PackedOperand &B, float *C, int64_t LdC,
                    bool Accumulate, ThreadPool *Pool, int MaxThreads) {
  assert(B.side() == GemmSide::B && B.lanes() == N && B.depth() == K &&
         "operand packed for another shape");
  if (trivialProduct(M, N, K, C, LdC, Accumulate))
    return;
  packedGemm(/*BTransposed=*/false, M, N, K, A, nullptr, &B, C, LdC,
             Accumulate, Pool, MaxThreads);
}

void primsel::sgemv(int64_t M, int64_t K, const float *A, const float *X,
                    float *Y, bool Accumulate, ThreadPool *Pool) {
  // Each row sums into Lanes independent partial sums (element p of a
  // whole Lanes-wide chunk goes to lane p % Lanes), so the chunk loop
  // vectorizes without reassociating; the lanes are then added in lane
  // order and the K tail in ascending order. The order depends only on K.
  constexpr int Lanes = 16;
  auto RunRow = [&](int64_t I) {
    const float *ARow = A + I * K;
    float Part[Lanes] = {};
    int64_t P = 0;
    for (; P + Lanes <= K; P += Lanes)
      for (int L = 0; L < Lanes; ++L)
        Part[L] += ARow[P + L] * X[P + L];
    float Sum = 0.0f;
    for (int L = 0; L < Lanes; ++L)
      Sum += Part[L];
    for (; P < K; ++P)
      Sum += ARow[P] * X[P];
    Y[I] = Accumulate ? Y[I] + Sum : Sum;
  };
  if (Pool && Pool->numThreads() > 1) {
    Pool->parallelFor(0, M, RunRow);
    return;
  }
  for (int64_t I = 0; I < M; ++I)
    RunRow(I);
}
