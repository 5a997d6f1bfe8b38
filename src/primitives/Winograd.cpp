//===- primitives/Winograd.cpp - Winograd convolution primitives ---------===//
//
// Part of primsel. See DESIGN.md.
//
// The Winograd family (paper §4): minimal-filtering convolution for K = 3
// and K = 5. Two-dimensional variants transform N x N input tiles
// (Y = A^T [(G g G^T) .* (B^T d B)] A) and run the pointwise stage as one
// M x C x Tiles sgemm per frequency (Lavin & Gray's formulation) -- fast but
// memory hungry. The one-dimensional variants apply F(m, r) along rows:
// each block of up to RowBlock output rows transforms its input rows once,
// then runs one sgemm per (frequency, kernel row) over the block's tiles,
// accumulating over kernel rows. More floating point operations but a
// working set of a few rows, which is why the paper's optimizer prefers
// them on the small-cache ARM target (Figure 4). The input and output
// transforms run over blocks of consecutive tiles with the tile as the
// inner (vector) index; the vector-factor variants (vf4/vf8) set that block
// width, mirroring the paper's 4-way NEON vs 8-way AVX2 Winograd codes.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "gemm/Gemm.h"
#include "primitives/Reference.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"
#include "winograd/ToomCook.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

using namespace primsel;

namespace {

struct WinoConfig {
  int64_t M;      ///< outputs per tile (per dimension)
  int64_t R;      ///< filter taps; must equal the scenario's K
  bool TwoD;      ///< 2D tiles vs row-wise 1D
  int TileBlock;  ///< tiles per transform block: the "vector factor"
  Layout In;
  Layout Out;
  const char *Name;
};

/// Largest tile size N = m + r - 1 of the registered configs (F(3, 5)).
constexpr int64_t MaxN = 7;

/// Output rows per block of the 1D schedule.
constexpr int64_t RowBlock = 8;

/// ceil(A / B) for positive operands.
int64_t ceilDiv(int64_t A, int64_t B) { return (A + B - 1) / B; }

/// Dst[o][x][l] = sum_a Mat[o][a] * Src[a][x][l] for o < Out, x < Inner and
/// the TB lanes l of a tile block; Mat is Out x In row-major. The exact
/// zeros of the Toom-Cook matrices are skipped.
template <int TB>
void applyMatrix(const float *Mat, int64_t Out, int64_t In, int64_t Inner,
                 const float *Src, float *Dst) {
  const int64_t Len = Inner * TB;
  for (int64_t O = 0; O < Out; ++O) {
    float *D = Dst + O * Len;
    std::fill(D, D + Len, 0.0f);
    for (int64_t A = 0; A < In; ++A) {
      const float W = Mat[O * In + A];
      if (W == 0.0f)
        continue;
      const float *S = Src + A * Len;
      for (int64_t X = 0; X < Len; ++X)
        D[X] += W * S[X];
    }
  }
}

/// Copy \p In into \p P, a zero-margined Hp x Wp CHW tensor with the image
/// at offset (Pad, Pad). Reads go through logical strides, so an HWC input
/// pays its gather cost here. P is only (re)allocated when its shape
/// changed, so the instance-held scratch is reused run after run.
void makeWinogradInputInto(const Tensor3D &In, int64_t Pad, int64_t Hp,
                           int64_t Wp, Tensor3D &P) {
  if (P.channels() != In.channels() || P.height() != Hp || P.width() != Wp ||
      P.layout() != Layout::CHW)
    P = Tensor3D(In.channels(), Hp, Wp, Layout::CHW);
  P.zero();
  const int64_t SC = In.stride(Dim::C), SH = In.stride(Dim::H),
                SW = In.stride(Dim::W);
  const float *Src = In.data();
  float *Dst = P.data();
  for (int64_t Ch = 0; Ch < In.channels(); ++Ch)
    for (int64_t R = 0; R < In.height(); ++R) {
      float *DRow = Dst + (Ch * Hp + R + Pad) * Wp + Pad;
      const float *SRow = Src + Ch * SC + R * SH;
      if (SW == 1)
        std::memcpy(DRow, SRow,
                    static_cast<size_t>(In.width()) * sizeof(float));
      else
        for (int64_t Col = 0; Col < In.width(); ++Col)
          DRow[Col] = SRow[Col * SW];
    }
}

/// Widest panel lane group of any micro-kernel tier (AVX-512's NR).
constexpr int MaxGroupWidth = 32;

/// The transformed kernel of one panel lane group: filters F0 .. F0 +
/// Lanes - 1 at one channel. \p Taps is filter F0's R x R taps there and
/// each next filter's sit \p TapStride floats on. Operand f (2D: f = i*N +
/// j; 1D: f = kr*N + i) gets the group's values at Dst + f * Stride,
/// lane-innermost, with zeros in the padding lanes up to \p Width. Every
/// lane runs the operations of the per-filter transform in its order, from
/// +0 in ascending tap order, so the lanes change no bits; with N and R
/// fixed, only the lane loops are left to run.
template <int N, int R, bool TwoD>
void transformLaneGroup(const float *G, const float *Taps, int64_t TapStride,
                        int Lanes, int Width, float *Dst, int64_t Stride) {
  constexpr int Count = TwoD ? N * N : R * N;
  float Gt[R * R][MaxGroupWidth]; // Gt[tap][lane]
  float U[Count][MaxGroupWidth];
  for (int L = 0; L < Lanes; ++L)
    for (int T = 0; T < R * R; ++T)
      Gt[T][L] = Taps[L * TapStride + T];
  if constexpr (TwoD) {
    // Tmp = G (N x R) * g (R x R).
    float Tmp[N * R][MaxGroupWidth];
    for (int I = 0; I < N; ++I)
      for (int B = 0; B < R; ++B) {
        float *Acc = Tmp[I * R + B];
        std::fill(Acc, Acc + Lanes, 0.0f);
        for (int A = 0; A < R; ++A) {
          const float Coef = G[I * R + A];
          for (int L = 0; L < Lanes; ++L)
            Acc[L] += Coef * Gt[A * R + B][L];
        }
      }
    // u[i][j] = sum_b Tmp[i][b] * G[j][b].
    for (int I = 0; I < N; ++I)
      for (int J = 0; J < N; ++J) {
        float *Acc = U[I * N + J];
        std::fill(Acc, Acc + Lanes, 0.0f);
        for (int B = 0; B < R; ++B) {
          const float Coef = G[J * R + B];
          for (int L = 0; L < Lanes; ++L)
            Acc[L] += Tmp[I * R + B][L] * Coef;
        }
      }
  } else {
    // u[kr][i] = sum_a G[i][a] * g[kr][a].
    for (int Kr = 0; Kr < R; ++Kr)
      for (int I = 0; I < N; ++I) {
        float *Acc = U[Kr * N + I];
        std::fill(Acc, Acc + Lanes, 0.0f);
        for (int A = 0; A < R; ++A) {
          const float Coef = G[I * R + A];
          for (int L = 0; L < Lanes; ++L)
            Acc[L] += Coef * Gt[Kr * R + A][L];
        }
      }
  }
  for (int F = 0; F < Count; ++F) {
    float *Out = Dst + F * Stride;
    std::memcpy(Out, U[F], static_cast<size_t>(Lanes) * sizeof(float));
    std::fill(Out + Lanes, Out + Width, 0.0f);
  }
}

/// Write U for every lane group of \p Geometry (filters x channels) into
/// the operands at \p Base, one group at a time in storage order.
template <int N, int R, bool TwoD>
void transformGroups(const float *G, const PackedOperand &Geometry,
                     const Kernel4D &Weights, float *Base) {
  const int64_t Stride = static_cast<int64_t>(Geometry.floats());
  const int64_t Filters = Geometry.lanes(), C = Weights.channels();
  const int Width = Geometry.width();
  assert(Width <= MaxGroupWidth && "lane group wider than its scratch");
  Geometry.forEachGroup([&](int64_t F0, int64_t Ch, int64_t Off) {
    const int Lanes = static_cast<int>(std::min<int64_t>(Width, Filters - F0));
    transformLaneGroup<N, R, TwoD>(G, Weights.data() + (F0 * C + Ch) * R * R,
                                   C * R * R, Lanes, Width, Base + Off,
                                   Stride);
  });
}

/// transformGroups for the registered tiles, (N, R) = (4, 3), (6, 3),
/// (6, 5) and (7, 5).
template <bool TwoD>
void transformWeights(const WinogradTransform &T, const PackedOperand &Geometry,
                      const Kernel4D &Weights, float *Base) {
  const float *G = T.G.data();
  if (T.N == 4 && T.R == 3)
    transformGroups<4, 3, TwoD>(G, Geometry, Weights, Base);
  else if (T.N == 6 && T.R == 3)
    transformGroups<6, 3, TwoD>(G, Geometry, Weights, Base);
  else if (T.N == 6 && T.R == 5)
    transformGroups<6, 5, TwoD>(G, Geometry, Weights, Base);
  else {
    assert(T.N == 7 && T.R == 5 && "no weight transform for this tile");
    transformGroups<7, 5, TwoD>(G, Geometry, Weights, Base);
  }
}

/// Weight-side artifact shared by both Winograd schedules: the Toom-Cook
/// transform matrices and the transformed kernel U as the pointwise GEMMs'
/// operand A, in the micro-kernel's panels. 2D: one M x C operand per
/// frequency, U_freq[f][c] = (G g G^T)[i][j] for freq = i*N + j, packed
/// for the M x C x Tiles product. 1D: one per (kernel row, frequency),
/// U[kr*N + freq][f][c] = (G g_row)[freq], packed for a full RowBlock-row
/// block. Every operand is a view into one allocation, written one panel
/// lane group at a time (transformLaneGroup).
struct WinoPrepared : PreparedKernel {
  WinoPrepared(const WinoConfig &Cfg, const ConvScenario &S,
               const Kernel4D &Weights)
      : T(generateWinograd(Cfg.M, Cfg.R)) {
    const int64_t N = T.N, R = Cfg.R;
    assert(N <= MaxN && "tile larger than the transforms' block scratch");
    assert(Weights.numFilters() == S.M && Weights.channels() == S.C &&
           Weights.kernelSize() == R && "weights of another scenario");
    const int64_t Ho = S.outHeight(), Wo = S.outWidth();
    const int64_t Tw = ceilDiv(Wo, Cfg.M);
    const PackedOperand Geometry =
        Cfg.TwoD ? PackedOperand(GemmSide::A, S.M, ceilDiv(Ho, Cfg.M) * Tw,
                                 S.C)
                 : PackedOperand(GemmSide::A, S.M, RowBlock * Tw, S.C);
    U = PackedOperands(Geometry, Cfg.TwoD ? N * N : R * N);
    if (Cfg.TwoD)
      transformWeights<true>(T, Geometry, Weights, U.data());
    else
      transformWeights<false>(T, Geometry, Weights, U.data());
  }

  size_t bytes() const override { return U.bytes(); }

  WinogradTransform T;
  PackedOperands U;
};

/// 2D input transform of channel \p Ch: V[i*N + j][Ch][tile] =
/// (B^T d B)[i][j] for the N x N patch d of each tile of the padded plane.
template <int TB>
void inputTransform2D(const WinogradTransform &T, const float *Plane,
                      int64_t Wp, int64_t Tw, int64_t NumTiles, int64_t C,
                      int64_t Ch, float *V) {
  const int64_t N = T.N, M2 = T.M;
  float D[MaxN * MaxN * TB], Tmp[MaxN * MaxN * TB], Vt[MaxN * MaxN * TB];
  for (int64_t T0 = 0; T0 < NumTiles; T0 += TB) {
    const int Nt = static_cast<int>(std::min<int64_t>(TB, NumTiles - T0));
    // D[a][b][l]: tile T0 + l's patch. Lanes past the last tile repeat
    // it; their results are never stored.
    for (int L = 0; L < TB; ++L) {
      const int64_t Tile = T0 + std::min(L, Nt - 1);
      const float *Base = Plane + (Tile / Tw) * M2 * Wp + (Tile % Tw) * M2;
      for (int64_t A = 0; A < N; ++A)
        for (int64_t B = 0; B < N; ++B)
          D[(A * N + B) * TB + L] = Base[A * Wp + B];
    }
    applyMatrix<TB>(T.BT.data(), N, N, N, D, Tmp); // Tmp[i][b][l]
    for (int64_t I = 0; I < N; ++I)
      applyMatrix<TB>(T.BT.data(), N, N, 1, Tmp + I * N * TB,
                      Vt + I * N * TB); // Vt[i][j][l]
    for (int64_t Freq = 0; Freq < N * N; ++Freq)
      std::memcpy(V + (Freq * C + Ch) * NumTiles + T0, Vt + Freq * TB,
                  static_cast<size_t>(Nt) * sizeof(float));
  }
}

/// 2D output transform of filter \p F: each tile's m x m block of the Ho x
/// Wo plane is A^T p A for its N x N product p = Mo[i*N + j][F][tile],
/// clipped at the bottom and right edges.
template <int TB>
void outputTransform2D(const WinogradTransform &T, const float *Mo,
                       int64_t NumFilters, int64_t Tw, int64_t NumTiles,
                       int64_t Ho, int64_t Wo, int64_t F, float *Plane) {
  const int64_t N = T.N, M2 = T.M;
  float P[MaxN * MaxN * TB], Tmp[MaxN * MaxN * TB], Y[MaxN * MaxN * TB];
  for (int64_t T0 = 0; T0 < NumTiles; T0 += TB) {
    const int Nt = static_cast<int>(std::min<int64_t>(TB, NumTiles - T0));
    for (int64_t Freq = 0; Freq < N * N; ++Freq) {
      const float *Src = Mo + (Freq * NumFilters + F) * NumTiles + T0;
      for (int L = 0; L < TB; ++L)
        P[Freq * TB + L] = Src[std::min(L, Nt - 1)];
    }
    applyMatrix<TB>(T.AT.data(), M2, N, N, P, Tmp); // Tmp[i][b][l]
    for (int64_t I = 0; I < M2; ++I)
      applyMatrix<TB>(T.AT.data(), M2, N, 1, Tmp + I * N * TB,
                      Y + I * M2 * TB); // Y[i][j][l]
    for (int L = 0; L < Nt; ++L) {
      const int64_t Tile = T0 + L;
      const int64_t R0 = (Tile / Tw) * M2, C0 = (Tile % Tw) * M2;
      const int64_t Rows = std::min(M2, Ho - R0), Cols = std::min(M2, Wo - C0);
      for (int64_t I = 0; I < Rows; ++I) {
        float *Row = Plane + (R0 + I) * Wo + C0;
        for (int64_t J = 0; J < Cols; ++J)
          Row[J] = Y[(I * M2 + J) * TB + L];
      }
    }
  }
}

class Wino2DInstance : public ConvInstance {
public:
  Wino2DInstance(const WinoConfig &Cfg, const ConvScenario &S,
                 std::shared_ptr<const WinoPrepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  WinoConfig Cfg;
  ConvScenario S;
  std::shared_ptr<const WinoPrepared> PK;
  Tensor3D PaddedScratch; ///< reused tile-margined input copy
  AlignedBuffer V;        ///< reused transformed-input scratch
  AlignedBuffer Mo;       ///< reused pointwise-product scratch
  Tensor3D NativeScratch; ///< reused output staging when layouts differ
};

void Wino2DInstance::run(const Tensor3D &In, Tensor3D &Out,
                         const RunContext &Ctx) {
  const WinogradTransform &T = PK->T;
  const int64_t N = T.N, M2 = Cfg.M;
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t Th = ceilDiv(Ho, M2), Tw = ceilDiv(Wo, M2);
  const int64_t NumTiles = Th * Tw;
  const int64_t Hp = Th * M2 + Cfg.R - 1, Wp = Tw * M2 + Cfg.R - 1;

  makeWinogradInputInto(In, S.Pad, Hp, Wp, PaddedScratch);
  const float *PD = PaddedScratch.data();

  if (V.size() < static_cast<size_t>(N * N * S.C * NumTiles))
    V.reset(static_cast<size_t>(N * N * S.C * NumTiles));
  if (Mo.size() < static_cast<size_t>(N * N * S.M * NumTiles))
    Mo.reset(static_cast<size_t>(N * N * S.M * NumTiles));

  // Input transform: V[freq][c][tile] = (B^T d B)[i][j].
  forEachIndex(Ctx, S.C, [&](int64_t Ch) {
    const float *Plane = PD + Ch * Hp * Wp;
    if (Cfg.TileBlock == 8)
      inputTransform2D<8>(T, Plane, Wp, Tw, NumTiles, S.C, Ch, V.data());
    else
      inputTransform2D<4>(T, Plane, Wp, Tw, NumTiles, S.C, Ch, V.data());
  });

  // Pointwise stage: Mo_f (M x Tiles) = U_f (M x C) * V_f (C x Tiles) per
  // frequency. Frequencies are spread over the pool and each sgemm runs on
  // one worker, so every MaxThreads gives the same bits.
  forEachIndex(Ctx, N * N, [&](int64_t Freq) {
    sgemm(GemmVariant::Blocked, S.M, NumTiles, S.C,
          PK->U[static_cast<size_t>(Freq)], V.data() + Freq * S.C * NumTiles,
          Mo.data() + Freq * S.M * NumTiles, NumTiles,
          /*Accumulate=*/false);
  });

  // Output transform into the native CHW layout.
  Layout Native = Layout::CHW;
  Tensor3D *Target = &Out;
  if (Out.layout() != Native) {
    if (!NativeScratch.sameShape(Out) || NativeScratch.layout() != Native)
      NativeScratch = Tensor3D(S.M, Ho, Wo, Native);
    Target = &NativeScratch;
  }
  float *OD = Target->data();
  forEachIndex(Ctx, S.M, [&](int64_t F) {
    float *Plane = OD + F * Ho * Wo;
    if (Cfg.TileBlock == 8)
      outputTransform2D<8>(T, Mo.data(), S.M, Tw, NumTiles, Ho, Wo, F, Plane);
    else
      outputTransform2D<4>(T, Mo.data(), S.M, Tw, NumTiles, Ho, Wo, F, Plane);
  });

  if (Target != &Out)
    runTransform(*Target, Out);
}

/// Scratch of one worker's share of the 1D schedule, sized for one block of
/// rows.
struct RowBlockScratch {
  AlignedBuffer V;  ///< V[freq][kr][c][col]: kernel row kr's GEMM operand
  AlignedBuffer Mo; ///< Mo[freq][f][col]: pointwise products
};

/// The 1D schedule over output rows [RowBegin, RowEnd) of the padded CHW
/// input \p PD, in blocks of up to RowBlock rows. A block's GEMM columns are
/// col = row * Tw + tile; its input rows are transformed once, and input
/// tile q (q = inrow * Tw + tile) feeds column q - kr * Tw of kernel row
/// kr's operand.
template <int TB>
void runRowBlocks(const WinogradTransform &T, const ConvScenario &S,
                  const PackedOperands &U, const float *PD, int64_t Hp, int64_t Wp,
                  float *OD, int64_t RowBegin, int64_t RowEnd,
                  RowBlockScratch &Scr) {
  const int64_t N = T.N, M1 = T.M, R = T.R;
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t Tw = ceilDiv(Wo, M1);
  const int64_t MaxCols = std::min(RowBlock, RowEnd - RowBegin) * Tw;
  if (Scr.V.size() < static_cast<size_t>(N * R * S.C * MaxCols))
    Scr.V.reset(static_cast<size_t>(N * R * S.C * MaxCols));
  if (Scr.Mo.size() < static_cast<size_t>(N * S.M * MaxCols))
    Scr.Mo.reset(static_cast<size_t>(N * S.M * MaxCols));
  float *V = Scr.V.data(), *Mo = Scr.Mo.data();
  float D[MaxN * TB], Y[MaxN * TB];

  for (int64_t R0 = RowBegin; R0 < RowEnd; R0 += RowBlock) {
    const int64_t Rows = std::min(RowBlock, RowEnd - R0);
    const int64_t Cols = Rows * Tw;
    const int64_t InTiles = (Rows + R - 1) * Tw;

    // Input transform: v = B^T d per input tile.
    for (int64_t Ch = 0; Ch < S.C; ++Ch) {
      const float *Chan = PD + (Ch * Hp + R0) * Wp;
      for (int64_t Q0 = 0; Q0 < InTiles; Q0 += TB) {
        const int64_t Nt = std::min<int64_t>(TB, InTiles - Q0);
        for (int64_t L = 0; L < TB; ++L) {
          const int64_t Q = Q0 + std::min(L, Nt - 1);
          const float *Base = Chan + (Q / Tw) * Wp + (Q % Tw) * M1;
          for (int64_t A = 0; A < N; ++A)
            D[A * TB + L] = Base[A];
        }
        applyMatrix<TB>(T.BT.data(), N, N, 1, D, Y); // Y[i][l]
        // Kernel row Kr reads input tiles [Kr * Tw, Kr * Tw + Cols).
        for (int64_t Kr = 0; Kr < R; ++Kr) {
          const int64_t Lo = std::max(Q0, Kr * Tw);
          const int64_t Hi = std::min(Q0 + Nt, Kr * Tw + Cols);
          if (Lo >= Hi)
            continue;
          for (int64_t I = 0; I < N; ++I)
            std::memcpy(V + ((I * R + Kr) * S.C + Ch) * Cols + Lo - Kr * Tw,
                        Y + I * TB + (Lo - Q0),
                        static_cast<size_t>(Hi - Lo) * sizeof(float));
        }
      }
    }

    // Pointwise stage: Mo_f (M x Cols) = sum over kernel rows of
    // U[kr][f] (M x C) * V[f][kr] (C x Cols).
    for (int64_t Freq = 0; Freq < N; ++Freq)
      for (int64_t Kr = 0; Kr < R; ++Kr)
        sgemm(GemmVariant::Blocked, S.M, Cols, S.C,
              U[static_cast<size_t>(Kr * N + Freq)],
              V + (Freq * R + Kr) * S.C * Cols, Mo + Freq * S.M * Cols, Cols,
              /*Accumulate=*/Kr > 0);

    // Output transform: y = A^T p per (filter, row, tile), clipped at the
    // right edge.
    for (int64_t F = 0; F < S.M; ++F)
      for (int64_t Q0 = 0; Q0 < Cols; Q0 += TB) {
        const int64_t Nt = std::min<int64_t>(TB, Cols - Q0);
        for (int64_t A = 0; A < N; ++A) {
          const float *Src = Mo + (A * S.M + F) * Cols + Q0;
          for (int64_t L = 0; L < TB; ++L)
            D[A * TB + L] = Src[std::min(L, Nt - 1)];
        }
        applyMatrix<TB>(T.AT.data(), M1, N, 1, D, Y); // Y[i][l]
        for (int64_t L = 0; L < Nt; ++L) {
          const int64_t Q = Q0 + L, C0 = (Q % Tw) * M1;
          float *ORow = OD + (F * Ho + R0 + Q / Tw) * Wo + C0;
          for (int64_t I = 0; I < std::min(M1, Wo - C0); ++I)
            ORow[I] = Y[I * TB + L];
        }
      }
  }
}

class Wino1DInstance : public ConvInstance {
public:
  Wino1DInstance(const WinoConfig &Cfg, const ConvScenario &S,
                 std::shared_ptr<const WinoPrepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  WinoConfig Cfg;
  ConvScenario S;
  std::shared_ptr<const WinoPrepared> PK;
  Tensor3D PaddedScratch; ///< reused tile-margined input copy
  Tensor3D NativeScratch; ///< reused output staging when layouts differ
  std::vector<RowBlockScratch> Scratch; ///< reused, one per row chunk
};

void Wino1DInstance::run(const Tensor3D &In, Tensor3D &Out,
                         const RunContext &Ctx) {
  const int64_t M1 = Cfg.M;
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t Tw = ceilDiv(Wo, M1);
  // Rows are streamed, so only the width needs tile margin.
  const int64_t Hp = S.H + 2 * S.Pad;
  const int64_t Wp = Tw * M1 + Cfg.R - 1;
  ThreadPool *Pool = Ctx.Pool;

  makeWinogradInputInto(In, S.Pad, Hp, Wp, PaddedScratch);

  Layout Native = Layout::CHW;
  Tensor3D *Target = &Out;
  if (Out.layout() != Native) {
    if (!NativeScratch.sameShape(Out) || NativeScratch.layout() != Native)
      NativeScratch = Tensor3D(S.M, Ho, Wo, Native);
    Target = &NativeScratch;
  }
  float *OD = Target->data();

  // Row chunks, one per worker. A row's arithmetic does not depend on the
  // chunk or block it falls in, so every chunking gives the same bits.
  int64_t NumChunks = 1;
  if (Pool && Pool->numThreads() > 1) {
    int64_t MaxW = Ctx.MaxThreads > 0
                       ? Ctx.MaxThreads
                       : static_cast<int64_t>(Pool->numThreads());
    NumChunks = std::min<int64_t>(
        std::min<int64_t>(Pool->numThreads(), MaxW), Ho);
  }
  const int64_t ChunkSize = ceilDiv(Ho, NumChunks);
  if (Scratch.size() < static_cast<size_t>(NumChunks))
    Scratch.resize(static_cast<size_t>(NumChunks));
  auto RunChunk = [&](int64_t Chunk) {
    int64_t Begin = Chunk * ChunkSize;
    int64_t End = std::min(Ho, Begin + ChunkSize);
    if (Begin >= End)
      return;
    const float *PD = PaddedScratch.data();
    if (Cfg.TileBlock == 8)
      runRowBlocks<8>(PK->T, S, PK->U, PD, Hp, Wp, OD, Begin, End,
                      Scratch[static_cast<size_t>(Chunk)]);
    else
      runRowBlocks<4>(PK->T, S, PK->U, PD, Hp, Wp, OD, Begin, End,
                      Scratch[static_cast<size_t>(Chunk)]);
  };
  forEachIndex(Ctx, NumChunks, RunChunk);

  if (Target != &Out)
    runTransform(*Target, Out);
}

class WinogradPrimitive : public ConvPrimitive {
public:
  explicit WinogradPrimitive(const WinoConfig &Cfg) : Cfg(Cfg) {}

  std::string name() const override { return Cfg.Name; }
  ConvFamily family() const override { return ConvFamily::Winograd; }
  Layout inputLayout() const override { return Cfg.In; }
  Layout outputLayout() const override { return Cfg.Out; }

  bool supports(const ConvScenario &S) const override {
    return S.K == Cfg.R && S.Stride == 1 && S.outHeight() >= 1 &&
           S.outWidth() >= 1;
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    const int64_t N = Cfg.M + Cfg.R - 1;
    const int64_t Ho = S.outHeight(), Wo = S.outWidth();
    if (Cfg.TwoD) {
      int64_t Tiles = ceilDiv(Ho, Cfg.M) * ceilDiv(Wo, Cfg.M);
      return static_cast<size_t>(N) * N * (S.C + S.M) * Tiles *
             sizeof(float);
    }
    int64_t Tw = ceilDiv(Wo, Cfg.M);
    return static_cast<size_t>(N) * (S.C + S.M) * Tw * sizeof(float);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<WinoPrepared>(Cfg, S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(supports(S) && "binding unsupported scenario");
    assert(dynamic_cast<const WinoPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    auto PK = std::static_pointer_cast<const WinoPrepared>(std::move(Prepared));
    if (Cfg.TwoD)
      return std::make_unique<Wino2DInstance>(Cfg, S, std::move(PK));
    return std::make_unique<Wino1DInstance>(Cfg, S, std::move(PK));
  }

private:
  WinoConfig Cfg;
};

} // namespace

void primsel::registerWinogradFamily(PrimitiveLibrary &Lib) {
  const WinoConfig Configs[] = {
      // 2D, CHW input, both vector factors, K = 3 and K = 5 tiles.
      {2, 3, true, 4, Layout::CHW, Layout::CHW, "wino2d-m2r3-vf4-chw-chw"},
      {2, 3, true, 8, Layout::CHW, Layout::CHW, "wino2d-m2r3-vf8-chw-chw"},
      {4, 3, true, 4, Layout::CHW, Layout::CHW, "wino2d-m4r3-vf4-chw-chw"},
      {4, 3, true, 8, Layout::CHW, Layout::CHW, "wino2d-m4r3-vf8-chw-chw"},
      {2, 5, true, 4, Layout::CHW, Layout::CHW, "wino2d-m2r5-vf4-chw-chw"},
      {2, 5, true, 8, Layout::CHW, Layout::CHW, "wino2d-m2r5-vf8-chw-chw"},
      {3, 5, true, 4, Layout::CHW, Layout::CHW, "wino2d-m3r5-vf4-chw-chw"},
      {3, 5, true, 8, Layout::CHW, Layout::CHW, "wino2d-m3r5-vf8-chw-chw"},
      // 2D, HWC input (pays a gather in the pad copy).
      {2, 3, true, 8, Layout::HWC, Layout::CHW, "wino2d-m2r3-vf8-hwc-chw"},
      {4, 3, true, 8, Layout::HWC, Layout::CHW, "wino2d-m4r3-vf8-hwc-chw"},
      {2, 5, true, 8, Layout::HWC, Layout::CHW, "wino2d-m2r5-vf8-hwc-chw"},
      {3, 5, true, 8, Layout::HWC, Layout::CHW, "wino2d-m3r5-vf8-hwc-chw"},
      // 2D with HWC output.
      {2, 3, true, 8, Layout::CHW, Layout::HWC, "wino2d-m2r3-vf8-chw-hwc"},
      {4, 3, true, 8, Layout::CHW, Layout::HWC, "wino2d-m4r3-vf8-chw-hwc"},
      // 1D row-wise, CHW input.
      {2, 3, false, 4, Layout::CHW, Layout::CHW, "wino1d-m2r3-vf4-chw-chw"},
      {2, 3, false, 8, Layout::CHW, Layout::CHW, "wino1d-m2r3-vf8-chw-chw"},
      {4, 3, false, 4, Layout::CHW, Layout::CHW, "wino1d-m4r3-vf4-chw-chw"},
      {4, 3, false, 8, Layout::CHW, Layout::CHW, "wino1d-m4r3-vf8-chw-chw"},
      {2, 5, false, 4, Layout::CHW, Layout::CHW, "wino1d-m2r5-vf4-chw-chw"},
      {2, 5, false, 8, Layout::CHW, Layout::CHW, "wino1d-m2r5-vf8-chw-chw"},
      {3, 5, false, 4, Layout::CHW, Layout::CHW, "wino1d-m3r5-vf4-chw-chw"},
      {3, 5, false, 8, Layout::CHW, Layout::CHW, "wino1d-m3r5-vf8-chw-chw"},
      // 1D, HWC input.
      {2, 3, false, 8, Layout::HWC, Layout::CHW, "wino1d-m2r3-vf8-hwc-chw"},
      {4, 3, false, 8, Layout::HWC, Layout::CHW, "wino1d-m4r3-vf8-hwc-chw"},
      {2, 5, false, 8, Layout::HWC, Layout::CHW, "wino1d-m2r5-vf8-hwc-chw"},
      {3, 5, false, 8, Layout::HWC, Layout::CHW, "wino1d-m3r5-vf8-hwc-chw"},
      // 1D with HWC output.
      {2, 3, false, 8, Layout::CHW, Layout::HWC, "wino1d-m2r3-vf8-chw-hwc"},
      {4, 3, false, 8, Layout::CHW, Layout::HWC, "wino1d-m4r3-vf8-chw-hwc"},
      // vf4 counterparts of the HWC-input variants.
      {2, 3, true, 4, Layout::HWC, Layout::CHW, "wino2d-m2r3-vf4-hwc-chw"},
      {4, 3, true, 4, Layout::HWC, Layout::CHW, "wino2d-m4r3-vf4-hwc-chw"},
      {2, 3, false, 4, Layout::HWC, Layout::CHW, "wino1d-m2r3-vf4-hwc-chw"},
      {4, 3, false, 4, Layout::HWC, Layout::CHW, "wino1d-m4r3-vf4-hwc-chw"},
  };
  for (const WinoConfig &Cfg : Configs)
    Lib.add(std::make_unique<WinogradPrimitive>(Cfg));
}
