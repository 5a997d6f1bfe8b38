//===- gemm/Gemm.h - Single-precision GEMM substrate ------------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The matrix-multiplication substrate used by the im2, kn2 and Winograd
/// convolution families. The paper uses OpenBLAS; we implement our own SGEMM
/// (see the substitution table in DESIGN.md). Three variants are provided
/// because the primitive library distinguishes them (paper Figure 4 selects
/// an im2row variant that "passes the kernel matrix to the GEMM call as a
/// transposed matrix" on ARM): a naive triple loop, a cache-blocked kernel,
/// and a B-transposed kernel that reads both operands row-wise.
///
/// A primitive's weights are a constant operand, so prepare() stores them
/// once as a PackedOperand -- the micro-kernel's register-tile panels for
/// the active tier, in the orientation the shape rule picks -- and every
/// request passes that in place of the raw matrix; only the activation
/// operand is packed per call.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_GEMM_GEMM_H
#define PRIMSEL_GEMM_GEMM_H

#include "gemm/MicroKernel.h"
#include "support/AlignedBuffer.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace primsel {

class ThreadPool;

/// Which inner kernel to use.
enum class GemmVariant : uint8_t {
  Naive,      ///< textbook i-j-k loop; baseline
  Blocked,    ///< i-k-j loop with row blocking; the default fast kernel
  TransposedB ///< computes A * B^T with B supplied already transposed
};

const char *gemmVariantName(GemmVariant V);

/// C = A(MxK) * B(KxN) + (Accumulate ? C : 0).
///
/// All matrices are dense row-major. \p LdC is the row stride of C (allows
/// writing into a sub-view); A and B are contiguous. For
/// GemmVariant::TransposedB, \p B must hold B^T, i.e. an N x K row-major
/// matrix. Blocked and TransposedB run through the packed macro-kernel
/// (gemm/MicroKernel.h); Naive keeps the textbook loops. If \p Pool is
/// non-null the register-tile grid is partitioned across it, using at most
/// \p MaxThreads workers when MaxThreads > 0 (0 = whole pool). Results are
/// bitwise identical for every Pool/MaxThreads combination.
///
/// Orientation: with the active micro-kernel's MR x NR register tile and
/// Kc = min(K, 256), the packed path computes C^T = B^T A^T instead (B
/// packed as the MR-wide panels, A as the NR-wide ones, tiles stored
/// transposed) exactly when
///   roundUp(N, MR) * roundUp(M, NR) * (Kc + NR)
///       < roundUp(M, MR) * roundUp(N, NR) * Kc,
/// i.e. when the transposed tile grid pads to fewer elements by more than
/// its transposed stores cost (about NR k-steps per tile and K block).
/// The choice depends only on the shape and the tier, and every element
/// still sums its products in ascending k with one add into C per K block,
/// so it never changes bits.
void sgemm(GemmVariant Variant, int64_t M, int64_t N, int64_t K,
           const float *A, const float *B, float *C, int64_t LdC,
           bool Accumulate, ThreadPool *Pool = nullptr, int MaxThreads = 0);

/// K-dimension cache block of the packed path. Fixed (never shrunk to fit a
/// machine) because it is part of the numerical contract: partial sums
/// round to float at KC boundaries.
constexpr int64_t GemmKC = 256;

/// Which operand of sgemm a PackedOperand stands in for.
enum class GemmSide : uint8_t { A, B };

/// A constant sgemm operand stored as the packed path's register-tile
/// panels, so no call packs it again. It is a view: the caller owns the
/// floats() floats of storage handed to place(), which lets one allocation
/// back many operands of the same geometry.
///
/// The operand's lanes are the rows of A (M of them) or the columns of B
/// (N of them, whether B is stored plainly or transposed); its depth is K.
/// Construction fixes the micro-kernel tier (the active one) and the
/// orientation sgemm's shape rule picks for sgemm(M, N, K) at that tier,
/// which decides whether the lanes are packed MR or NR wide. Panels are
/// stored per KC slab, then per group of Width lanes, then k-major:
/// element (Lane, P) of slab Pc sits at
///   Pc * paddedLanes + (Lane / Width) * Kc * Width + (P - Pc) * Width
///       + Lane % Width,
/// Kc being the slab's depth, and lanes past lanes() are zero. These are
/// exactly the values sgemm's own pack writes, so the packed product is
/// bitwise equal to sgemm on the raw operand.
class PackedOperand {
public:
  PackedOperand() = default;
  /// The geometry of operand \p Side of sgemm(M, N, K) at the active tier.
  PackedOperand(GemmSide Side, int64_t M, int64_t N, int64_t K);

  GemmSide side() const { return Side; }
  gemm::SimdTier tier() const { return Tier; }
  /// True when sgemm runs this shape as C^T = B^T A^T.
  bool transposed() const { return Swap; }
  int64_t lanes() const { return Lanes; }
  int64_t depth() const { return K; }
  /// Lanes per panel: the tier's MR or NR.
  int width() const { return Width; }
  /// Floats the panels occupy: depth() times lanes() rounded up to width().
  size_t floats() const {
    return static_cast<size_t>((Lanes + Width - 1) / Width * Width * K);
  }

  /// Attach storage of floats() floats; the caller keeps it alive.
  void place(float *Storage) { Data = Storage; }
  const float *data() const { return Data; }

  /// Visit every lane group in storage order: Visit(L0, P, Offset) once
  /// per group of width() lanes starting at lane L0 and per depth P, with
  /// Offset the index from data() of lane L0's slot. Lanes L0 ..
  /// L0 + width() - 1 follow it contiguously; those at or past lanes() are
  /// padding. The only place that knows the panel order.
  template <typename Fn> void forEachGroup(Fn Visit) const {
    int64_t Offset = 0;
    for (int64_t Pc = 0; Pc < K; Pc += GemmKC) {
      const int64_t Kc = std::min(GemmKC, K - Pc);
      for (int64_t L0 = 0; L0 < Lanes; L0 += Width)
        for (int64_t P = Pc; P < Pc + Kc; ++P, Offset += Width)
          Visit(L0, P, Offset);
    }
  }

  /// Visit every panel slot in storage order, lane index innermost:
  /// Visit(Lane, P, Offset) with Offset the slot's index from data().
  /// Padding slots are visited too, with Lane >= lanes().
  template <typename Fn> void forEachSlot(Fn Visit) const {
    forEachGroup([&](int64_t L0, int64_t P, int64_t Offset) {
      for (int L = 0; L < Width; ++L)
        Visit(L0 + L, P, Offset + L);
    });
  }

  /// Write the panels in one pass from Elem(Lane, P), the operand's element
  /// at lane Lane and depth P; padding lanes get zeros.
  template <typename Fn> void fill(Fn Elem) {
    float *Out = Data;
    forEachSlot([&](int64_t Lane, int64_t P, int64_t Offset) {
      Out[Offset] = Lane < Lanes ? Elem(Lane, P) : 0.0f;
    });
  }

private:
  float *Data = nullptr;
  int64_t Lanes = 0;
  int64_t K = 0;
  int Width = 1;
  GemmSide Side = GemmSide::A;
  bool Swap = false;
  gemm::SimdTier Tier = gemm::SimdTier::Scalar;
};

/// Count operands of one geometry in a single allocation, each a view of
/// floats() floats: how a prepared kernel holds per-frequency or
/// per-kernel-position weights without one heap block per operand.
class PackedOperands {
public:
  PackedOperands() = default;
  PackedOperands(const PackedOperand &Geometry, int64_t Count);

  size_t size() const { return Ops.size(); }
  PackedOperand &operator[](size_t I) { return Ops[I]; }
  const PackedOperand &operator[](size_t I) const { return Ops[I]; }
  /// The storage: operand I starts I * floats() floats in.
  float *data() { return Storage.data(); }
  /// Bytes of panel storage held.
  size_t bytes() const { return Storage.size() * sizeof(float); }

private:
  AlignedBuffer Storage;
  std::vector<PackedOperand> Ops;
};

/// sgemm with A supplied as panels packed for sgemm(M, N, K): A.lanes()
/// must be M and A.depth() K; N may differ from the N it was packed for.
/// B is stored as \p Variant says (B^T for TransposedB; Naive is not
/// allowed). The product runs in A's orientation on A's tier, and is
/// bitwise equal to sgemm on the raw A at that tier.
void sgemm(GemmVariant Variant, int64_t M, int64_t N, int64_t K,
           const PackedOperand &A, const float *B, float *C, int64_t LdC,
           bool Accumulate, ThreadPool *Pool = nullptr, int MaxThreads = 0);

/// sgemm with B supplied as panels packed for sgemm(M, N, K): B.lanes()
/// must be N and B.depth() K; M may differ. Otherwise as above.
void sgemm(int64_t M, int64_t N, int64_t K, const float *A,
           const PackedOperand &B, float *C, int64_t LdC, bool Accumulate,
           ThreadPool *Pool = nullptr, int MaxThreads = 0);

/// y = A(MxK) * x + (Accumulate ? y : 0); row-major A. Used by
/// fully-connected layers. Each row sums 16 independent lanes, adds them in
/// lane order, then adds the K tail in order; a row is never split across
/// workers, so results are bitwise identical for every Pool.
void sgemv(int64_t M, int64_t K, const float *A, const float *X, float *Y,
           bool Accumulate, ThreadPool *Pool = nullptr);

} // namespace primsel

#endif // PRIMSEL_GEMM_GEMM_H
