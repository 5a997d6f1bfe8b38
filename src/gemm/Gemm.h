//===- gemm/Gemm.h - Single-precision GEMM substrate ------------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The matrix-multiplication substrate used by the im2 and kn2 convolution
/// families. The paper uses OpenBLAS; we implement our own SGEMM (see the
/// substitution table in DESIGN.md). Three variants are provided because the
/// primitive library distinguishes them (paper Figure 4 selects an im2row
/// variant that "passes the kernel matrix to the GEMM call as a transposed
/// matrix" on ARM): a naive triple loop, a cache-blocked kernel, and a
/// B-transposed kernel that reads both operands row-wise.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_GEMM_GEMM_H
#define PRIMSEL_GEMM_GEMM_H

#include <cstdint>

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

/// y = A(MxK) * x + (Accumulate ? y : 0); row-major A. Used by
/// fully-connected layers. Each row sums 16 independent lanes, adds them in
/// lane order, then adds the K tail in order; a row is never split across
/// workers, so results are bitwise identical for every Pool.
void sgemv(int64_t M, int64_t K, const float *A, const float *X, float *Y,
           bool Accumulate, ThreadPool *Pool = nullptr);

} // namespace primsel

#endif // PRIMSEL_GEMM_GEMM_H
