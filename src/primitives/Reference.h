//===- primitives/Reference.h - Reference convolution -----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference direct convolution used as the correctness oracle for every
/// primitive in the library, and helpers shared by primitive
/// implementations.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_PRIMITIVES_REFERENCE_H
#define PRIMSEL_PRIMITIVES_REFERENCE_H

#include "nn/Layer.h"
#include "primitives/Primitive.h"
#include "support/ThreadPool.h"
#include "tensor/Tensor.h"

namespace primsel {

/// Straightforward direct convolution (DNN convention, i.e. correlation):
///   Out[m][ho][wo] = sum_{c,kh,kw}
///       In[c][ho*S + kh - P][wo*S + kw - P] * W[m][c][kh][kw]
/// with zero padding. \p In and \p Out may be in any layout; access is by
/// logical coordinates. Slow and obviously correct.
void referenceConv(const ConvScenario &S, const Tensor3D &In,
                   const Kernel4D &Weights, Tensor3D &Out);

/// Reference depthwise convolution (channel multiplier 1):
///   Out[c][ho][wo] = sum_{kh,kw}
///       In[c][ho*S + kh - P][wo*S + kw - P] * W[c][0][kh][kw]
/// \p S must have S.Depthwise set (M == C); weights are C x 1 x K x K. The
/// correctness oracle for the depthwise primitive family and the
/// differential harness.
void referenceDepthwiseConv(const ConvScenario &S, const Tensor3D &In,
                            const Kernel4D &Weights, Tensor3D &Out);

/// Copy \p In into a zero-padded tensor of shape C x (H+2P) x (W+2P) in
/// layout \p L. Used by primitives that cannot fold padding into their
/// indexing (Winograd, FFT, kn2 temporaries).
Tensor3D makePaddedInput(const Tensor3D &In, int64_t Pad, Layout L);

/// Same, but writing into \p Dst, which is (re)allocated only when its
/// shape or layout does not match -- the serving hot path reuses the
/// instance-held scratch tensor run after run.
void makePaddedInputInto(const Tensor3D &In, int64_t Pad, Layout L,
                         Tensor3D &Dst);

/// Run Body(I) for every I in [0, Count): spread over at most
/// Ctx.MaxThreads workers of Ctx.Pool when it has workers, inline
/// otherwise. The routines' one parallel loop, so each of them honours the
/// plan's per-node thread cap.
template <typename Fn>
void forEachIndex(const RunContext &Ctx, int64_t Count, Fn Body) {
  if (Ctx.Pool && Ctx.Pool->numThreads() > 1)
    Ctx.Pool->parallelFor(0, Count, Body, Ctx.MaxThreads);
  else
    for (int64_t I = 0; I < Count; ++I)
      Body(I);
}

} // namespace primsel

#endif // PRIMSEL_PRIMITIVES_REFERENCE_H
