//===- tensor/Tensor.h - 3D activation and 4D kernel tensors ----*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owning dense float tensors. Activations are 3D (C feature maps of H x W,
/// paper §2.1) stored in one of the six layouts; kernels are 4D (M filters of
/// C x K x K). All data is 32-bit float, matching the paper's evaluation
/// (§5.3: "all primitives ... operate on 32-bit single-precision floating
/// point data").
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_TENSOR_TENSOR_H
#define PRIMSEL_TENSOR_TENSOR_H

#include "support/AlignedBuffer.h"
#include "tensor/Layout.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace primsel {

/// A C x H x W activation tensor stored contiguously in a given layout.
class Tensor3D {
public:
  Tensor3D() = default;
  Tensor3D(int64_t C, int64_t H, int64_t W, Layout L);
  /// A tensor viewing \p External storage of at least C*H*W floats (e.g. a
  /// slot of the memory-planned executor arena). The storage is borrowed,
  /// not owned, and must outlive the tensor.
  Tensor3D(int64_t C, int64_t H, int64_t W, Layout L, float *External);

  /// An owning deep copy with the same shape, layout and contents. Cloning
  /// a view of external storage (an arena slot, a reused context output)
  /// yields a tensor that owns its data and outlives that storage.
  Tensor3D clone() const {
    if (size() == 0)
      return Tensor3D();
    Tensor3D Copy(C, H, W, Lay);
    std::memcpy(Copy.data(), data(),
                static_cast<size_t>(size()) * sizeof(float));
    return Copy;
  }

  int64_t channels() const { return C; }
  int64_t height() const { return H; }
  int64_t width() const { return W; }
  Layout layout() const { return Lay; }
  int64_t size() const { return C * H * W; }

  float *data() { return Buf.data(); }
  const float *data() const { return Buf.data(); }

  /// Element stride of dimension \p D in the current layout.
  int64_t stride(Dim D) const { return Strides[static_cast<unsigned>(D)]; }

  /// Linear index of logical element (c, h, w).
  int64_t index(int64_t Ch, int64_t Row, int64_t Col) const {
    assert(Ch >= 0 && Ch < C && Row >= 0 && Row < H && Col >= 0 && Col < W &&
           "tensor index out of range");
    return Ch * Strides[0] + Row * Strides[1] + Col * Strides[2];
  }

  float &at(int64_t Ch, int64_t Row, int64_t Col) {
    return Buf[index(Ch, Row, Col)];
  }
  float at(int64_t Ch, int64_t Row, int64_t Col) const {
    return Buf[index(Ch, Row, Col)];
  }

  /// Fill with deterministic pseudo-random values in [-1, 1).
  void fillRandom(uint64_t Seed);
  void fill(float Value) { Buf.fill(Value); }
  void zero() { Buf.fill(0.0f); }

  /// True if the two tensors have identical logical shape (layout may
  /// differ).
  bool sameShape(const Tensor3D &Other) const {
    return C == Other.C && H == Other.H && W == Other.W;
  }

private:
  int64_t C = 0;
  int64_t H = 0;
  int64_t W = 0;
  Layout Lay = Layout::CHW;
  std::array<int64_t, 3> Strides = {0, 0, 0};
  AlignedBuffer Buf;
};

/// An M x C x K x K kernel tensor in MCKK order (a.k.a. OIHW). Primitives
/// that want another kernel arrangement re-pack at setup time; kernel packing
/// happens once per network and is not part of the runtime cost model, which
/// matches deployment practice (weights ship pre-packed with the model,
/// paper §4 "Real-World Solutions").
class Kernel4D {
public:
  Kernel4D() = default;
  Kernel4D(int64_t M, int64_t C, int64_t K);
  /// A kernel viewing \p External storage of at least M*C*K*K floats (e.g.
  /// a compile's reused weight scratch). The storage is borrowed, not
  /// owned, and must outlive the kernel.
  Kernel4D(int64_t M, int64_t C, int64_t K, float *External);

  int64_t numFilters() const { return M; }
  int64_t channels() const { return C; }
  int64_t kernelSize() const { return K; }
  int64_t size() const { return M * C * K * K; }

  float *data() { return Buf.data(); }
  const float *data() const { return Buf.data(); }

  int64_t index(int64_t Filter, int64_t Ch, int64_t Kr, int64_t Kc) const {
    assert(Filter >= 0 && Filter < M && Ch >= 0 && Ch < C && Kr >= 0 &&
           Kr < K && Kc >= 0 && Kc < K && "kernel index out of range");
    return ((Filter * C + Ch) * K + Kr) * K + Kc;
  }

  float &at(int64_t Filter, int64_t Ch, int64_t Kr, int64_t Kc) {
    return Buf[index(Filter, Ch, Kr, Kc)];
  }
  float at(int64_t Filter, int64_t Ch, int64_t Kr, int64_t Kc) const {
    return Buf[index(Filter, Ch, Kr, Kc)];
  }

  void fillRandom(uint64_t Seed);
  void fill(float Value) { Buf.fill(Value); }

  /// Deterministically zero out approximately \p SparsityPct percent of the
  /// weights (kernel sparsity for the paper's §8 extension).
  void applySparsity(int64_t SparsityPct, uint64_t Seed);

private:
  int64_t M = 0;
  int64_t C = 0;
  int64_t K = 0;
  AlignedBuffer Buf;
};

/// Largest absolute elementwise difference between two same-shape tensors,
/// compared by logical coordinates so layouts may differ.
float maxAbsDifference(const Tensor3D &A, const Tensor3D &B);

} // namespace primsel

#endif // PRIMSEL_TENSOR_TENSOR_H
