//===- tensor/Tensor.cpp --------------------------------------------------===//

#include "tensor/Tensor.h"

#include "support/Random.h"

#include <cmath>

using namespace primsel;

Tensor3D::Tensor3D(int64_t C, int64_t H, int64_t W, Layout L)
    : C(C), H(H), W(W), Lay(L), Strides(layoutStrides(L, C, H, W)),
      Buf(static_cast<size_t>(C * H * W)) {
  assert(C > 0 && H > 0 && W > 0 && "tensor dimensions must be positive");
}

Tensor3D::Tensor3D(int64_t C, int64_t H, int64_t W, Layout L, float *External)
    : C(C), H(H), W(W), Lay(L), Strides(layoutStrides(L, C, H, W)),
      Buf(External, static_cast<size_t>(C * H * W)) {
  assert(C > 0 && H > 0 && W > 0 && "tensor dimensions must be positive");
}

void Tensor3D::fillRandom(uint64_t Seed) {
  primsel::fillRandom(Buf.data(), Buf.size(), Seed);
}

Kernel4D::Kernel4D(int64_t M, int64_t C, int64_t K)
    : M(M), C(C), K(K), Buf(static_cast<size_t>(M * C * K * K)) {
  assert(M > 0 && C > 0 && K > 0 && "kernel dimensions must be positive");
}

Kernel4D::Kernel4D(int64_t M, int64_t C, int64_t K, float *External)
    : M(M), C(C), K(K), Buf(External, static_cast<size_t>(M * C * K * K)) {
  assert(M > 0 && C > 0 && K > 0 && "kernel dimensions must be positive");
}

void Kernel4D::fillRandom(uint64_t Seed) {
  primsel::fillRandom(Buf.data(), Buf.size(), Seed);
}

void Kernel4D::applySparsity(int64_t SparsityPct, uint64_t Seed) {
  assert(SparsityPct >= 0 && SparsityPct <= 100 && "sparsity is a percent");
  if (SparsityPct == 0)
    return;
  Rng R(Seed);
  float Threshold = static_cast<float>(SparsityPct) / 100.0f;
  for (size_t I = 0; I < Buf.size(); ++I)
    if (R.nextFloat() < Threshold)
      Buf[I] = 0.0f;
}

float primsel::maxAbsDifference(const Tensor3D &A, const Tensor3D &B) {
  assert(A.sameShape(B) && "comparing tensors of different shapes");
  float MaxDiff = 0.0f;
  for (int64_t Ch = 0; Ch < A.channels(); ++Ch)
    for (int64_t Row = 0; Row < A.height(); ++Row)
      for (int64_t Col = 0; Col < A.width(); ++Col) {
        float D = std::fabs(A.at(Ch, Row, Col) - B.at(Ch, Row, Col));
        if (D > MaxDiff)
          MaxDiff = D;
      }
  return MaxDiff;
}
