//===- primitives/Quantized.cpp - 16-bit fixed-point convolutions ---------===//
//
// Part of primsel. See DESIGN.md.
//
// The paper's §3 motivates primitive incompatibility with data types: "a
// particular primitive operator that performs convolution might operate on
// tensors of 16-bit fixed point data. Another might operate on 32-bit
// floating point. If the output data of one primitive were provided as
// input to the other, garbage would result." This family realizes the
// 16-bit fixed-point side: each routine quantizes its f32 input to int16
// with a per-run symmetric scale, convolves in integer arithmetic (64-bit
// accumulation, so no saturation logic is needed), and dequantizes the
// result. Because the quantize/dequantize conversions live *inside* the
// primitive, its boundary tensors stay f32 and the ordinary layout-only
// legality rule continues to apply; the accuracy cost is bounded by the
// fixed-point resolution (see tests/quantized_test.cpp for the bound).
//
// On narrow-vector machines 16-bit arithmetic doubles the useful SIMD
// lanes, which is why the analytic Cortex-A57 profile ranks these routines
// highly while the AVX2 Haswell profile does not -- giving the optimizer a
// real dtype-flavoured choice on the embedded target.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "primitives/Reference.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

using namespace primsel;

namespace {

constexpr float QMax = 32767.0f;

/// Symmetric per-tensor quantization scale for values in [-MaxAbs, MaxAbs].
float scaleFor(float MaxAbs) { return MaxAbs > 0.0f ? MaxAbs / QMax : 1.0f; }

int16_t quantizeValue(float V, float Scale) {
  float Q = std::round(V / Scale);
  Q = std::clamp(Q, -QMax, QMax);
  return static_cast<int16_t>(Q);
}

/// Quantize a whole tensor (any layout; flat buffer) with its own scale.
float quantizeTensor(const Tensor3D &In, std::vector<int16_t> &Out) {
  const float *Src = In.data();
  int64_t E = In.size();
  float MaxAbs = 0.0f;
  for (int64_t I = 0; I < E; ++I)
    MaxAbs = std::max(MaxAbs, std::fabs(Src[I]));
  float Scale = scaleFor(MaxAbs);
  Out.resize(static_cast<size_t>(E));
  for (int64_t I = 0; I < E; ++I)
    Out[static_cast<size_t>(I)] = quantizeValue(Src[I], Scale);
  return Scale;
}

/// Weights quantized once at pack time, MCKK order, single tensor scale.
/// Doubles as the family's weight-side PreparedKernel artifact.
struct QuantizedWeights : PreparedKernel {
  std::vector<int16_t> Values;
  float Scale = 1.0f;

  QuantizedWeights(const ConvScenario &S, const Kernel4D &W) {
    float MaxAbs = 0.0f;
    for (int64_t I = 0; I < W.size(); ++I)
      MaxAbs = std::max(MaxAbs, std::fabs(W.data()[I]));
    Scale = scaleFor(MaxAbs);
    Values.resize(static_cast<size_t>(S.M * S.C * S.K * S.K));
    for (int64_t I = 0; I < W.size(); ++I)
      Values[static_cast<size_t>(I)] = quantizeValue(W.data()[I], Scale);
  }

  size_t bytes() const override { return Values.size() * sizeof(int16_t); }
};

bool q16Supports(const ConvScenario &S) {
  return S.SparsityPct == 0 && S.K >= 1 && S.Stride >= 1 && S.Pad >= 0 &&
         S.outHeight() >= 1 && S.outWidth() >= 1;
}

//===----------------------------------------------------------------------===//
// q16-direct: integer direct loop over CHW
//===----------------------------------------------------------------------===//

class Q16DirectInstance : public ConvInstance {
public:
  Q16DirectInstance(const ConvScenario &S,
                    std::shared_ptr<const QuantizedWeights> W)
      : S(S), Weights(std::move(W)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    assert(In.layout() == Layout::CHW && Out.layout() == Layout::CHW &&
           "q16-direct operates on CHW tensors");
    float InScale = quantizeTensor(In, QIn);
    float OutScale = InScale * Weights->Scale;
    int64_t Ho = S.outHeight(), Wo = S.outWidth();
    int64_t Hp = S.H, Wp = S.W;
    const int16_t *X = QIn.data();
    const int16_t *Wq = Weights->Values.data();
    float *Y = Out.data();

    auto RunFilter = [&](int64_t F) {
      for (int64_t R = 0; R < Ho; ++R)
        for (int64_t Col = 0; Col < Wo; ++Col) {
          int64_t Acc = 0;
          for (int64_t C = 0; C < S.C; ++C) {
            const int16_t *Plane = X + C * Hp * Wp;
            const int16_t *WRow = Wq + ((F * S.C + C) * S.K) * S.K;
            for (int64_t Kr = 0; Kr < S.K; ++Kr) {
              int64_t IR = R * S.Stride + Kr - S.Pad;
              if (IR < 0 || IR >= Hp)
                continue;
              for (int64_t Kc = 0; Kc < S.K; ++Kc) {
                int64_t IC = Col * S.Stride + Kc - S.Pad;
                if (IC < 0 || IC >= Wp)
                  continue;
                Acc += static_cast<int64_t>(Plane[IR * Wp + IC]) *
                       WRow[Kr * S.K + Kc];
              }
            }
          }
          Y[(F * Ho + R) * Wo + Col] = static_cast<float>(Acc) * OutScale;
        }
    };
    forEachIndex(Ctx, S.M, RunFilter);
  }

private:
  ConvScenario S;
  std::shared_ptr<const QuantizedWeights> Weights;
  std::vector<int16_t> QIn; ///< per-instance run scratch
};

class Q16DirectPrimitive : public ConvPrimitive {
public:
  std::string name() const override { return "q16-direct-chw-chw"; }
  ConvFamily family() const override { return ConvFamily::Quantized; }
  Layout inputLayout() const override { return Layout::CHW; }
  Layout outputLayout() const override { return Layout::CHW; }
  bool supports(const ConvScenario &S) const override {
    return q16Supports(S);
  }
  size_t workspaceBytes(const ConvScenario &S) const override {
    return static_cast<size_t>(S.C * S.H * S.W) * sizeof(int16_t);
  }
  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &W) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<QuantizedWeights>(S, W);
  }
  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(dynamic_cast<const QuantizedWeights *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<Q16DirectInstance>(
        S, std::static_pointer_cast<const QuantizedWeights>(
               std::move(Prepared)));
  }
};

//===----------------------------------------------------------------------===//
// q16-im2row: integer patch matrix + integer GEMM over HWC
//===----------------------------------------------------------------------===//

/// q16-im2row weight-side artifact: weights flattened to (K*K*C) x M with
/// the patch-row index order, as in the float im2row over HWC.
struct Q16Im2RowPrepared : PreparedKernel {
  Q16Im2RowPrepared(const ConvScenario &S, const Kernel4D &W) {
    float MaxAbs = 0.0f;
    for (int64_t I = 0; I < W.size(); ++I)
      MaxAbs = std::max(MaxAbs, std::fabs(W.data()[I]));
    WScale = scaleFor(MaxAbs);
    int64_t Rows = S.K * S.K * S.C;
    Wq.resize(static_cast<size_t>(Rows * S.M));
    for (int64_t Kr = 0; Kr < S.K; ++Kr)
      for (int64_t Kc = 0; Kc < S.K; ++Kc)
        for (int64_t C = 0; C < S.C; ++C)
          for (int64_t F = 0; F < S.M; ++F)
            Wq[static_cast<size_t>(((Kr * S.K + Kc) * S.C + C) * S.M + F)] =
                quantizeValue(W.at(F, C, Kr, Kc), WScale);
  }

  size_t bytes() const override { return Wq.size() * sizeof(int16_t); }

  std::vector<int16_t> Wq;
  float WScale = 1.0f;
};

class Q16Im2RowInstance : public ConvInstance {
public:
  Q16Im2RowInstance(const ConvScenario &S,
                    std::shared_ptr<const Q16Im2RowPrepared> PK)
      : S(S), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    assert(In.layout() == Layout::HWC && Out.layout() == Layout::HWC &&
           "q16-im2row operates on HWC tensors");
    float InScale = quantizeTensor(In, QIn);
    float OutScale = InScale * PK->WScale;

    // Integer patch matrix from the quantized (unpadded) input; padding is
    // handled by zero rows, which quantize to exactly zero.
    int64_t Ho = S.outHeight(), Wo = S.outWidth();
    int64_t PatchLen = S.K * S.K * S.C;
    Patches.assign(static_cast<size_t>(Ho * Wo * PatchLen), 0);
    for (int64_t P = 0; P < Ho * Wo; ++P) {
      int64_t OutRow = P / Wo, OutCol = P % Wo;
      for (int64_t Kr = 0; Kr < S.K; ++Kr) {
        int64_t IR = OutRow * S.Stride + Kr - S.Pad;
        if (IR < 0 || IR >= S.H)
          continue;
        for (int64_t Kc = 0; Kc < S.K; ++Kc) {
          int64_t IC = OutCol * S.Stride + Kc - S.Pad;
          if (IC < 0 || IC >= S.W)
            continue;
          const int16_t *Src = QIn.data() + (IR * S.W + IC) * S.C;
          int16_t *Dst =
              Patches.data() + P * PatchLen + (Kr * S.K + Kc) * S.C;
          std::copy(Src, Src + S.C, Dst);
        }
      }
    }

    // Integer GEMM (Ho*Wo x PatchLen) * (PatchLen x M), dequantized into
    // the HWC output directly.
    float *Y = Out.data();
    auto RunRow = [&](int64_t P) {
      const int16_t *A = Patches.data() + P * PatchLen;
      for (int64_t F = 0; F < S.M; ++F) {
        int64_t Acc = 0;
        for (int64_t I = 0; I < PatchLen; ++I)
          Acc += static_cast<int64_t>(A[I]) *
                 PK->Wq[static_cast<size_t>(I * S.M + F)];
        Y[P * S.M + F] = static_cast<float>(Acc) * OutScale;
      }
    };
    forEachIndex(Ctx, Ho * Wo, RunRow);
  }

private:
  ConvScenario S;
  std::shared_ptr<const Q16Im2RowPrepared> PK;
  std::vector<int16_t> QIn;     ///< per-instance run scratch
  std::vector<int16_t> Patches; ///< per-instance run scratch
};

class Q16Im2RowPrimitive : public ConvPrimitive {
public:
  std::string name() const override { return "q16-im2row-hwc-hwc"; }
  ConvFamily family() const override { return ConvFamily::Quantized; }
  Layout inputLayout() const override { return Layout::HWC; }
  Layout outputLayout() const override { return Layout::HWC; }
  bool supports(const ConvScenario &S) const override {
    return q16Supports(S);
  }
  size_t workspaceBytes(const ConvScenario &S) const override {
    size_t Patch = static_cast<size_t>(S.outHeight() * S.outWidth() * S.K *
                                       S.K * S.C);
    size_t Input = static_cast<size_t>(S.C * S.H * S.W);
    return (Patch + Input) * sizeof(int16_t);
  }
  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &W) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<Q16Im2RowPrepared>(S, W);
  }
  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(dynamic_cast<const Q16Im2RowPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<Q16Im2RowInstance>(
        S, std::static_pointer_cast<const Q16Im2RowPrepared>(
               std::move(Prepared)));
  }
};

} // namespace

void primsel::registerQuantizedFamily(PrimitiveLibrary &Lib) {
  Lib.add(std::make_unique<Q16DirectPrimitive>());
  Lib.add(std::make_unique<Q16Im2RowPrimitive>());
}
