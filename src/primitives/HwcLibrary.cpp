//===- primitives/HwcLibrary.cpp - Second-vendor HWC-native library -------===//
//
// Part of primsel. See DESIGN.md.
//
// The paper's §8 ensemble extension: "Our approach can enable the
// construction of DNNs using convolution routines from different libraries,
// if at least one edge in the DT graph connects a convolution from library A
// to one from library B." This file is library B: a small, self-contained
// "vendor" library ("hwcnn") whose routines are HWC-native, in the style of
// mobile inference libraries that keep channels innermost for per-pixel
// vectorization. Because it shares the native library's layout vocabulary,
// the DT graph connects the two libraries everywhere, and the unchanged PBQP
// formulation can build mixed-library plans.
//
// The key structural trick the library exploits: with channels innermost,
// an im2row patch matrix is built from contiguous K*C-float row segments,
// and the GEMM output (Ho*Wo) x M *is* the HWC output tensor, so no
// scatter/unpack pass is needed at either end.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "gemm/Gemm.h"
#include "primitives/Reference.h"
#include "support/AlignedBuffer.h"

#include <cassert>
#include <cstring>

using namespace primsel;

namespace {

constexpr const char *HwcLibraryTag = "hwcnn";

/// Common legality for every hwcnn routine: dense kernels and a
/// non-degenerate output plane.
bool hwcSupportsCommon(const ConvScenario &S) {
  return S.SparsityPct == 0 && S.K >= 1 && S.Stride >= 1 && S.Pad >= 0 &&
         S.outHeight() >= 1 && S.outWidth() >= 1;
}

/// Weight element (f, row) of the (K*K*C) x M kernel matrix whose row index
/// is (kh*K + kw)*C + c -- the order an HWC im2row patch row uses, so the
/// GEMM streams both operands.
float kkcElem(const ConvScenario &S, const Kernel4D &W, int64_t F,
              int64_t Row) {
  const int64_t C = Row % S.C, Pos = Row / S.C;
  return W.data()[(F * S.C + C) * S.K * S.K + Pos];
}

/// Weight-side artifact of the GEMM routines: the (K*K*C) x M kernel
/// matrix as operand B of the (Ho*Wo) x M x (K*K*C) product, in the
/// micro-kernel's panels.
struct HwcGemmPrepared : PreparedKernel {
  HwcGemmPrepared(const ConvScenario &S, const Kernel4D &Weights)
      : Panels(PackedOperand(GemmSide::B, S.outHeight() * S.outWidth(), S.M,
                             S.K * S.K * S.C),
               1) {
    Panels[0].fill([&](int64_t F, int64_t Row) {
      return kkcElem(S, Weights, F, Row);
    });
  }

  size_t bytes() const override { return Panels.bytes(); }

  PackedOperands Panels;
};

/// Weight-side artifact of hwcnn-direct, which reads no panels: the
/// (K*K*C) x M kernel matrix, row-major.
struct HwcFlatPrepared : PreparedKernel {
  HwcFlatPrepared(const ConvScenario &S, const Kernel4D &Weights)
      : W(static_cast<size_t>(S.K * S.K * S.C * S.M)) {
    for (int64_t Row = 0; Row < S.K * S.K * S.C; ++Row)
      for (int64_t F = 0; F < S.M; ++F)
        W[Row * S.M + F] = kkcElem(S, Weights, F, Row);
  }

  size_t bytes() const override { return W.size() * sizeof(float); }

  AlignedBuffer W;
};

/// \p In with its padding folded in: \p In itself when \p Pad is 0,
/// otherwise \p Scratch refilled (reallocated only when its shape changed).
const Tensor3D &paddedInput(const Tensor3D &In, int64_t Pad,
                            Tensor3D &Scratch) {
  if (Pad == 0)
    return In;
  makePaddedInputInto(In, Pad, Layout::HWC, Scratch);
  return Scratch;
}

//===----------------------------------------------------------------------===//
// hwcnn-im2row: patch matrix + GEMM, HWC -> HWC
//===----------------------------------------------------------------------===//

class HwcIm2RowInstance : public ConvInstance {
public:
  HwcIm2RowInstance(const ConvScenario &S,
                    std::shared_ptr<const HwcGemmPrepared> PK)
      : S(S), PK(std::move(PK)),
        Patches(static_cast<size_t>(S.outHeight() * S.outWidth() * S.K *
                                    S.K * S.C)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    assert(In.layout() == Layout::HWC && Out.layout() == Layout::HWC &&
           "hwcnn-im2row operates on HWC tensors");
    // Fold padding into a padded copy once; afterwards every patch segment
    // is an in-bounds contiguous K*C-float memcpy.
    const Tensor3D &Src = paddedInput(In, S.Pad, Padded);
    int64_t Ho = S.outHeight(), Wo = S.outWidth();
    int64_t SegLen = S.K * S.C;          // one kh row of a patch
    int64_t PatchLen = S.K * SegLen;     // full patch row length
    const float *Base = Src.data();
    int64_t RowStride = Src.stride(Dim::H);
    int64_t ColStride = Src.stride(Dim::W);

    auto FillRow = [&](int64_t P) {
      int64_t OutRow = P / Wo, OutCol = P % Wo;
      int64_t TopRow = OutRow * S.Stride, LeftCol = OutCol * S.Stride;
      float *Dst = Patches.data() + P * PatchLen;
      for (int64_t Kr = 0; Kr < S.K; ++Kr)
        std::memcpy(Dst + Kr * SegLen,
                    Base + (TopRow + Kr) * RowStride + LeftCol * ColStride,
                    static_cast<size_t>(SegLen) * sizeof(float));
    };
    forEachIndex(Ctx, Ho * Wo, FillRow);

    // (Ho*Wo x KKC) * (KKC x M) writes the HWC output tensor directly.
    sgemm(Ho * Wo, S.M, PatchLen, Patches.data(), PK->Panels[0], Out.data(),
          S.M, /*Accumulate=*/false, Ctx.Pool, Ctx.MaxThreads);
  }

private:
  ConvScenario S;
  std::shared_ptr<const HwcGemmPrepared> PK;
  AlignedBuffer Patches; ///< per-instance run scratch
  Tensor3D Padded;       ///< reused padded input copy
};

class HwcIm2RowPrimitive : public ConvPrimitive {
public:
  std::string name() const override { return "hwcnn-im2row-hwc-hwc"; }
  ConvFamily family() const override { return ConvFamily::Im2; }
  Layout inputLayout() const override { return Layout::HWC; }
  Layout outputLayout() const override { return Layout::HWC; }
  const char *libraryTag() const override { return HwcLibraryTag; }

  bool supports(const ConvScenario &S) const override {
    return hwcSupportsCommon(S);
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    size_t Patch = static_cast<size_t>(S.outHeight() * S.outWidth() * S.K *
                                       S.K * S.C);
    size_t Pad = S.Pad > 0 ? static_cast<size_t>(S.C * S.paddedHeight() *
                                                 S.paddedWidth())
                           : 0;
    return (Patch + Pad) * sizeof(float);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    return std::make_shared<HwcGemmPrepared>(S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(dynamic_cast<const HwcGemmPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<HwcIm2RowInstance>(
        S, std::static_pointer_cast<const HwcGemmPrepared>(
               std::move(Prepared)));
  }
};

//===----------------------------------------------------------------------===//
// hwcnn-pointwise: 1x1 convolution as a single GEMM, HWC -> HWC
//===----------------------------------------------------------------------===//

class HwcPointwiseInstance : public ConvInstance {
public:
  HwcPointwiseInstance(const ConvScenario &S,
                       std::shared_ptr<const HwcGemmPrepared> PK)
      : S(S), PK(std::move(PK)),
        Gathered(S.Stride != 1
                     ? static_cast<size_t>(S.outHeight() * S.outWidth() * S.C)
                     : 0) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    assert(In.layout() == Layout::HWC && Out.layout() == Layout::HWC &&
           "hwcnn-pointwise operates on HWC tensors");
    int64_t Ho = S.outHeight(), Wo = S.outWidth();
    const float *A = In.data();
    if (S.Stride != 1) {
      // Gather the strided sample grid into a dense (Ho*Wo) x C matrix.
      int64_t RowStride = In.stride(Dim::H), ColStride = In.stride(Dim::W);
      for (int64_t R = 0; R < Ho; ++R)
        for (int64_t Col = 0; Col < Wo; ++Col)
          std::memcpy(Gathered.data() + (R * Wo + Col) * S.C,
                      In.data() + R * S.Stride * RowStride +
                          Col * S.Stride * ColStride,
                      static_cast<size_t>(S.C) * sizeof(float));
      A = Gathered.data();
    }
    // (Ho*Wo x C) * (C x M); the result is the HWC output verbatim.
    sgemm(Ho * Wo, S.M, S.C, A, PK->Panels[0], Out.data(), S.M,
          /*Accumulate=*/false, Ctx.Pool, Ctx.MaxThreads);
  }

private:
  ConvScenario S;
  std::shared_ptr<const HwcGemmPrepared> PK;
  AlignedBuffer Gathered; ///< per-instance strided-gather scratch
};

class HwcPointwisePrimitive : public ConvPrimitive {
public:
  std::string name() const override { return "hwcnn-pointwise-hwc-hwc"; }
  ConvFamily family() const override { return ConvFamily::Im2; }
  Layout inputLayout() const override { return Layout::HWC; }
  Layout outputLayout() const override { return Layout::HWC; }
  const char *libraryTag() const override { return HwcLibraryTag; }

  bool supports(const ConvScenario &S) const override {
    return hwcSupportsCommon(S) && S.K == 1 && S.Pad == 0;
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    return S.Stride != 1 ? static_cast<size_t>(S.outHeight() * S.outWidth() *
                                               S.C) *
                               sizeof(float)
                         : 0;
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    return std::make_shared<HwcGemmPrepared>(S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(dynamic_cast<const HwcGemmPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<HwcPointwiseInstance>(
        S, std::static_pointer_cast<const HwcGemmPrepared>(
               std::move(Prepared)));
  }
};

//===----------------------------------------------------------------------===//
// hwcnn-direct: per-pixel accumulator loop, HWC -> HWC
//===----------------------------------------------------------------------===//

class HwcDirectInstance : public ConvInstance {
public:
  HwcDirectInstance(const ConvScenario &S,
                    std::shared_ptr<const HwcFlatPrepared> PK)
      : S(S), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    assert(In.layout() == Layout::HWC && Out.layout() == Layout::HWC &&
           "hwcnn-direct operates on HWC tensors");
    const Tensor3D &Src = paddedInput(In, S.Pad, Padded);
    int64_t Ho = S.outHeight(), Wo = S.outWidth();
    const float *Base = Src.data();
    int64_t RowStride = Src.stride(Dim::H), ColStride = Src.stride(Dim::W);
    float *OutBase = Out.data();

    auto RunRow = [&](int64_t OutRow) {
      for (int64_t OutCol = 0; OutCol < Wo; ++OutCol) {
        float *Acc = OutBase + (OutRow * Wo + OutCol) * S.M;
        for (int64_t F = 0; F < S.M; ++F)
          Acc[F] = 0.0f;
        int64_t TopRow = OutRow * S.Stride, LeftCol = OutCol * S.Stride;
        for (int64_t Kr = 0; Kr < S.K; ++Kr) {
          const float *InSeg =
              Base + (TopRow + Kr) * RowStride + LeftCol * ColStride;
          const float *WSeg = PK->W.data() + Kr * S.K * S.C * S.M;
          // The inner pair streams S.K*S.C input floats against the
          // matching weight rows, writing all M outputs of this pixel.
          for (int64_t I = 0; I < S.K * S.C; ++I) {
            float X = InSeg[I];
            const float *WRow = WSeg + I * S.M;
            for (int64_t F = 0; F < S.M; ++F)
              Acc[F] += X * WRow[F];
          }
        }
      }
    };
    forEachIndex(Ctx, Ho, RunRow);
  }

private:
  ConvScenario S;
  std::shared_ptr<const HwcFlatPrepared> PK;
  Tensor3D Padded; ///< reused padded input copy
};

class HwcDirectPrimitive : public ConvPrimitive {
public:
  std::string name() const override { return "hwcnn-direct-hwc-hwc"; }
  ConvFamily family() const override { return ConvFamily::Direct; }
  Layout inputLayout() const override { return Layout::HWC; }
  Layout outputLayout() const override { return Layout::HWC; }
  const char *libraryTag() const override { return HwcLibraryTag; }

  bool supports(const ConvScenario &S) const override {
    return hwcSupportsCommon(S);
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    return S.Pad > 0 ? static_cast<size_t>(S.C * S.paddedHeight() *
                                           S.paddedWidth()) *
                           sizeof(float)
                     : 0;
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    return std::make_shared<HwcFlatPrepared>(S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(dynamic_cast<const HwcFlatPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<HwcDirectInstance>(
        S, std::static_pointer_cast<const HwcFlatPrepared>(
               std::move(Prepared)));
  }
};

} // namespace

void primsel::registerHwcLibrary(PrimitiveLibrary &Lib) {
  Lib.add(std::make_unique<HwcIm2RowPrimitive>());
  Lib.add(std::make_unique<HwcPointwisePrimitive>());
  Lib.add(std::make_unique<HwcDirectPrimitive>());
}

PrimitiveLibrary primsel::buildHwcLibrary() {
  PrimitiveLibrary Lib;
  // Every library that wants to participate in whole-network planning needs
  // the sum2d baseline so the common normalization point exists.
  registerSum2D(Lib);
  registerHwcLibrary(Lib);
  return Lib;
}

PrimitiveLibrary primsel::buildEnsembleLibrary() {
  PrimitiveLibrary Lib = buildFullLibrary();
  registerHwcLibrary(Lib);
  return Lib;
}
