//===- primitives/Sparse.cpp - sparsity-exploiting convolutions ----------===//
//
// Part of primsel. See DESIGN.md.
//
// The paper's Future Work extension (§8): "given some convolution routines
// which leverage sparsity in the kernel (for example routines based on a
// sparse GEMM), our approach can be used to decide whether a dense or a
// sparse implementation (and moreover, which sparse implementation) will be
// faster for any given convolutional layer, with the addition of a kernel
// sparsity ratio parameter to the formulation."
//
// Two routines are provided. Both compress the kernel at setup time and
// skip zero weights at run time, so their profiled cost falls with the
// scenario's sparsity ratio while the dense families' cost does not -- the
// PBQP formulation then makes the dense/sparse call per layer with no
// special casing:
//
//   sparse-im2col: im2col patch matrix + CSR kernel matrix; per filter,
//     one axpy over the patch row for each non-zero weight.
//   sparse-direct: direct accumulation; for each non-zero (m, c, kr, kc)
//     weight, one axpy over an output row.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "primitives/Reference.h"
#include "support/AlignedBuffer.h"
#include "tensor/Transform.h"

#include <cassert>
#include <cstring>
#include <vector>

using namespace primsel;

namespace {

struct SparseConfig {
  bool Im2Variant; ///< true: CSR x patch matrix, false: direct axpy loops
  const char *Name;
};

/// CSR-style compressed kernel: per filter, the (flat position, value)
/// pairs of its non-zero weights.
struct CompressedKernel {
  std::vector<int32_t> ColIndex; ///< flattened positions
  std::vector<float> Values;
  std::vector<int64_t> RowBegin; ///< per-filter offsets, M + 1 entries
};

/// Weight-side artifact: the CSR-compressed kernel.
struct SparsePrepared : PreparedKernel {
  SparsePrepared(const ConvScenario &S, const Kernel4D &Weights) {
    // Compress: im2col wants flat position (c*K + kr)*K + kc to index the
    // patch matrix rows; direct wants the same tuple decomposed again, so
    // one flat encoding serves both.
    CK.RowBegin.push_back(0);
    for (int64_t F = 0; F < S.M; ++F) {
      for (int64_t Ch = 0; Ch < S.C; ++Ch)
        for (int64_t Kr = 0; Kr < S.K; ++Kr)
          for (int64_t Kc = 0; Kc < S.K; ++Kc) {
            float V = Weights.at(F, Ch, Kr, Kc);
            if (V == 0.0f)
              continue;
            CK.ColIndex.push_back(
                static_cast<int32_t>((Ch * S.K + Kr) * S.K + Kc));
            CK.Values.push_back(V);
          }
      CK.RowBegin.push_back(static_cast<int64_t>(CK.Values.size()));
    }
  }

  size_t bytes() const override {
    return CK.ColIndex.size() * sizeof(int32_t) +
           CK.Values.size() * sizeof(float) +
           CK.RowBegin.size() * sizeof(int64_t);
  }

  CompressedKernel CK;
};

class SparseInstance : public ConvInstance {
public:
  SparseInstance(const SparseConfig &Cfg, const ConvScenario &S,
                 std::shared_ptr<const SparsePrepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)) {
    if (Cfg.Im2Variant)
      Patches.reset(static_cast<size_t>(S.C * S.K * S.K * S.outHeight() *
                                        S.outWidth()));
  }

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  SparseConfig Cfg;
  ConvScenario S;
  std::shared_ptr<const SparsePrepared> PK;
  AlignedBuffer Patches; ///< per-instance run scratch (im2 variant)
};

void SparseInstance::run(const Tensor3D &In, Tensor3D &Out,
                         const RunContext &Ctx) {
  const CompressedKernel &CK = PK->CK;
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();

  Tensor3D NativeOut;
  Tensor3D *Target = &Out;
  if (Out.layout() != Layout::CHW) {
    NativeOut = Tensor3D(S.M, Ho, Wo, Layout::CHW);
    Target = &NativeOut;
  }
  float *OD = Target->data();

  if (Cfg.Im2Variant) {
    // Patch matrix P[(c*K+kr)*K+kc][Ho*Wo], same as im2col.
    const int64_t PixelCount = Ho * Wo;
    const int64_t SC = In.stride(Dim::C), SH = In.stride(Dim::H),
                  SW = In.stride(Dim::W);
    const float *Data = In.data();
    float *P = Patches.data();
    auto FillChannel = [&](int64_t Ch) {
      for (int64_t Kr = 0; Kr < S.K; ++Kr)
        for (int64_t Kc = 0; Kc < S.K; ++Kc) {
          float *Row = P + ((Ch * S.K + Kr) * S.K + Kc) * PixelCount;
          for (int64_t R = 0; R < Ho; ++R) {
            int64_t IR = R * S.Stride + Kr - S.Pad;
            float *Dst = Row + R * Wo;
            if (IR < 0 || IR >= S.H) {
              std::memset(Dst, 0, static_cast<size_t>(Wo) * sizeof(float));
              continue;
            }
            const float *Src = Data + Ch * SC + IR * SH;
            for (int64_t Col = 0; Col < Wo; ++Col) {
              int64_t IC = Col * S.Stride + Kc - S.Pad;
              Dst[Col] = (IC < 0 || IC >= S.W) ? 0.0f : Src[IC * SW];
            }
          }
        }
    };
    forEachIndex(Ctx, S.C, FillChannel);

    // Sparse GEMM: Out[f] = sum over the filter's non-zeros of
    // value * P[position].
    auto FilterRow = [&](int64_t F) {
      float *ORow = OD + F * PixelCount;
      std::memset(ORow, 0, static_cast<size_t>(PixelCount) * sizeof(float));
      for (int64_t I = CK.RowBegin[F]; I < CK.RowBegin[F + 1]; ++I) {
        const float V = CK.Values[static_cast<size_t>(I)];
        const float *PRow =
            P + static_cast<int64_t>(CK.ColIndex[static_cast<size_t>(I)]) *
                    PixelCount;
        for (int64_t J = 0; J < PixelCount; ++J)
          ORow[J] += V * PRow[J];
      }
    };
    forEachIndex(Ctx, S.M, FilterRow);
  } else {
    // Direct variant on a padded input: one axpy over each output row per
    // non-zero weight.
    const Tensor3D *Input = &In;
    Tensor3D Padded;
    if (S.Pad > 0 || In.layout() != Layout::CHW) {
      Padded = makePaddedInput(In, S.Pad, Layout::CHW);
      Input = &Padded;
    }
    const int64_t Wp = Input->width();
    const float *ID = Input->data();
    const int64_t PlaneStride = Input->height() * Wp;

    auto FilterPass = [&](int64_t F) {
      float *OBase = OD + F * Ho * Wo;
      std::memset(OBase, 0, static_cast<size_t>(Ho * Wo) * sizeof(float));
      for (int64_t I = CK.RowBegin[F]; I < CK.RowBegin[F + 1]; ++I) {
        const float V = CK.Values[static_cast<size_t>(I)];
        int64_t Flat = CK.ColIndex[static_cast<size_t>(I)];
        int64_t Kc = Flat % S.K;
        int64_t Kr = (Flat / S.K) % S.K;
        int64_t Ch = Flat / (S.K * S.K);
        for (int64_t R = 0; R < Ho; ++R) {
          const float *IRow =
              ID + Ch * PlaneStride + (R * S.Stride + Kr) * Wp + Kc;
          float *ORow = OBase + R * Wo;
          if (S.Stride == 1) {
            for (int64_t Col = 0; Col < Wo; ++Col)
              ORow[Col] += V * IRow[Col];
          } else {
            for (int64_t Col = 0; Col < Wo; ++Col)
              ORow[Col] += V * IRow[Col * S.Stride];
          }
        }
      }
    };
    forEachIndex(Ctx, S.M, FilterPass);
  }

  if (Target != &Out)
    runTransform(*Target, Out);
}

class SparsePrimitive : public ConvPrimitive {
public:
  explicit SparsePrimitive(const SparseConfig &Cfg) : Cfg(Cfg) {}

  std::string name() const override { return Cfg.Name; }
  ConvFamily family() const override { return ConvFamily::Sparse; }
  Layout inputLayout() const override { return Layout::CHW; }
  Layout outputLayout() const override { return Layout::CHW; }

  bool supports(const ConvScenario &S) const override {
    return S.outHeight() >= 1 && S.outWidth() >= 1;
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    if (!Cfg.Im2Variant)
      return static_cast<size_t>(S.C) * S.paddedHeight() * S.paddedWidth() *
             sizeof(float);
    return static_cast<size_t>(S.C) * S.K * S.K * S.outHeight() *
           S.outWidth() * sizeof(float);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<SparsePrepared>(S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(supports(S) && "binding unsupported scenario");
    assert(dynamic_cast<const SparsePrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<SparseInstance>(
        Cfg, S,
        std::static_pointer_cast<const SparsePrepared>(std::move(Prepared)));
  }

private:
  SparseConfig Cfg;
};

} // namespace

void primsel::registerSparseFamily(PrimitiveLibrary &Lib) {
  const SparseConfig Configs[] = {
      {true, "sparse-im2col-chw-chw"},
      {false, "sparse-direct-chw-chw"},
  };
  for (const SparseConfig &Cfg : Configs)
    Lib.add(std::make_unique<SparsePrimitive>(Cfg));
}
