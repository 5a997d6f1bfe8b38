//===- primitives/Im2.cpp - im2col / im2row GEMM convolution -------------===//
//
// Part of primsel. See DESIGN.md.
//
// The im2 family (paper §4): "first construct a Toeplitz matrix from the
// input image, and convolve this with the kernel using a single call to the
// BLAS GEMM routine". im2col builds the patch matrix with patches as
// columns (natural from CHW, producing CHW output); im2row builds it with
// patches as rows (natural from HWC, producing HWC output). Variants differ
// in the GEMM inner kernel -- including the one that "passes the kernel
// matrix to the GEMM matrix multiplication call as a transposed matrix"
// that the paper's Figure 4 selects on ARM.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "gemm/Gemm.h"
#include "primitives/Reference.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"

#include <cassert>
#include <cstring>

using namespace primsel;

namespace {

struct Im2Config {
  bool RowMajorPatches; ///< false: im2col, true: im2row
  GemmVariant Gemm;
  Layout In;
  Layout Out;
  const char *Name;
};

/// Weight-side artifact: the kernel matrix as the GEMM operand the
/// configured variant consumes. The packed variants hold it as the
/// micro-kernel's panels -- operand A for im2col, B for im2row, whose
/// element order ([kr][kc][c]) matches the patch rows -- the naive ones,
/// which read no panels, as a flat matrix.
struct Im2Prepared : PreparedKernel {
  Im2Prepared(const Im2Config &Cfg, const ConvScenario &S,
              const Kernel4D &Weights) {
    const int64_t K = S.K, C = S.C, M = S.M;
    const int64_t PatchLen = C * K * K, Pixels = S.outHeight() * S.outWidth();
    const float *WD = Weights.data();
    // MCKK storage: element (f, c, kr, kc) at f * PatchLen + c * K*K + kr*K + kc.
    auto RowElem = [&](int64_t F, int64_t P) {
      const int64_t Ch = P % C, Pos = P / C;
      return WD[F * PatchLen + Ch * K * K + Pos];
    };
    if (Cfg.Gemm != GemmVariant::Naive) {
      if (!Cfg.RowMajorPatches) {
        // im2col: A = kernel matrix [M][C*K*K]; MCKK storage is that matrix.
        Panels = PackedOperands(
            PackedOperand(GemmSide::A, M, Pixels, PatchLen), 1);
        Panels[0].fill(
            [&](int64_t F, int64_t P) { return WD[F * PatchLen + P]; });
      } else {
        Panels = PackedOperands(
            PackedOperand(GemmSide::B, Pixels, M, PatchLen), 1);
        Panels[0].fill(RowElem);
      }
      return;
    }
    Flat.reset(static_cast<size_t>(Weights.size()));
    if (!Cfg.RowMajorPatches) {
      std::memcpy(Flat.data(), WD,
                  static_cast<size_t>(Weights.size()) * sizeof(float));
      return;
    }
    // im2row: B = [C*K*K][M] in the patch rows' [kr][kc][c] order.
    for (int64_t P = 0; P < PatchLen; ++P)
      for (int64_t F = 0; F < M; ++F)
        Flat[P * M + F] = RowElem(F, P);
  }

  size_t bytes() const override {
    return Flat.size() * sizeof(float) + Panels.bytes();
  }

  AlignedBuffer Flat;    ///< naive variants: the kernel matrix
  PackedOperands Panels; ///< packed variants: one operand
};

class Im2Instance : public ConvInstance {
public:
  Im2Instance(const Im2Config &Cfg, const ConvScenario &S,
              std::shared_ptr<const Im2Prepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)),
        Patches(static_cast<size_t>(S.C * S.K * S.K * S.outHeight() *
                                    S.outWidth())) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  void buildColPatches(const Tensor3D &In, const RunContext &Ctx);
  void buildRowPatches(const Tensor3D &In, const RunContext &Ctx);

  Im2Config Cfg;
  ConvScenario S;
  std::shared_ptr<const Im2Prepared> PK;
  AlignedBuffer Patches;  ///< per-instance run scratch
  Tensor3D NativeScratch; ///< reused output staging when layouts differ
};

/// im2col patch matrix: P[(c*K+kr)*K+kc][ho*Wo+wo], zero-filled where the
/// receptive field leaves the input.
void Im2Instance::buildColPatches(const Tensor3D &In, const RunContext &Ctx) {
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
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
}

/// im2row patch matrix: R[ho*Wo+wo][(kr*K+kc)*C+c].
void Im2Instance::buildRowPatches(const Tensor3D &In, const RunContext &Ctx) {
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t PatchLen = S.K * S.K * S.C;
  const int64_t SC = In.stride(Dim::C), SH = In.stride(Dim::H),
                SW = In.stride(Dim::W);
  const float *Data = In.data();
  float *P = Patches.data();

  auto FillRow = [&](int64_t R) {
    for (int64_t Col = 0; Col < Wo; ++Col) {
      float *Patch = P + (R * Wo + Col) * PatchLen;
      for (int64_t Kr = 0; Kr < S.K; ++Kr) {
        int64_t IR = R * S.Stride + Kr - S.Pad;
        for (int64_t Kc = 0; Kc < S.K; ++Kc) {
          int64_t IC = Col * S.Stride + Kc - S.Pad;
          float *Dst = Patch + (Kr * S.K + Kc) * S.C;
          if (IR < 0 || IR >= S.H || IC < 0 || IC >= S.W) {
            std::memset(Dst, 0, static_cast<size_t>(S.C) * sizeof(float));
            continue;
          }
          const float *Src = Data + IR * SH + IC * SW;
          if (SC == 1) {
            std::memcpy(Dst, Src, static_cast<size_t>(S.C) * sizeof(float));
          } else {
            for (int64_t Ch = 0; Ch < S.C; ++Ch)
              Dst[Ch] = Src[Ch * SC];
          }
        }
      }
    }
  };
  forEachIndex(Ctx, Ho, FillRow);
}

void Im2Instance::run(const Tensor3D &In, Tensor3D &Out,
                      const RunContext &Ctx) {
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t PatchLen = S.C * S.K * S.K;
  ThreadPool *Pool = Ctx.Pool;

  Layout Native = Cfg.RowMajorPatches ? Layout::HWC : Layout::CHW;
  Tensor3D *Target = &Out;
  if (Out.layout() != Native) {
    if (!NativeScratch.sameShape(Out) || NativeScratch.layout() != Native)
      NativeScratch = Tensor3D(S.M, Ho, Wo, Native);
    Target = &NativeScratch;
  }

  if (!Cfg.RowMajorPatches) {
    // Out[M][Ho*Wo] = Wmat[M][PatchLen] x P[PatchLen][Ho*Wo].
    buildColPatches(In, Ctx);
    if (Cfg.Gemm == GemmVariant::Naive)
      sgemm(Cfg.Gemm, S.M, Ho * Wo, PatchLen, PK->Flat.data(),
            Patches.data(), Target->data(), Ho * Wo, /*Accumulate=*/false,
            Pool, Ctx.MaxThreads);
    else
      sgemm(Cfg.Gemm, S.M, Ho * Wo, PatchLen, PK->Panels[0], Patches.data(),
            Target->data(), Ho * Wo, /*Accumulate=*/false, Pool,
            Ctx.MaxThreads);
  } else {
    // Out[Ho*Wo][M] = R[Ho*Wo][PatchLen] x Wmat[PatchLen][M]. Packed, the
    // kernel matrix is the same panels whether the variant passes it plain
    // or transposed.
    buildRowPatches(In, Ctx);
    if (Cfg.Gemm == GemmVariant::Naive)
      sgemm(Cfg.Gemm, Ho * Wo, S.M, PatchLen, Patches.data(),
            PK->Flat.data(), Target->data(), S.M, /*Accumulate=*/false,
            Pool, Ctx.MaxThreads);
    else
      sgemm(Ho * Wo, S.M, PatchLen, Patches.data(), PK->Panels[0],
            Target->data(), S.M, /*Accumulate=*/false, Pool, Ctx.MaxThreads);
  }

  if (Target != &Out)
    runTransform(*Target, Out);
}

class Im2Primitive : public ConvPrimitive {
public:
  explicit Im2Primitive(const Im2Config &Cfg) : Cfg(Cfg) {}

  std::string name() const override { return Cfg.Name; }
  ConvFamily family() const override { return ConvFamily::Im2; }
  Layout inputLayout() const override { return Cfg.In; }
  Layout outputLayout() const override { return Cfg.Out; }

  bool supports(const ConvScenario &S) const override {
    // Any stride and kernel ("Strided: ++" in Table 1); the cost is the
    // Toeplitz workspace, not legality.
    return S.outHeight() >= 1 && S.outWidth() >= 1;
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    return static_cast<size_t>(S.C) * S.K * S.K * S.outHeight() *
           S.outWidth() * sizeof(float);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<Im2Prepared>(Cfg, S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(supports(S) && "binding unsupported scenario");
    assert(dynamic_cast<const Im2Prepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<Im2Instance>(
        Cfg, S, std::static_pointer_cast<const Im2Prepared>(std::move(Prepared)));
  }

private:
  Im2Config Cfg;
};

} // namespace

void primsel::registerIm2Family(PrimitiveLibrary &Lib) {
  const Im2Config Configs[] = {
      {false, GemmVariant::Blocked, Layout::CHW, Layout::CHW,
       "im2col-b-chw-chw"},
      {false, GemmVariant::Naive, Layout::CHW, Layout::CHW,
       "im2col-n-chw-chw"},
      {false, GemmVariant::Blocked, Layout::HWC, Layout::CHW,
       "im2col-b-hwc-chw"},
      {false, GemmVariant::Blocked, Layout::CHW, Layout::HWC,
       "im2col-b-chw-hwc"},
      {true, GemmVariant::Blocked, Layout::HWC, Layout::HWC,
       "im2row-b-hwc-hwc"},
      {true, GemmVariant::Naive, Layout::HWC, Layout::HWC,
       "im2row-n-hwc-hwc"},
      {true, GemmVariant::Blocked, Layout::CHW, Layout::HWC,
       "im2row-b-chw-hwc"},
      {true, GemmVariant::Blocked, Layout::HWC, Layout::CHW,
       "im2row-b-hwc-chw"},
      {false, GemmVariant::Naive, Layout::HWC, Layout::CHW,
       "im2col-n-hwc-chw"},
      {true, GemmVariant::Naive, Layout::CHW, Layout::HWC,
       "im2row-n-chw-hwc"},
  };
  for (const Im2Config &Cfg : Configs)
    Lib.add(std::make_unique<Im2Primitive>(Cfg));
}
