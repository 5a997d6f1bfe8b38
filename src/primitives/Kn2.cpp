//===- primitives/Kn2.cpp - kn2row / kn2col GEMM convolution -------------===//
//
// Part of primsel. See DESIGN.md.
//
// The kn2 family (paper §4, after Vasudevan et al.): no Toeplitz matrix is
// built; convolution is "the sum of several matrix multiplications". For
// each kernel position (kr, kc), a single M x C GEMM over all pixels
// produces that position's contribution, which is added into the output at
// a spatial shift. The accumulating ("as") variants reuse one M x H x W
// temporary ("achieve good execution times with low additional memory");
// the "full" variant performs one large (K*K*M) x C GEMM and then sums the
// shifted slices. kn2 cannot implement strided convolution efficiently, so
// supports() requires stride 1 (Table 1: "Strided: - -").
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "gemm/Gemm.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace primsel;

namespace {

struct Kn2Config {
  bool ColVariant;   ///< false: kn2row ([M][HW] temps), true: kn2col
  bool Accumulating; ///< true: per-position temp; false: one big GEMM
  GemmVariant Gemm;
  Layout In;
  Layout Out;
  const char *Name;
};

/// Weight-side artifact: the per-kernel-position M x C weight slices as
/// the micro-kernel's panels -- operand A of kn2row's per-position GEMMs
/// (one K*K*M-lane operand for the full variant), operand B of kn2col's.
/// Packed, a slice is the same panels whether the variant passes it plain
/// or transposed.
struct Kn2Prepared : PreparedKernel {
  Kn2Prepared(const Kn2Config &Cfg, const ConvScenario &S,
              const Kernel4D &Weights) {
    const int64_t K = S.K, C = S.C, M = S.M, HW = S.H * S.W;
    const float *WD = Weights.data();
    // MCKK storage: element (f, c, pos) at (f * C + c) * K*K + pos.
    if (!Cfg.ColVariant && !Cfg.Accumulating) {
      Panels = PackedOperands(PackedOperand(GemmSide::A, K * K * M, HW, C), 1);
      Panels[0].fill([&](int64_t Lane, int64_t Ch) {
        const int64_t Pos = Lane / M, F = Lane % M;
        return WD[(F * C + Ch) * K * K + Pos];
      });
      return;
    }
    const PackedOperand Slice =
        Cfg.ColVariant ? PackedOperand(GemmSide::B, HW, M, C)
                       : PackedOperand(GemmSide::A, M, HW, C);
    Panels = PackedOperands(Slice, K * K);
    for (int64_t Pos = 0; Pos < K * K; ++Pos)
      Panels[static_cast<size_t>(Pos)].fill([&](int64_t F, int64_t Ch) {
        return WD[(F * C + Ch) * K * K + Pos];
      });
  }

  size_t bytes() const override { return Panels.bytes(); }

  PackedOperands Panels;
};

class Kn2Instance : public ConvInstance {
public:
  Kn2Instance(const Kn2Config &Cfg, const ConvScenario &S,
              std::shared_ptr<const Kn2Prepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)),
        Temp(static_cast<size_t>((Cfg.Accumulating ? 1 : S.K * S.K) * S.M *
                                 S.H * S.W)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  void shiftAddRow(const float *Temp, float *OutData, int64_t Kr, int64_t Kc,
                   bool ColVariant) const;

  Kn2Config Cfg;
  ConvScenario S;
  std::shared_ptr<const Kn2Prepared> PK;
  AlignedBuffer Temp;     ///< per-instance run scratch
  Tensor3D NativeScratch; ///< reused output staging when layouts differ
};

void Kn2Instance::run(const Tensor3D &In, Tensor3D &Out,
                      const RunContext &Ctx) {
  assert(S.Stride == 1 && "kn2 requires stride 1");
  const int64_t HW = S.H * S.W;
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  ThreadPool *Pool = Ctx.Pool;

  Layout Native = Cfg.ColVariant ? Layout::HWC : Layout::CHW;
  Tensor3D *Target = &Out;
  if (Out.layout() != Native) {
    if (!NativeScratch.sameShape(Out) || NativeScratch.layout() != Native)
      NativeScratch = Tensor3D(S.M, Ho, Wo, Native);
    Target = &NativeScratch;
  }
  Target->zero();
  float *OutData = Target->data();

  auto PositionGemm = [&](int64_t Pos, float *TempPos) {
    const PackedOperand &WPos = PK->Panels[static_cast<size_t>(Pos)];
    if (!Cfg.ColVariant) {
      // Temp[M][HW] = Wslice[M][C] x In[C][HW]. With TransposedB the input
      // is consumed directly in its HWC form as B^T = [HW][C].
      sgemm(Cfg.Gemm, S.M, HW, S.C, WPos, In.data(), TempPos, HW,
            /*Accumulate=*/false, Pool, Ctx.MaxThreads);
    } else {
      // Temp[HW][M] = In_hwc[HW][C] x Wslice[C][M].
      sgemm(HW, S.M, S.C, In.data(), WPos, TempPos, S.M,
            /*Accumulate=*/false, Pool, Ctx.MaxThreads);
    }
  };

  if (Cfg.Accumulating) {
    for (int64_t Pos = 0; Pos < S.K * S.K; ++Pos) {
      PositionGemm(Pos, Temp.data());
      shiftAddRow(Temp.data(), OutData, Pos / S.K, Pos % S.K, Cfg.ColVariant);
    }
  } else {
    // One big GEMM covering every kernel position, then sum shifted slices.
    // kn2row: [K*K*M][HW] = Wall[K*K*M][C] x In[C][HW]; kn2col analogous.
    if (!Cfg.ColVariant)
      sgemm(Cfg.Gemm, S.K * S.K * S.M, HW, S.C, PK->Panels[0], In.data(),
            Temp.data(), HW, /*Accumulate=*/false, Pool, Ctx.MaxThreads);
    else
      for (int64_t Pos = 0; Pos < S.K * S.K; ++Pos)
        PositionGemm(Pos, Temp.data() + Pos * HW * S.M);
    for (int64_t Pos = 0; Pos < S.K * S.K; ++Pos)
      shiftAddRow(Temp.data() + Pos * S.M * HW, OutData, Pos / S.K,
                  Pos % S.K, Cfg.ColVariant);
  }

  if (Target != &Out)
    runTransform(*Target, Out);
}

/// Add a kernel position's pixel products into the output at the spatial
/// shift (Kr - Pad, Kc - Pad), clipping to the valid ranges.
void Kn2Instance::shiftAddRow(const float *TempData, float *OutData,
                              int64_t Kr, int64_t Kc, bool ColVariant) const {
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t RowBegin = std::max<int64_t>(0, S.Pad - Kr);
  const int64_t RowEnd = std::min<int64_t>(Ho, S.H + S.Pad - Kr);
  const int64_t ColBegin = std::max<int64_t>(0, S.Pad - Kc);
  const int64_t ColEnd = std::min<int64_t>(Wo, S.W + S.Pad - Kc);

  if (!ColVariant) {
    // Temp is [M][H][W]; Out is CHW [M][Ho][Wo].
    for (int64_t F = 0; F < S.M; ++F)
      for (int64_t R = RowBegin; R < RowEnd; ++R) {
        const float *Src =
            TempData + (F * S.H + (R + Kr - S.Pad)) * S.W + (Kc - S.Pad);
        float *Dst = OutData + (F * Ho + R) * Wo;
        for (int64_t Col = ColBegin; Col < ColEnd; ++Col)
          Dst[Col] += Src[Col];
      }
    return;
  }
  // Temp is [H][W][M]; Out is HWC [Ho][Wo][M].
  for (int64_t R = RowBegin; R < RowEnd; ++R)
    for (int64_t Col = ColBegin; Col < ColEnd; ++Col) {
      const float *Src =
          TempData +
          ((R + Kr - S.Pad) * S.W + (Col + Kc - S.Pad)) * S.M;
      float *Dst = OutData + (R * Wo + Col) * S.M;
      for (int64_t F = 0; F < S.M; ++F)
        Dst[F] += Src[F];
    }
}

class Kn2Primitive : public ConvPrimitive {
public:
  explicit Kn2Primitive(const Kn2Config &Cfg) : Cfg(Cfg) {}

  std::string name() const override { return Cfg.Name; }
  ConvFamily family() const override { return ConvFamily::Kn2; }
  Layout inputLayout() const override { return Cfg.In; }
  Layout outputLayout() const override { return Cfg.Out; }

  bool supports(const ConvScenario &S) const override {
    return S.Stride == 1 && S.outHeight() >= 1 && S.outWidth() >= 1;
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    int64_t Slices = Cfg.Accumulating ? 1 : S.K * S.K;
    return static_cast<size_t>(Slices) * S.M * S.H * S.W * sizeof(float);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<Kn2Prepared>(Cfg, S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(supports(S) && "binding unsupported scenario");
    assert(dynamic_cast<const Kn2Prepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<Kn2Instance>(
        Cfg, S, std::static_pointer_cast<const Kn2Prepared>(std::move(Prepared)));
  }

private:
  Kn2Config Cfg;
};

} // namespace

void primsel::registerKn2Family(PrimitiveLibrary &Lib) {
  const Kn2Config Configs[] = {
      {false, true, GemmVariant::Blocked, Layout::CHW, Layout::CHW,
       "kn2row-as-b-chw-chw"},
      {false, false, GemmVariant::Blocked, Layout::CHW, Layout::CHW,
       "kn2row-full-b-chw-chw"},
      {false, true, GemmVariant::TransposedB, Layout::HWC, Layout::CHW,
       "kn2row-as-bt-hwc-chw"},
      {false, true, GemmVariant::Blocked, Layout::CHW, Layout::HWC,
       "kn2row-as-b-chw-hwc"},
      {true, true, GemmVariant::Blocked, Layout::HWC, Layout::HWC,
       "kn2col-as-b-hwc-hwc"},
      {false, false, GemmVariant::TransposedB, Layout::HWC, Layout::CHW,
       "kn2row-full-bt-hwc-chw"},
      {true, true, GemmVariant::Blocked, Layout::HWC, Layout::CHW,
       "kn2col-as-b-hwc-chw"},
  };
  for (const Kn2Config &Cfg : Configs)
    Lib.add(std::make_unique<Kn2Primitive>(Cfg));
}
