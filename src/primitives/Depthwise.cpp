//===- primitives/Depthwise.cpp - Depthwise convolution family -----------===//
//
// Part of primsel. See DESIGN.md.
//
// The depthwise family: per-channel convolutions for the separable stacks
// that dominate MobileNet-class networks. A depthwise conv computes a
// different function than any standard conv (output channel m reads only
// input channel m), so these routines form their own family, paired with
// scenarios through ConvScenario.Depthwise rather than through every other
// family's supports() predicate. Variants fix distinct layout preferences
// (CHW-native loops, an HWC-blocked per-pixel kernel, and an im2-style
// patch-matrix walk) so the PBQP formulation has a genuine layout choice at
// depthwise nodes, mirroring hmlp-style libraries where depthwise is a
// first-class GEMM-adjacent primitive, not a Conv special case.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "primitives/Reference.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace primsel;

namespace {

/// The loop schedules implemented by the depthwise family.
enum class DwSchedule : uint8_t {
  Reference, ///< per-channel referenceDepthwiseConv; the family's oracle
  ChwRows,   ///< branch-free rows over a padded CHW plane, kernel-stationary
  HwcPixels, ///< HWC-blocked: per output pixel, the channel loop innermost
  Im2Patch,  ///< im2-style: per channel, a (Ho*Wo) x K^2 patch-matrix walk
};

struct DwConfig {
  DwSchedule Schedule;
  Layout In;
  Layout Out;
  const char *Name;
};

/// Weight-side artifact: the per-channel filters packed for the schedule
/// (or the raw Kernel4D copy the reference oracle consumes).
struct DwPrepared : PreparedKernel {
  DwPrepared(const DwConfig &Cfg, const ConvScenario &S,
             const Kernel4D &Weights)
      : PackedW(Cfg.Schedule == DwSchedule::Reference
                    ? 0
                    : static_cast<size_t>(Weights.size())) {
    assert(S.Depthwise && S.M == S.C && "requires a depthwise scenario");
    if (Cfg.Schedule == DwSchedule::Reference) {
      // The reference schedule runs the oracle directly on Kernel4D
      // weights; no packed copy.
      RefWeights = Kernel4D(S.M, 1, S.K);
      std::memcpy(RefWeights.data(), Weights.data(),
                  static_cast<size_t>(Weights.size()) * sizeof(float));
    } else if (Cfg.Schedule == DwSchedule::HwcPixels) {
      // Channel-innermost packing: W[kr][kc][c] so the per-pixel loop
      // streams weights and HWC input together.
      for (int64_t Kr = 0; Kr < S.K; ++Kr)
        for (int64_t Kc = 0; Kc < S.K; ++Kc)
          for (int64_t Ch = 0; Ch < S.C; ++Ch)
            PackedW[(Kr * S.K + Kc) * S.C + Ch] = Weights.at(Ch, 0, Kr, Kc);
    } else {
      // C x K x K, the Kernel4D storage order for single-channel filters.
      std::memcpy(PackedW.data(), Weights.data(),
                  static_cast<size_t>(Weights.size()) * sizeof(float));
    }
  }

  size_t bytes() const override {
    return PackedW.size() * sizeof(float) +
           static_cast<size_t>(RefWeights.size()) * sizeof(float);
  }

  AlignedBuffer PackedW;
  Kernel4D RefWeights; ///< Reference schedule only
};

class DepthwiseInstance : public ConvInstance {
public:
  DepthwiseInstance(const DwConfig &Cfg, const ConvScenario &S,
                    std::shared_ptr<const DwPrepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  void runChannels(const Tensor3D &In, Tensor3D &Out, int64_t ChBegin,
                   int64_t ChEnd) const;
  void runPixelRows(const Tensor3D &In, Tensor3D &Out, int64_t RowBegin,
                    int64_t RowEnd) const;

  DwConfig Cfg;
  ConvScenario S;
  std::shared_ptr<const DwPrepared> PK;
};

/// Channel-sliced schedules (ChwRows, Im2Patch) on a padded input.
void DepthwiseInstance::runChannels(const Tensor3D &In, Tensor3D &Out,
                                    int64_t ChBegin, int64_t ChEnd) const {
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t SC = In.stride(Dim::C), SH = In.stride(Dim::H),
                SW = In.stride(Dim::W);
  const int64_t OC = Out.stride(Dim::C), OH = Out.stride(Dim::H),
                OW = Out.stride(Dim::W);
  const float *Data = In.data();
  float *OutData = Out.data();

  switch (Cfg.Schedule) {
  case DwSchedule::ChwRows: {
    // Kernel-stationary accumulation over output rows; the padded CHW
    // input makes the inner column loop branch-free (SW == 1). The output
    // may be any layout: writes go through its strides.
    assert(SW == 1 && "ChwRows requires a W-contiguous (CHW) input");
    for (int64_t Ch = ChBegin; Ch < ChEnd; ++Ch) {
      const float *W = PK->PackedW.data() + Ch * S.K * S.K;
      for (int64_t R = 0; R < Ho; ++R) {
        float *ORow = OutData + Ch * OC + R * OH;
        for (int64_t Col = 0; Col < Wo; ++Col)
          ORow[Col * OW] = 0.0f;
      }
      for (int64_t Kr = 0; Kr < S.K; ++Kr)
        for (int64_t Kc = 0; Kc < S.K; ++Kc) {
          float WV = W[Kr * S.K + Kc];
          for (int64_t R = 0; R < Ho; ++R) {
            const float *IRow =
                Data + Ch * SC + (R * S.Stride + Kr) * SH + Kc * SW;
            float *ORow = OutData + Ch * OC + R * OH;
            if (S.Stride == 1) {
              for (int64_t Col = 0; Col < Wo; ++Col)
                ORow[Col * OW] += WV * IRow[Col];
            } else {
              for (int64_t Col = 0; Col < Wo; ++Col)
                ORow[Col * OW] += WV * IRow[Col * S.Stride];
            }
          }
        }
    }
    return;
  }

  case DwSchedule::Im2Patch: {
    // im2-style: the channel's K^2-tap dot product over a virtual
    // (Ho*Wo) x K^2 patch matrix, walked patch-row by patch-row. The patch
    // rows are gathered into a small stack buffer, the GEMV collapses to a
    // dot product per output pixel.
    float Taps[121]; // K <= 11 in every evaluated network
    assert(S.K * S.K <= 121 && "kernel too large for the im2 tap buffer");
    const int64_t KK = S.K * S.K;
    for (int64_t Ch = ChBegin; Ch < ChEnd; ++Ch) {
      const float *W = PK->PackedW.data() + Ch * KK;
      for (int64_t R = 0; R < Ho; ++R)
        for (int64_t Col = 0; Col < Wo; ++Col) {
          for (int64_t Kr = 0; Kr < S.K; ++Kr) {
            const float *IRow = Data + Ch * SC +
                                (R * S.Stride + Kr) * SH +
                                Col * S.Stride * SW;
            for (int64_t Kc = 0; Kc < S.K; ++Kc)
              Taps[Kr * S.K + Kc] = IRow[Kc * SW];
          }
          float Acc = 0.0f;
          for (int64_t T = 0; T < KK; ++T)
            Acc += Taps[T] * W[T];
          OutData[Ch * OC + R * OH + Col * OW] = Acc;
        }
    }
    return;
  }

  default:
    assert(false && "schedule is not channel-sliced");
  }
}

/// HWC-blocked schedule: rows of output pixels, channels innermost.
void DepthwiseInstance::runPixelRows(const Tensor3D &In, Tensor3D &Out,
                                     int64_t RowBegin, int64_t RowEnd) const {
  const int64_t Wo = S.outWidth(), C = S.C;
  const int64_t SH = In.stride(Dim::H), SW = In.stride(Dim::W);
  const int64_t OH = Out.stride(Dim::H), OW = Out.stride(Dim::W),
                OC = Out.stride(Dim::C);
  assert(In.stride(Dim::C) == 1 &&
         "HwcPixels requires a channel-contiguous (HWC) input");
  const float *Data = In.data();
  float *OutData = Out.data();

  for (int64_t R = RowBegin; R < RowEnd; ++R)
    for (int64_t Col = 0; Col < Wo; ++Col) {
      float *OPix = OutData + R * OH + Col * OW;
      for (int64_t Ch = 0; Ch < C; ++Ch)
        OPix[Ch * OC] = 0.0f;
      for (int64_t Kr = 0; Kr < S.K; ++Kr) {
        const float *IRow =
            Data + (R * S.Stride + Kr) * SH + Col * S.Stride * SW;
        for (int64_t Kc = 0; Kc < S.K; ++Kc) {
          const float *IPix = IRow + Kc * SW; // HWC: channels contiguous
          const float *WPix = PK->PackedW.data() + (Kr * S.K + Kc) * C;
          for (int64_t Ch = 0; Ch < C; ++Ch)
            OPix[Ch * OC] += IPix[Ch] * WPix[Ch];
        }
      }
    }
}

void DepthwiseInstance::run(const Tensor3D &In, Tensor3D &Out,
                            const RunContext &Ctx) {
  if (Cfg.Schedule == DwSchedule::Reference) {
    referenceDepthwiseConv(S, In, PK->RefWeights, Out);
    return;
  }

  // Branch-free schedules run on a padded copy (part of this primitive's
  // measured cost, as in the direct family).
  const Tensor3D *Input = &In;
  Tensor3D Padded;
  if (S.Pad > 0) {
    Padded = makePaddedInput(In, S.Pad, Cfg.In);
    Input = &Padded;
  }

  bool ChannelParallel = Cfg.Schedule != DwSchedule::HwcPixels;
  int64_t Extent = ChannelParallel ? S.C : S.outHeight();
  auto RunChunk = [&](int64_t Begin, int64_t End) {
    if (ChannelParallel)
      runChannels(*Input, Out, Begin, End);
    else
      runPixelRows(*Input, Out, Begin, End);
  };

  ThreadPool *Pool = Ctx.Pool;
  if (!Pool || Pool->numThreads() == 1) {
    RunChunk(0, Extent);
    return;
  }
  int64_t Workers = Pool->numThreads();
  if (Ctx.MaxThreads > 0)
    Workers = std::min<int64_t>(Workers, Ctx.MaxThreads);
  int64_t NumChunks = std::min<int64_t>(Workers, Extent);
  int64_t ChunkSize = (Extent + NumChunks - 1) / NumChunks;
  Pool->parallelFor(0, NumChunks, [&](int64_t Chunk) {
    int64_t Begin = Chunk * ChunkSize;
    int64_t End = std::min(Extent, Begin + ChunkSize);
    if (Begin < End)
      RunChunk(Begin, End);
  });
}

class DepthwisePrimitive : public ConvPrimitive {
public:
  explicit DepthwisePrimitive(const DwConfig &Cfg) : Cfg(Cfg) {}

  std::string name() const override { return Cfg.Name; }
  ConvFamily family() const override { return ConvFamily::Depthwise; }
  Layout inputLayout() const override { return Cfg.In; }
  Layout outputLayout() const override { return Cfg.Out; }
  bool isDepthwise() const override { return true; }

  bool supports(const ConvScenario &S) const override {
    // Any stride/kernel/padding, but strictly depthwise scenarios; the im2
    // schedule's tap buffer bounds the kernel radix.
    return S.Depthwise && S.M == S.C && S.outHeight() >= 1 &&
           S.outWidth() >= 1 &&
           (Cfg.Schedule != DwSchedule::Im2Patch || S.K <= 11);
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    if (S.Pad == 0 || Cfg.Schedule == DwSchedule::Reference)
      return 0;
    return static_cast<size_t>(S.C) * S.paddedHeight() * S.paddedWidth() *
           sizeof(float);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<DwPrepared>(Cfg, S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(supports(S) && "binding unsupported scenario");
    assert(dynamic_cast<const DwPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<DepthwiseInstance>(
        Cfg, S,
        std::static_pointer_cast<const DwPrepared>(std::move(Prepared)));
  }

private:
  DwConfig Cfg;
};

} // namespace

void primsel::registerDepthwiseFamily(PrimitiveLibrary &Lib) {
  // The reference schedule doubles as the family's baseline/oracle; the
  // remaining variants cover CHW- and HWC-native loops plus one
  // cross-layout routine, so depthwise nodes present the PBQP formulation
  // with genuinely different layout preferences.
  const DwConfig Configs[] = {
      {DwSchedule::Reference, Layout::CHW, Layout::CHW, "dw-ref-chw-chw"},
      {DwSchedule::ChwRows, Layout::CHW, Layout::CHW, "dw-rows-chw-chw"},
      {DwSchedule::Im2Patch, Layout::CHW, Layout::CHW, "dw-im2-chw-chw"},
      {DwSchedule::HwcPixels, Layout::HWC, Layout::HWC, "dw-pix-hwc-hwc"},
      {DwSchedule::HwcPixels, Layout::HWC, Layout::CHW, "dw-pix-hwc-chw"},
      {DwSchedule::ChwRows, Layout::CHW, Layout::HWC, "dw-rows-chw-hwc"},
      {DwSchedule::Im2Patch, Layout::HCW, Layout::HCW, "dw-im2-hcw-hcw"},
  };
  for (const DwConfig &Cfg : Configs)
    Lib.add(std::make_unique<DepthwisePrimitive>(Cfg));
}
