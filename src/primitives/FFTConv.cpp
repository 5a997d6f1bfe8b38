//===- primitives/FFTConv.cpp - FFT convolution primitives ---------------===//
//
// Part of primsel. See DESIGN.md.
//
// The fft family (paper §4): "perform FFT convolution via the convolution
// theorem ... compute 2D convolution as a sum of 1D FFT convolutions, which
// requires less space than 2D FFT convolution at the cost of more
// operations". Every input row is transformed once; the output row spectrum
// of filter m is the sum over channels and kernel rows of pointwise
// products; one inverse FFT per (filter, output row) recovers the result.
//
// The "kc" variant caches the kernel-row spectra at setup (fast per run,
// large weight-transform memory, so supports() caps it); the streaming
// variant recomputes the current channel's kernel spectra on the fly, which
// costs an extra log-factor on the kernel rows but keeps the footprint to a
// couple of rows of spectra -- the paper's observation that fft "is only
// sometimes faster than other approaches" (§4) emerges from exactly this
// trade-off.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "fft/FFT.h"
#include "primitives/Reference.h"
#include "tensor/Transform.h"

#include <cassert>
#include <complex>
#include <cstring>
#include <vector>

using namespace primsel;

namespace {

using CVec = std::vector<std::complex<float>>;

struct FFTConfig {
  bool CachedKernels; ///< transform all kernel rows at setup
  Layout In;
  Layout Out;
  const char *Name;
};

/// Workspace cap for the per-run output spectra (streaming variant) -- FFT
/// simply is not offered for layers whose row spectra would not fit.
constexpr size_t StreamingWorkspaceCap = 256u << 20;
/// Setup-memory cap for the kernel-spectra cache of the "kc" variant.
constexpr size_t CachedKernelCap = 64u << 20;

int64_t fftSizeFor(const ConvScenario &S) {
  return nextPow2(S.paddedWidth() + S.K - 1);
}

size_t spectraBytes(const ConvScenario &S) {
  // Output spectra M x Ho x F plus one channel of input spectra.
  int64_t F = fftSizeFor(S);
  return static_cast<size_t>(S.M * S.outHeight() + S.paddedHeight()) * F *
         sizeof(std::complex<float>);
}

size_t kernelCacheBytes(const ConvScenario &S) {
  return static_cast<size_t>(S.M) * S.C * S.K * fftSizeFor(S) *
         sizeof(std::complex<float>);
}

/// Weight-side artifact: the raw kernel tap rows (streaming variant reads
/// them per run) and, for the "kc" variant, every kernel-row spectrum
/// transformed once.
struct FFTPrepared : PreparedKernel {
  FFTPrepared(const FFTConfig &Cfg, const ConvScenario &S,
              const Kernel4D &Weights) {
    const int64_t FFTSize = fftSizeFor(S);
    TapRows.assign(static_cast<size_t>(S.M * S.C * S.K * S.K), 0.0f);
    std::memcpy(TapRows.data(), Weights.data(),
                TapRows.size() * sizeof(float));
    if (Cfg.CachedKernels) {
      KSpec.resize(static_cast<size_t>(S.M * S.C * S.K));
      for (int64_t F = 0; F < S.M; ++F)
        for (int64_t Ch = 0; Ch < S.C; ++Ch)
          for (int64_t Kr = 0; Kr < S.K; ++Kr)
            KSpec[(F * S.C + Ch) * S.K + Kr] = prepareTapSpectrum(
                tapRow(S, F, Ch, Kr), S.K, FFTSize);
    }
  }

  const float *tapRow(const ConvScenario &S, int64_t F, int64_t Ch,
                      int64_t Kr) const {
    return TapRows.data() + ((F * S.C + Ch) * S.K + Kr) * S.K;
  }

  size_t bytes() const override {
    size_t B = TapRows.size() * sizeof(float);
    for (const CVec &V : KSpec)
      B += V.size() * sizeof(std::complex<float>);
    return B;
  }

  std::vector<float> TapRows;
  std::vector<CVec> KSpec; ///< cached variant only: [m][c][kr] spectra
};

class FFTConvInstance : public ConvInstance {
public:
  FFTConvInstance(const FFTConfig &Cfg, const ConvScenario &S,
                  std::shared_ptr<const FFTPrepared> PK)
      : Cfg(Cfg), S(S), FFTSize(fftSizeFor(S)), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  const float *tapRow(int64_t F, int64_t Ch, int64_t Kr) const {
    return PK->tapRow(S, F, Ch, Kr);
  }

  FFTConfig Cfg;
  ConvScenario S;
  int64_t FFTSize;
  std::shared_ptr<const FFTPrepared> PK;
};

void FFTConvInstance::run(const Tensor3D &In, Tensor3D &Out,
                          const RunContext &Ctx) {
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t Hp = S.paddedHeight(), Wp = S.paddedWidth();
  const int64_t F = FFTSize;

  // Zero-margin CHW copy (converts from HWC input if needed).
  Tensor3D P(S.C, Hp, Wp, Layout::CHW);
  P.zero();
  for (int64_t Ch = 0; Ch < S.C; ++Ch)
    for (int64_t R = 0; R < S.H; ++R)
      for (int64_t Col = 0; Col < S.W; ++Col)
        P.at(Ch, R + S.Pad, Col + S.Pad) = In.at(Ch, R, Col);

  // Output row spectra, accumulated over channels.
  std::vector<CVec> YSpec(static_cast<size_t>(S.M * Ho));
  for (CVec &Y : YSpec)
    Y.assign(static_cast<size_t>(F), std::complex<float>(0.0f, 0.0f));

  std::vector<CVec> XSpec(static_cast<size_t>(Hp));
  std::vector<CVec> ChannelKSpec;
  if (!Cfg.CachedKernels)
    ChannelKSpec.resize(static_cast<size_t>(S.M * S.K));

  for (int64_t Ch = 0; Ch < S.C; ++Ch) {
    // Forward FFT of every padded input row of this channel.
    auto ForwardRow = [&](int64_t R) {
      XSpec[R] = realFFT(P.data() + (Ch * Hp + R) * Wp, Wp, F);
    };
    forEachIndex(Ctx, Hp, ForwardRow);

    // Kernel-row spectra for this channel (streaming variant only).
    if (!Cfg.CachedKernels) {
      auto KernelRow = [&](int64_t FIdx) {
        for (int64_t Kr = 0; Kr < S.K; ++Kr)
          ChannelKSpec[FIdx * S.K + Kr] =
              prepareTapSpectrum(tapRow(FIdx, Ch, Kr), S.K, F);
      };
      forEachIndex(Ctx, S.M, KernelRow);
    }

    // Accumulate pointwise products into the output row spectra.
    auto Accumulate = [&](int64_t FIdx) {
      for (int64_t Kr = 0; Kr < S.K; ++Kr) {
        const CVec &KRow = Cfg.CachedKernels
                               ? PK->KSpec[(FIdx * S.C + Ch) * S.K + Kr]
                               : ChannelKSpec[FIdx * S.K + Kr];
        for (int64_t R = 0; R < Ho; ++R) {
          const CVec &XRow = XSpec[R + Kr];
          CVec &YRow = YSpec[FIdx * Ho + R];
          for (int64_t I = 0; I < F; ++I)
            YRow[I] += XRow[I] * KRow[I];
        }
      }
    };
    forEachIndex(Ctx, S.M, Accumulate);
  }

  // Inverse FFT per (filter, output row); valid correlation outputs start
  // at offset K - 1.
  Layout Native = Layout::CHW;
  Tensor3D NativeOut;
  Tensor3D *Target = &Out;
  if (Out.layout() != Native) {
    NativeOut = Tensor3D(S.M, Ho, Wo, Native);
    Target = &NativeOut;
  }
  float *OD = Target->data();
  auto InverseFilter = [&](int64_t FIdx) {
    for (int64_t R = 0; R < Ho; ++R) {
      CVec &YRow = YSpec[FIdx * Ho + R];
      fftInPlace(YRow, /*Inverse=*/true);
      float *ORow = OD + (FIdx * Ho + R) * Wo;
      for (int64_t Col = 0; Col < Wo; ++Col)
        ORow[Col] = YRow[static_cast<size_t>(Col + S.K - 1)].real();
    }
  };
  forEachIndex(Ctx, S.M, InverseFilter);

  if (Target != &Out)
    runTransform(*Target, Out);
}

class FFTConvPrimitive : public ConvPrimitive {
public:
  explicit FFTConvPrimitive(const FFTConfig &Cfg) : Cfg(Cfg) {}

  std::string name() const override { return Cfg.Name; }
  ConvFamily family() const override { return ConvFamily::FFT; }
  Layout inputLayout() const override { return Cfg.In; }
  Layout outputLayout() const override { return Cfg.Out; }

  bool supports(const ConvScenario &S) const override {
    if (S.Stride != 1 || S.outHeight() < 1 || S.outWidth() < 1)
      return false;
    if (spectraBytes(S) > StreamingWorkspaceCap)
      return false;
    if (Cfg.CachedKernels && kernelCacheBytes(S) > CachedKernelCap)
      return false;
    return true;
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    return spectraBytes(S);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<FFTPrepared>(Cfg, S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(supports(S) && "binding unsupported scenario");
    assert(dynamic_cast<const FFTPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    return std::make_unique<FFTConvInstance>(
        Cfg, S, std::static_pointer_cast<const FFTPrepared>(std::move(Prepared)));
  }

private:
  FFTConfig Cfg;
};

} // namespace

void primsel::registerFFTFamily(PrimitiveLibrary &Lib) {
  const FFTConfig Configs[] = {
      {false, Layout::CHW, Layout::CHW, "fft1d-chw-chw"},
      {true, Layout::CHW, Layout::CHW, "fft1d-kc-chw-chw"},
      {false, Layout::CHW, Layout::HWC, "fft1d-chw-hwc"},
      {false, Layout::HWC, Layout::CHW, "fft1d-hwc-chw"},
      {false, Layout::HWC, Layout::HWC, "fft1d-hwc-hwc"},
  };
  for (const FFTConfig &Cfg : Configs)
    Lib.add(std::make_unique<FFTConvPrimitive>(Cfg));
}
