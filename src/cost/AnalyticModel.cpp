//===- cost/AnalyticModel.cpp ---------------------------------------------===//

#include "cost/AnalyticModel.h"

#include "tensor/Transform.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

using namespace primsel;

namespace {

/// Deterministic per-(primitive, scenario) perturbation in [0.93, 1.10].
/// Near-identical routines really do differ by small, architecture-specific
/// margins that "there is no good way to select between ... except by
/// profiling" (paper §4); this models that spread reproducibly.
double deterministicJitter(const std::string &Name, const ConvScenario &S) {
  size_t H = std::hash<std::string>{}(Name + "|" + S.key());
  double Unit = static_cast<double>(H % 10007) / 10006.0;
  return 0.93 + 0.17 * Unit;
}

double vecUtil(int64_t InnerLen, unsigned VW) {
  return std::min(1.0, static_cast<double>(InnerLen) / VW);
}

bool nameHas(const std::string &Name, const char *Sub) {
  return Name.find(Sub) != std::string::npos;
}

/// Parse the Winograd tile parameters out of a variant name
/// ("wino2d-m4r3-...": M = 4, R = 3).
void parseWinoTile(const std::string &Name, int64_t &M, int64_t &R) {
  size_t Pos = Name.find("-m");
  assert(Pos != std::string::npos && "winograd name without tile");
  M = Name[Pos + 2] - '0';
  R = Name[Pos + 4] - '0';
  assert(M >= 1 && M <= 9 && R >= 1 && R <= 9 && "bad tile digits");
}

double fftOps(double N) { return 5.0 * N * std::log2(std::max(2.0, N)); }

struct ModelTerms {
  double Flops = 0.0;      ///< useful floating point work
  double Efficiency = 0.1; ///< fraction of vector peak achieved
  double TrafficBytes = 0; ///< streaming memory traffic per run
  /// Amdahl serial fraction of the run phase: the share of work the
  /// routine's threading cannot partition (single-threaded shift-add
  /// accumulation in kn2, per-frequency merge steps in FFT, ...). This is
  /// the parallel-efficiency term behind the solver's thread dimension: it
  /// separates primitives that scale near-linearly (packed GEMMs) from
  /// those that plateau, so (primitive, threads) pairs rank realistically.
  double SerialFraction = 0.05;
};

ModelTerms modelPrimitive(const ConvPrimitive &P, const ConvScenario &S,
                          const MachineProfile &Prof) {
  const std::string Name = P.name();
  const unsigned VW = Prof.VectorWidth;
  const double Ho = static_cast<double>(S.outHeight());
  const double Wo = static_cast<double>(S.outWidth());
  const double Macs = S.macs();
  // Scalar code is insensitive to vector width, so its *fraction* of the
  // vector peak rises as the vectors narrow.
  const double ScalarAdjust = 8.0 / VW;

  ModelTerms T;
  const double InBytes = static_cast<double>(S.C) * S.H * S.W * 4;
  const double OutBytes = static_cast<double>(S.M) * Ho * Wo * 4;
  const double WeightBytes =
      static_cast<double>(S.M) * S.kernelChannels() * S.K * S.K * 4;
  const double WsBytes = static_cast<double>(P.workspaceBytes(S));
  T.TrafficBytes = InBytes + OutBytes + WeightBytes + 2.0 * WsBytes;

  switch (P.family()) {
  case ConvFamily::Sum2D:
    T.Flops = 2.0 * Macs;
    T.Efficiency = 0.030 * ScalarAdjust;
    T.SerialFraction = 0.02; // filter-parallel loop, no merge phase
    break;

  case ConvFamily::Direct: {
    T.Flops = 2.0 * Macs;
    double Eff = 0.10;
    if (nameHas(Name, "direct-mckk"))
      Eff = 0.10;
    else if (nameHas(Name, "direct-cmkk"))
      Eff = 0.085;
    else if (nameHas(Name, "direct-mhck"))
      Eff = 0.11;
    else if (nameHas(Name, "direct-t16"))
      Eff = 0.12;
    else if (nameHas(Name, "direct-pix"))
      Eff = 0.13 * vecUtil(S.C, VW);
    else if (nameHas(Name, "direct-pt4"))
      Eff = 0.14 * vecUtil(S.C, VW);
    else if (nameHas(Name, "direct-ovec"))
      Eff = 0.12 * vecUtil(S.M, VW);
    else if (nameHas(Name, "direct-rows"))
      Eff = 0.09;
    T.Efficiency = std::max(Eff, 0.02);
    T.SerialFraction = 0.02; // slab-parallel loops, no merge phase
    break;
  }

  case ConvFamily::Im2: {
    T.Flops = 2.0 * Macs;
    double GemmEff = nameHas(Name, "-n-") ? 0.045 * ScalarAdjust
                     : nameHas(Name, "-bt-") ? 0.30
                                             : 0.35;
    // The K dimension of the GEMM is C*K*K; short reductions hurt.
    GemmEff *= std::sqrt(vecUtil(S.C * S.K * S.K, 4 * VW));
    T.Efficiency = std::max(GemmEff, 0.02);
    T.SerialFraction = 0.03; // patch build and macro-kernel both partition
    break;
  }

  case ConvFamily::Kn2: {
    // K*K GEMMs over all H*W pixels (not just Ho*Wo) plus the shift-add.
    T.Flops = 2.0 * static_cast<double>(S.M) * S.C * S.H * S.W * S.K * S.K;
    double GemmEff = nameHas(Name, "-bt-") ? 0.28 : 0.33;
    // kn2's GEMM reduction dimension is C alone: "Bad case: few channels"
    // (Table 1).
    GemmEff *= std::sqrt(vecUtil(S.C, 4 * VW));
    T.Efficiency = std::max(GemmEff, 0.02);
    T.TrafficBytes +=
        static_cast<double>(S.K) * S.K * S.M * S.H * S.W * 4 * 2;
    T.SerialFraction = 0.25; // the shift-add accumulation runs serial
    break;
  }

  case ConvFamily::Winograd: {
    int64_t Tm = 0, Tr = 0;
    parseWinoTile(Name, Tm, Tr);
    const int64_t N = Tm + Tr - 1;
    const bool TwoD = nameHas(Name, "wino2d");
    const bool VF8 = nameHas(Name, "-vf8-");
    double PwEff = VF8 ? (VW == 8 ? 0.42 : 0.26) : (VW == 8 ? 0.34 : 0.36);
    double TrEff = 0.12;
    double PwFlops, TrFlops;
    if (TwoD) {
      double Tiles = std::ceil(Ho / Tm) * std::ceil(Wo / Tm);
      PwFlops = 2.0 * N * N * S.M * S.C * Tiles;
      TrFlops = Tiles * (4.0 * N * N * N * S.C +
                         2.0 * S.M * (Tm * N * N + Tm * Tm * N));
    } else {
      double Tw = std::ceil(Wo / Tm);
      PwFlops = 2.0 * N * S.M * S.C * Tw * Tr * Ho;
      TrFlops = Ho * (Tr * 2.0 * N * N * S.C * Tw + 2.0 * Tm * N * S.M * Tw);
    }
    // Blend the two phases into one effective rate.
    T.Flops = PwFlops + TrFlops;
    T.Efficiency =
        T.Flops / (PwFlops / PwEff + TrFlops / TrEff);
    // Winograd streams the transformed weights too.
    T.TrafficBytes += static_cast<double>(S.M) * S.C * N * (TwoD ? N : Tr) * 4;
    T.SerialFraction = 0.06; // three fork/join stages between phases
    break;
  }

  case ConvFamily::FFT: {
    const double Wp = static_cast<double>(S.paddedWidth());
    const double Hp = static_cast<double>(S.paddedHeight());
    double F = 1;
    while (F < Wp + S.K - 1)
      F *= 2;
    double Forward = S.C * Hp * fftOps(F);
    double KernelFFT =
        nameHas(Name, "-kc-") ? 0.0
                              : static_cast<double>(S.M) * S.C * S.K *
                                    fftOps(F);
    double Pointwise = static_cast<double>(S.M) * S.C * S.K * Ho * F * 8.0;
    double Inverse = static_cast<double>(S.M) * Ho * fftOps(F);
    T.Flops = Forward + KernelFFT + Pointwise + Inverse;
    T.Efficiency = 0.10;
    if (nameHas(Name, "-kc-"))
      T.TrafficBytes += static_cast<double>(S.M) * S.C * S.K * F * 8;
    T.SerialFraction = 0.15; // spectral accumulate partially serial
    break;
  }

  case ConvFamily::Sparse: {
    // Work scales with the non-zero fraction; the indexed access pattern
    // costs efficiency relative to a dense GEMM.
    T.Flops = 2.0 * Macs * std::max(0.02, S.density());
    T.Efficiency = nameHas(Name, "im2col") ? 0.22 : 0.16;
    T.SerialFraction = 0.10; // irregular rows partition unevenly
    break;
  }

  case ConvFamily::Depthwise: {
    // K^2-tap reductions per output element: very low arithmetic intensity,
    // so these routines live near the bandwidth roof (macs() already
    // reflects the single-channel filters). Efficiency mirrors the direct
    // family's spread: the reference loop is scalar, the CHW row kernel
    // streams rows, the HWC pixel kernel vectorizes across channels, and
    // the im2-style patch walk pays its gather.
    T.Flops = 2.0 * Macs;
    double Eff = 0.10;
    if (nameHas(Name, "dw-ref"))
      Eff = 0.030 * ScalarAdjust;
    else if (nameHas(Name, "dw-rows"))
      Eff = 0.12;
    else if (nameHas(Name, "dw-pix"))
      Eff = 0.15 * vecUtil(S.C, VW);
    else if (nameHas(Name, "dw-im2"))
      Eff = 0.08;
    T.Efficiency = std::max(Eff, 0.02);
    T.SerialFraction = 0.04; // channel-parallel taps
    break;
  }

  case ConvFamily::Quantized: {
    // 16-bit arithmetic doubles the useful SIMD lanes, which matters most
    // on narrow-vector machines: on NEON-class cores (VW = 4) the int16
    // path clears the f32 GEMM's efficiency, on AVX2 (VW = 8) the
    // quantize/dequantize overhead leaves it behind. Efficiency is stated
    // relative to the f32 peak, hence values above the GEMM's 0.35 encode
    // the doubled lane count.
    T.Flops = 2.0 * Macs;
    T.Efficiency = VW <= 4 ? 0.48 : 0.24;
    // Quantization reads and rewrites the input; dequantization streams
    // the output once more.
    T.TrafficBytes += InBytes + OutBytes;
    T.SerialFraction = 0.12; // quantize/dequantize passes stay serial
    break;
  }
  }

  // Layout-crossing variants pay the conversion's traffic. Direct and
  // depthwise loops read any layout through strides, so only their output
  // conversions count.
  if (P.inputLayout() != Layout::CHW && P.family() != ConvFamily::Direct &&
      P.family() != ConvFamily::Depthwise)
    T.TrafficBytes += InBytes;
  if (P.inputLayout() != P.outputLayout())
    T.TrafficBytes += OutBytes;
  return T;
}

} // namespace

double primsel::analyticConvCost(const ConvPrimitive &P,
                                 const ConvScenario &S,
                                 const MachineProfile &Prof,
                                 unsigned Threads) {
  // The routine itself is priced on the bare scenario: a fused epilogue
  // does not change the convolution's work, and keeping the base terms
  // (jitter included) identical guarantees the epilogue surcharge below is
  // a per-scenario constant -- so O0 and O1 select the same routine for
  // the same conv, which is what makes their executions bit-identical.
  const ConvScenario Base = S.withoutEpilogue();
  ModelTerms T = modelPrimitive(P, Base, Prof);
  unsigned Teff = std::max(1u, std::min(Threads, Prof.Cores));

  // Amdahl: only the parallel share of the compute divides by the worker
  // count; the serial share is paid in full at any thread count.
  double ComputeSec1 = T.Flops / (T.Efficiency * Prof.PeakGFlopsPerCore * 1e9);
  double ComputeSec =
      ComputeSec1 * (T.SerialFraction + (1.0 - T.SerialFraction) / Teff);
  // Bandwidth is shared; parallelism helps it only a little.
  double MemSec =
      T.TrafficBytes / (Prof.MemBandwidthGBs * 1e9 *
                        (Teff > 1 ? 1.5 : 1.0));
  double Sec = std::max(ComputeSec, MemSec) + 0.35 * std::min(ComputeSec, MemSec);

  // Cache-pressure penalty: working sets beyond the LLC thrash it. This is
  // the term that makes 2D Winograd lose to 1D on the small-cache ARM
  // profile (paper Figure 4 discussion).
  double Ws = static_cast<double>(P.workspaceBytes(S));
  double LLC = static_cast<double>(Prof.LastLevelCacheBytes);
  if (Ws > LLC)
    Sec *= 1.0 + 0.35 * std::log2(Ws / LLC);

  if (Teff > 1)
    Sec += 20e-6; // fork/join overhead

  double Ms = Sec * 1e3 * deterministicJitter(P.name(), Base);

  // Fused-epilogue surcharge. The standalone Bias/ReLU layer this fusion
  // replaced would have streamed the output tensor through memory twice
  // more (load + store at bandwidth); the fused application touches data
  // the conv already holds in cache, so only the elementwise ops are
  // charged, at a conservative fraction of scalar peak -- that gap is the
  // credit fusion earns. Note the paper's formulation prices standalone
  // dummy layers at zero (§5.2), so O0 plan totals under-count their real
  // traffic and a fused plan's modelled total can read slightly *higher*
  // than its O0 twin even though the hardware does strictly less work;
  // modelled costs are comparable within one pipeline, not across
  // pipelines (see DESIGN.md). Identical for every primitive (see above).
  if (S.Epi != EpilogueKind::None) {
    double OutElems = static_cast<double>(S.M) * S.outHeight() *
                      S.outWidth() * S.Batch;
    double Ops = (epilogueHasBias(S.Epi) ? 1.0 : 0.0) +
                 (epilogueHasRelu(S.Epi) ? 1.0 : 0.0);
    Ms += Ops * OutElems / (0.25 * Prof.PeakGFlopsPerCore * 1e9) * 1e3;
  }
  return Ms;
}

double primsel::analyticConvPrepareCost(const ConvPrimitive &P,
                                        const ConvScenario &S,
                                        const MachineProfile &Prof) {
  const std::string Name = P.name();
  const ConvScenario Base = S.withoutEpilogue();
  const double WeightBytes =
      static_cast<double>(Base.M) * Base.kernelChannels() * Base.K * Base.K *
      4;
  double Flops = 0.0;  ///< transform compute (charged at the 0.12
                       ///< transform-stage efficiency)
  double Bytes = 0.0;  ///< packing traffic (read + write, strided)

  switch (P.family()) {
  case ConvFamily::Sum2D:
  case ConvFamily::Direct:
  case ConvFamily::Depthwise:
    // Weights are consumed in (close to) their storage order; the packed
    // copy is noise next to any run. Declaring it zero keeps the direct
    // families the fixed point of serving-mode amortization.
    return 0.0;

  case ConvFamily::Im2:
  case ConvFamily::Kn2:
    // Kernel-matrix flattening: a strided re-order of every weight.
    Bytes = 2.0 * 1.8 * WeightBytes;
    break;

  case ConvFamily::Winograd: {
    int64_t Tm = 0, Tr = 0;
    parseWinoTile(Name, Tm, Tr);
    const double N = static_cast<double>(Tm + Tr - 1);
    const bool TwoD = nameHas(Name, "wino2d");
    // U = G g G^T per (filter, channel) for 2D tiles; one G g_row product
    // per kernel row for the 1D schedule.
    double PerFC = TwoD ? 2.0 * (N * Tr * Tr + N * N * Tr)
                        : 2.0 * Tr * N * Tr;
    Flops = static_cast<double>(Base.M) * Base.C * PerFC;
    Bytes = static_cast<double>(Base.M) * Base.C * N * (TwoD ? N : Tr) * 4 *
            2.0;
    break;
  }

  case ConvFamily::FFT: {
    double F = 1;
    while (F < static_cast<double>(Base.paddedWidth()) + Base.K - 1)
      F *= 2;
    if (nameHas(Name, "-kc-")) {
      // Kernel-row spectra computed once and cached.
      Flops = static_cast<double>(Base.M) * Base.C * Base.K * fftOps(F);
      Bytes = static_cast<double>(Base.M) * Base.C * Base.K * F * 8;
    } else {
      // Streaming variant recomputes spectra per run; prepare only copies
      // the raw taps.
      Bytes = 2.0 * WeightBytes;
    }
    break;
  }

  case ConvFamily::Sparse:
    // Scan every weight and build the CSR triple.
    Bytes = 4.0 * WeightBytes;
    break;

  case ConvFamily::Quantized:
    // Max-abs scan plus the quantizing re-write (int16 halves the output).
    Bytes = 2.5 * WeightBytes;
    break;
  }

  double Sec = Flops / (0.12 * Prof.PeakGFlopsPerCore * 1e9) +
               Bytes / (Prof.MemBandwidthGBs * 1e9);
  return Sec * 1e3;
}

double primsel::analyticTransformCost(Layout From, Layout To,
                                      const TensorShape &Shape,
                                      const MachineProfile &Prof,
                                      unsigned Threads) {
  (void)Threads; // transposition is bandwidth-bound; threads do not help
  double Bytes = static_cast<double>(Shape.elements()) * 4;
  // Read + write, with a strided-access penalty; transforms whose innermost
  // dimension survives (e.g. CHW -> HCW keeps W innermost) stream better.
  std::array<Dim, 3> FromOrder = layoutOrder(From);
  std::array<Dim, 3> ToOrder = layoutOrder(To);
  double StridePenalty = FromOrder[2] == ToOrder[2] ? 1.15 : 1.8;
  double Sec = 2.0 * Bytes * StridePenalty / (Prof.MemBandwidthGBs * 1e9);
  return Sec * 1e3 + 2e-3;
}

AnalyticCostProvider::AnalyticCostProvider(const PrimitiveLibrary &Lib,
                                           const MachineProfile &Profile,
                                           unsigned Threads)
    : Lib(Lib), Profile(Profile), Threads(Threads) {}

CostBreakdown AnalyticCostProvider::cost(const CostQuery &Q) {
  // The run-phase model prices the run only (e.g. the fft "-kc-" variant's
  // run term assumes its spectra are already cached, and the Winograd run
  // terms cover the input/output transforms, not U = G g G^T); keeping the
  // two phases disjoint is what makes the breakdown an exact split.
  const ConvPrimitive &P = Lib.get(Q.Id);
  return {analyticConvCost(P, Q.S, Profile, Q.Threads ? Q.Threads : Threads),
          analyticConvPrepareCost(P, Q.S, Profile)};
}

double AnalyticCostProvider::transformCost(Layout From, Layout To,
                                           const TensorShape &Shape) {
  return analyticTransformCost(From, To, Shape, Profile, Threads);
}

std::string AnalyticCostProvider::identity() const {
  return "analytic:" + Profile.Name + ":t" + std::to_string(Threads);
}
