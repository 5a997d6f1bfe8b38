//===- primitives/Primitive.cpp -------------------------------------------===//

#include "primitives/Primitive.h"

#include "support/Random.h"

#include <cassert>
#include <vector>

using namespace primsel;

// Out-of-line virtual anchors.
ConvInstance::~ConvInstance() = default;
ConvPrimitive::~ConvPrimitive() = default;
PreparedKernel::~PreparedKernel() = default;

std::unique_ptr<ConvInstance>
ConvPrimitive::instantiate(const ConvScenario &S,
                           const Kernel4D &Weights) const {
  return bind(S, prepare(S, Weights));
}

const char *ConvPrimitive::libraryTag() const { return "primsel"; }

bool ConvPrimitive::supportsBatch(int64_t Batch) const { return Batch == 1; }

bool ConvPrimitive::isDepthwise() const { return false; }

void ConvInstance::runBatch(const std::vector<Tensor3D> &In,
                            std::vector<Tensor3D> &Out,
                            const RunContext &Ctx) {
  assert(In.size() == Out.size() && "batch size mismatch");
  for (size_t I = 0; I < In.size(); ++I)
    run(In[I], Out[I], Ctx);
}

void primsel::applyEpilogue(EpilogueKind E, const float *Bias, Tensor3D &T) {
  if (epilogueHasBias(E)) {
    assert(Bias && "bias epilogue without a bias vector");
    // Logical loops: b[c] is added per channel whatever the layout, and
    // x + b is iteration-order independent, so the result is bit-identical
    // to a standalone Bias layer in any assigned layout.
    for (int64_t C = 0; C < T.channels(); ++C)
      for (int64_t H = 0; H < T.height(); ++H)
        for (int64_t W = 0; W < T.width(); ++W)
          T.at(C, H, W) += Bias[C];
  }
  if (epilogueHasRelu(E)) {
    float *Data = T.data();
    for (int64_t I = 0, N = T.size(); I < N; ++I)
      Data[I] = Data[I] > 0.0f ? Data[I] : 0.0f;
  }
}

void primsel::fillEpilogueBias(float *Bias, int64_t Channels, uint64_t Seed) {
  fillRandom(Bias, static_cast<size_t>(Channels), Seed);
  for (int64_t C = 0; C < Channels; ++C)
    Bias[C] *= 0.1f;
}

namespace {

/// Decorates any family's instance with the shared epilogue applier.
class EpilogueInstance : public ConvInstance {
public:
  EpilogueInstance(std::unique_ptr<ConvInstance> Inner, EpilogueKind E,
                   std::vector<float> Bias)
      : Inner(std::move(Inner)), E(E), Bias(std::move(Bias)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    Inner->run(In, Out, Ctx);
    applyEpilogue(E, Bias.empty() ? nullptr : Bias.data(), Out);
  }

  void runBatch(const std::vector<Tensor3D> &In, std::vector<Tensor3D> &Out,
                const RunContext &Ctx) override {
    Inner->runBatch(In, Out, Ctx);
    for (Tensor3D &T : Out)
      applyEpilogue(E, Bias.empty() ? nullptr : Bias.data(), T);
  }

private:
  std::unique_ptr<ConvInstance> Inner;
  EpilogueKind E;
  std::vector<float> Bias;
};

} // namespace

std::shared_ptr<const PreparedKernel>
primsel::prepareWithEpilogue(const ConvPrimitive &P, const ConvScenario &S,
                             const Kernel4D &Weights) {
  return P.prepare(S, Weights);
}

std::unique_ptr<ConvInstance>
primsel::bindWithEpilogue(const ConvPrimitive &P, const ConvScenario &S,
                          std::shared_ptr<const PreparedKernel> Prepared,
                          uint64_t BiasSeed) {
  std::unique_ptr<ConvInstance> Inner = P.bind(S, std::move(Prepared));
  if (S.Epi == EpilogueKind::None)
    return Inner;
  std::vector<float> Bias;
  if (epilogueHasBias(S.Epi)) {
    Bias.resize(static_cast<size_t>(S.M));
    fillEpilogueBias(Bias.data(), S.M, BiasSeed);
  }
  return std::make_unique<EpilogueInstance>(std::move(Inner), S.Epi,
                                            std::move(Bias));
}

const char *primsel::convFamilyName(ConvFamily F) {
  switch (F) {
  case ConvFamily::Sum2D:
    return "sum2d";
  case ConvFamily::Direct:
    return "direct";
  case ConvFamily::Im2:
    return "im2";
  case ConvFamily::Kn2:
    return "kn2";
  case ConvFamily::Winograd:
    return "winograd";
  case ConvFamily::FFT:
    return "fft";
  case ConvFamily::Sparse:
    return "sparse";
  case ConvFamily::Quantized:
    return "q16";
  case ConvFamily::Depthwise:
    return "depthwise";
  }
  assert(false && "unknown convolution family");
  return "?";
}
