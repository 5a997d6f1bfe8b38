//===- bench/micro_primitives.cpp - primitive microbenchmarks -------------===//
//
// google-benchmark microbenchmarks of representative primitives from each
// family on two characteristic scenarios: a VGG-style 3x3 layer and an
// AlexNet-conv1-style strided 11x11 layer. These are the per-layer numbers
// the profiler feeds into the PBQP formulation.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"
#include "tensor/Transform.h"

#include <benchmark/benchmark.h>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  // Everything at once: the paper's families plus the hwcnn vendor
  // library and the q16 fixed-point extension.
  static PrimitiveLibrary L = [] {
    PrimitiveLibrary Lib = buildEnsembleLibrary();
    registerQuantizedFamily(Lib);
    return Lib;
  }();
  return L;
}

const ConvScenario Vgg3x3{32, 28, 28, 1, 3, 32, 1};
const ConvScenario Alex11x11{3, 56, 56, 4, 11, 16, 0};

void runPrimitive(benchmark::State &State, const char *Name,
                  const ConvScenario &S) {
  const PrimitiveLibrary &Lib = lib();
  auto Id = Lib.findByName(Name);
  if (!Id || !Lib.get(*Id).supports(S)) {
    State.SkipWithError("primitive unavailable for scenario");
    return;
  }
  const ConvPrimitive &P = Lib.get(*Id);
  Tensor3D In(S.C, S.H, S.W, P.inputLayout());
  In.fillRandom(1);
  Kernel4D W(S.M, S.C, S.K);
  W.fillRandom(2);
  Tensor3D Out(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  auto Inst = P.instantiate(S, W);
  RunContext Ctx{nullptr};
  for (auto _ : State) {
    Inst->run(In, Out, Ctx);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(S.macs()));
}

void registerScenario(const char *Tag, const ConvScenario &S,
                      std::initializer_list<const char *> Names) {
  for (const char *Name : Names) {
    std::string Label = std::string(Tag) + "/" + Name;
    benchmark::RegisterBenchmark(
        Label.c_str(),
        [Name, &S](benchmark::State &St) { runPrimitive(St, Name, S); });
  }
}

void benchTransform(benchmark::State &State) {
  Tensor3D Src(64, 56, 56, Layout::CHW);
  Src.fillRandom(7);
  Tensor3D Dst(64, 56, 56, Layout::HWC);
  for (auto _ : State) {
    runTransform(Src, Dst);
    benchmark::DoNotOptimize(Dst.data());
  }
}

} // namespace

int main(int argc, char **argv) {
  registerScenario("vgg3x3", Vgg3x3,
                   {"sum2d", "direct-t16-chw-chw", "im2col-b-chw-chw",
                    "im2row-b-hwc-hwc", "kn2row-as-b-chw-chw",
                    "wino2d-m4r3-vf8-chw-chw", "wino1d-m4r3-vf8-chw-chw",
                    "fft1d-kc-chw-chw", "q16-direct-chw-chw",
                    "q16-im2row-hwc-hwc", "hwcnn-im2row-hwc-hwc",
                    "hwcnn-direct-hwc-hwc"});
  registerScenario("alex11x11", Alex11x11,
                   {"sum2d", "direct-t16-chw-chw", "im2col-b-chw-chw",
                    "im2row-b-hwc-hwc", "hwcnn-im2row-hwc-hwc",
                    "q16-im2row-hwc-hwc"});
  // The 1x1 GEMM mapping that motivates the hwcnn library in the
  // inception-heavy nets.
  static const ConvScenario Pointwise{64, 28, 28, 1, 1, 32, 0};
  registerScenario("pointwise1x1", Pointwise,
                   {"im2col-b-chw-chw", "hwcnn-pointwise-hwc-hwc"});
  benchmark::RegisterBenchmark("transform/chw2hwc_64x56x56", benchTransform);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
