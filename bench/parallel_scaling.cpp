//===- bench/parallel_scaling.cpp - Intra-op thread scaling ---------------===//
//
// Self-verifying acceptance bench for the packed macro-kernel worker
// partitioning: large paper-scale convolutions (ResNet-18 / GoogLeNet
// stage shapes) run through a packed-GEMM primitive at 1, 2, and 4
// workers, and a compiled ResNet-18 whose plan carries the PBQP thread
// annotations is served from 1-thread and 4-thread contexts.
//
// Two claims are checked; the process exits nonzero if either fails:
//   1. outputs are bit-identical across every worker count, on every
//      conv and on the whole compiled model (the partitioner redistributes
//      whole micro-tiles, never the order of any per-element accumulation);
//   2. when the host actually has >= 4 hardware threads, the geometric-
//      mean speedup of the large convs at 4 workers vs 1 is >= 2.5x.
//      On narrower hosts (CI containers are often 1-core) the scaling
//      assertion is reported as SKIP and timings are recorded anyway.
//
// Results are emitted as machine-readable BENCH_parallel_scaling.json
// (path overridable via PRIMSEL_BENCH_JSON) so CI can track the scaling
// trajectory. PRIMSEL_ITERS and PRIMSEL_SCALE are honoured as in the rest
// of the bench suite (the conv shapes themselves are fixed paper-scale;
// Scale applies to the whole-model section).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/CompiledNet.h"
#include "engine/Engine.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "tensor/Transform.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace primsel;
using namespace primsel::bench;

namespace {

struct ConvCase {
  const char *Name;
  int64_t C, H, W, K, Pad, M;
};

struct ConvRow {
  std::string Name;
  double GFlop = 0.0;
  double Ms[3] = {0.0, 0.0, 0.0}; ///< at 1, 2, 4 workers
  bool BitIdentical = true;

  double speedupAt(unsigned Slot) const {
    return Ms[Slot] > 0.0 ? Ms[0] / Ms[Slot] : 0.0;
  }
};

/// Time \p Inst for \p Iters runs at \p Workers, returning mean ms and the
/// output bytes of the last run.
double timeConvRuns(ConvInstance &Inst, const Tensor3D &In, Tensor3D &Out,
                    unsigned Workers, unsigned Iters,
                    std::vector<float> &OutBits) {
  std::unique_ptr<ThreadPool> Pool;
  if (Workers > 1)
    Pool = std::make_unique<ThreadPool>(Workers);
  RunContext Ctx{Pool.get()};
  Ctx.MaxThreads = static_cast<int>(Workers);
  Inst.run(In, Out, Ctx); // warm-up
  Timer T;
  for (unsigned I = 0; I < Iters; ++I)
    Inst.run(In, Out, Ctx);
  double Ms = T.millis() / Iters;
  OutBits.assign(Out.data(), Out.data() + Out.size());
  return Ms;
}

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();
  const unsigned HwThreads = std::max(1u, std::thread::hardware_concurrency());
  const unsigned Workers[3] = {1, 2, 4};

  std::printf("# parallel scaling bench: %u hardware threads, %u timed "
              "iterations per point\n",
              HwThreads, Config.Iters);

  // --- Large conv scaling through the packed-GEMM primitive. ---
  const ConvCase Cases[] = {
      {"resnet18-conv2", 64, 56, 56, 3, 1, 64},
      {"resnet18-conv3", 128, 28, 28, 3, 1, 128},
      {"googlenet-conv2", 64, 56, 56, 3, 1, 192},
  };

  std::optional<PrimitiveId> GemmPrim = Lib.findByName("im2col-b-chw-chw");
  if (!GemmPrim) {
    std::fprintf(stderr, "FAIL: packed-GEMM primitive not registered\n");
    return 1;
  }
  const ConvPrimitive &P = Lib.get(*GemmPrim);

  std::vector<ConvRow> Rows;
  bool AllIdentical = true;
  for (const ConvCase &CC : Cases) {
    ConvScenario S;
    S.C = CC.C;
    S.H = CC.H;
    S.W = CC.W;
    S.K = CC.K;
    S.Pad = CC.Pad;
    S.Stride = 1;
    S.M = CC.M;

    Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
    InCHW.fillRandom(31);
    Tensor3D In = convertToLayout(InCHW, P.inputLayout());
    Kernel4D W(S.M, S.kernelChannels(), S.K);
    W.fillRandom(32);
    std::unique_ptr<ConvInstance> Inst = P.instantiate(S, W);
    Tensor3D Out(S.M, S.outHeight(), S.outWidth(), P.outputLayout());

    ConvRow Row;
    Row.Name = CC.Name;
    Row.GFlop = 2.0 * static_cast<double>(S.M * S.C * S.K * S.K) *
                static_cast<double>(S.outHeight() * S.outWidth()) / 1e9;
    std::vector<float> Bits1, Bits;
    for (unsigned Slot = 0; Slot < 3; ++Slot) {
      Row.Ms[Slot] = timeConvRuns(*Inst, In, Out, Workers[Slot],
                                  Config.Iters, Slot == 0 ? Bits1 : Bits);
      if (Slot > 0)
        Row.BitIdentical &= Bits == Bits1;
    }
    AllIdentical &= Row.BitIdentical;

    std::printf("%-16s %6.3f GFLOP  1w %8.2f ms  2w %8.2f ms (%.2fx)  "
                "4w %8.2f ms (%.2fx)  outputs %s\n",
                Row.Name.c_str(), Row.GFlop, Row.Ms[0], Row.Ms[1],
                Row.speedupAt(1), Row.Ms[2], Row.speedupAt(2),
                Row.BitIdentical ? "identical" : "DIFFER");
    Rows.push_back(Row);
  }

  double GeoMean4 = 1.0;
  for (const ConvRow &Row : Rows)
    GeoMean4 *= Row.speedupAt(2);
  GeoMean4 = std::pow(GeoMean4, 1.0 / static_cast<double>(Rows.size()));

  // --- Whole-model: compiled ResNet-18 with PBQP thread annotations. ---
  NetworkGraph Net = resNet18(Config.Scale);
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  EOpts.ExecThreadCandidates = {1, 2, 4};
  Engine Eng(Lib, Prov, EOpts);
  SelectionResult R = Eng.optimize(Net);
  double ModelMs1 = 0.0, ModelMs4 = 0.0;
  bool ModelIdentical = true;
  unsigned AnnotatedConvs = 0;
  if (R.Plan.empty()) {
    std::fprintf(stderr, "FAIL: selection failed on resnet18\n");
    return 1;
  }
  const NetworkGraph &ExecNet = R.executionGraph(Net);
  for (NetworkGraph::NodeId N : ExecNet.convNodes())
    AnnotatedConvs += R.Plan.convThreads(N) > 1;
  std::shared_ptr<const CompiledNet> CN = Eng.compile(Net, R);
  if (!CN) {
    std::fprintf(stderr, "FAIL: compile failed on resnet18\n");
    return 1;
  }
  const TensorShape &Sh = ExecNet.node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(19);

  std::vector<float> ModelBits1;
  for (unsigned Slot : {0u, 1u}) {
    ExecutionContextOptions CtxOpts;
    CtxOpts.UseArena = true;
    CtxOpts.Threads = Slot == 0 ? 1 : 4;
    std::unique_ptr<ExecutionContext> Ctx = CN->newContext(CtxOpts);
    Ctx->run(Input); // warm-up
    Timer T;
    for (unsigned I = 0; I < Config.Iters; ++I)
      Ctx->run(Input);
    double Ms = T.millis() / Config.Iters;
    const Tensor3D &O = Ctx->networkOutput();
    if (Slot == 0) {
      ModelMs1 = Ms;
      ModelBits1.assign(O.data(), O.data() + O.size());
    } else {
      ModelMs4 = Ms;
      ModelIdentical =
          std::equal(ModelBits1.begin(), ModelBits1.end(), O.data());
    }
  }
  AllIdentical &= ModelIdentical;
  std::printf("resnet18 (scale %.2f): %u thread-annotated convs, "
              "1-thread ctx %8.2f ms/req, 4-thread ctx %8.2f ms/req "
              "(%.2fx), outputs %s\n",
              Config.Scale, AnnotatedConvs, ModelMs1, ModelMs4,
              ModelMs4 > 0.0 ? ModelMs1 / ModelMs4 : 0.0,
              ModelIdentical ? "identical" : "DIFFER");

  // --- Machine-readable trajectory record. ---
  std::vector<JsonObject> ConvJson;
  for (const ConvRow &Row : Rows)
    ConvJson.push_back(JsonObject()
                           .set("conv", Row.Name)
                           .set("gflop", Row.GFlop)
                           .set("ms_1w", Row.Ms[0])
                           .set("ms_2w", Row.Ms[1])
                           .set("ms_4w", Row.Ms[2])
                           .set("speedup_2w", Row.speedupAt(1))
                           .set("speedup_4w", Row.speedupAt(2))
                           .set("bit_identical", Row.BitIdentical));
  writeBenchJson(
      JsonObject()
          .set("bench", "parallel_scaling")
          .set("hw_threads", HwThreads)
          .set("iters", Config.Iters)
          .set("scaling_asserted", HwThreads >= 4)
          .set("convs", ConvJson)
          .set("geomean_speedup_4w", GeoMean4)
          .set("model",
               JsonObject()
                   .set("model", "resnet18")
                   .set("scale", Config.Scale)
                   .set("annotated_convs", AnnotatedConvs)
                   .set("ms_1t", ModelMs1)
                   .set("ms_4t", ModelMs4)
                   .set("speedup", ModelMs4 > 0.0 ? ModelMs1 / ModelMs4 : 0.0)
                   .set("bit_identical", ModelIdentical)),
      "BENCH_parallel_scaling.json");

  std::printf("%s outputs bit-identical across every worker count\n",
              AllIdentical ? "PASS" : "FAIL");
  bool ScalingOk = true;
  if (HwThreads >= 4) {
    ScalingOk = GeoMean4 >= 2.5;
    std::printf("%s geomean conv speedup at 4 workers %.2fx (>= 2.5x "
                "required)\n",
                ScalingOk ? "PASS" : "FAIL", GeoMean4);
  } else {
    std::printf("SKIP scaling assertion: host has %u hardware threads "
                "(>= 4 required); geomean at 4 workers measured %.2fx\n",
                HwThreads, GeoMean4);
  }
  return AllIdentical && ScalingOk ? 0 : 1;
}
