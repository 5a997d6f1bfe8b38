//===- bench/e2e/Probe.cpp - Layer probe of traced runs -------------------===//
//
// Part of primsel. See bench/e2e/README.md.
//
// Runs after a workload's serving phase, on the workload's own artifacts,
// and only in traced runs: the untraced end-to-end numbers never include
// it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "engine/BatchContext.h"
#include "primitives/Primitive.h"

#include <algorithm>

using namespace primsel;

namespace e2e {

namespace {

/// Timed passes per probed context or primitive, after one warm-up.
constexpr unsigned ProbeReps = 3;

const char *familyShare(ConvFamily F) {
  switch (F) {
  case ConvFamily::Sum2D:
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
  case ConvFamily::Depthwise:
    return "depthwise";
  case ConvFamily::Sparse:
  case ConvFamily::Quantized:
    return "other";
  }
  return "other";
}

/// Median single-threaded run time of primitive \p P alone on scenario
/// \p S: prepare, bind, one warm-up run, then ProbeReps timed runs.
double timePrimitive(const ConvPrimitive &P, const ConvScenario &S,
                     uint64_t Seed) {
  Kernel4D Weights(S.M, S.kernelChannels(), S.K);
  Weights.fillRandom(Seed);
  std::unique_ptr<ConvInstance> Inst = P.bind(S, P.prepare(S, Weights));
  Tensor3D In(S.C, S.H, S.W, P.inputLayout());
  In.fillRandom(Seed + 1);
  Tensor3D Out(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
  RunContext RC;
  Inst->run(In, Out, RC);
  std::vector<double> Ms;
  for (unsigned I = 0; I < ProbeReps; ++I) {
    double T0 = nowUs();
    Inst->run(In, Out, RC);
    Ms.push_back((nowUs() - T0) / 1000.0);
  }
  return median(Ms);
}

} // namespace

void LayerProbe::probeArtifact(const std::string &Model,
                               const std::shared_ptr<const CompiledNet> &CN,
                               CostProvider &Costs,
                               const std::vector<Tensor3D> &Inputs,
                               const ReferenceTable &Ref, Outcome &Out,
                               Tracer &T) {
  // Whole-network passes on one context configured like a serving slot.
  ExecutionContextOptions CtxOpts;
  CtxOpts.UseArena = true;
  std::unique_ptr<ExecutionContext> Ctx = CN->newContext(CtxOpts);
  std::vector<double> Fwd, Conv, Xform, Other;
  for (unsigned I = 0; I <= ProbeReps; ++I) {
    unsigned In = I % static_cast<unsigned>(Inputs.size());
    double T0 = nowUs();
    RunResult R = Ctx->run(Inputs[In]);
    double T1 = nowUs();
    Out.check(Model, In, Ctx->networkOutput(), Ref);
    T.span("context.run " + Model, "probe", T0, T1,
           Args()
               .add("conv_ms", R.ConvMillis)
               .add("transform_ms", R.TransformMillis)
               .add("other_ms", R.OtherMillis));
    if (I == 0)
      continue; // warm-up
    Fwd.push_back((T1 - T0) / 1000.0);
    Conv.push_back(R.ConvMillis);
    Xform.push_back(R.TransformMillis);
    Other.push_back(R.OtherMillis);
  }
  ForwardByModel[Model] = median(Fwd);
  ForwardMs += median(Fwd);
  ConvMs += median(Conv);
  TransformMs += median(Xform);
  OtherMs += median(Other);

  // Each selected conv primitive alone, beside its modelled cost and the
  // modelled runner-up's measured time.
  const NetworkGraph &Net = CN->graph();
  const PrimitiveLibrary &Lib = CN->library();
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    const ConvScenario &S = Net.node(N).Scenario;
    PrimitiveId Chosen = CN->plan().ConvPrim[N];
    const ConvPrimitive &P = Lib.get(Chosen);
    double T0 = nowUs();
    double Ms = timePrimitive(P, S, 1000 + N);
    double Modelled = Costs.convServingCost(S, Chosen);
    T.span("primitive.run " + Net.node(N).L.Name, "probe", T0, nowUs(),
           Args()
               .add("model", Model)
               .add("primitive", P.name())
               .add("family", convFamilyName(P.family()))
               .add("measured_ms", Ms)
               .add("modelled_ms", Modelled));
    PrimitiveMs += Ms;
    PrimitiveFlops += 2.0 * S.macs();
    FamilyMs[familyShare(P.family())] += Ms;
    if (Modelled > 0.0)
      ModelRatios.push_back(Ms / Modelled);

    PrimitiveId RunnerUp = Chosen;
    double RunnerUpCost = 0.0;
    for (PrimitiveId Id : Lib.supporting(S)) {
      if (Id == Chosen)
        continue;
      double C = Costs.convServingCost(S, Id);
      if (RunnerUp == Chosen || C < RunnerUpCost) {
        RunnerUp = Id;
        RunnerUpCost = C;
      }
    }
    if (RunnerUp == Chosen)
      continue;
    double R0 = nowUs();
    double RunnerUpMs = timePrimitive(Lib.get(RunnerUp), S, 1000 + N);
    T.span("primitive.runner_up " + Net.node(N).L.Name, "probe", R0, nowUs(),
           Args()
               .add("model", Model)
               .add("primitive", Lib.get(RunnerUp).name())
               .add("measured_ms", RunnerUpMs)
               .add("modelled_ms", RunnerUpCost));
    if (RunnerUpMs < Ms)
      ++RunnerUpFaster;
  }
  T.counter("probe." + Model, {{"forward_ms", median(Fwd)},
                               {"runner_up_faster", double(RunnerUpFaster)}});
}

void LayerProbe::probeBatch(const std::string &Model,
                            const std::shared_ptr<const CompiledNet> &Bucket,
                            int64_t K, const std::vector<Tensor3D> &Inputs,
                            const ReferenceTable &Ref, Outcome &Out,
                            Tracer &T) {
  ExecutionContextOptions CtxOpts;
  CtxOpts.UseArena = true;
  BatchExecutionContext Ctx(Bucket, CtxOpts);
  std::vector<const Tensor3D *> Batch;
  std::vector<unsigned> Index;
  for (int64_t I = 0; I < K; ++I) {
    Index.push_back(static_cast<unsigned>(I % int64_t(Inputs.size())));
    Batch.push_back(&Inputs[Index.back()]);
  }
  std::vector<double> Ms;
  for (unsigned Rep = 0; Rep <= ProbeReps; ++Rep) {
    double T0 = nowUs();
    Ctx.run(Batch);
    double T1 = nowUs();
    for (size_t I = 0; I < Batch.size(); ++I)
      Out.check(Model, Index[I], Ctx.output(I), Ref);
    T.span("batch_context.run " + Model, "probe", T0, T1,
           Args().add("batch", double(K)));
    if (Rep > 0)
      Ms.push_back((T1 - T0) / 1000.0);
  }
  BatchMsPerImage += median(Ms) / static_cast<double>(K);
}

void LayerProbe::report(std::map<std::string, double> &M) const {
  M["runtime.forward_ms"] = ForwardMs;
  M["runtime.conv_ms"] = ConvMs;
  // A share, not a time: plans without layout transforms spend exactly 0.
  M["runtime.transform_frac"] = ForwardMs > 0.0 ? TransformMs / ForwardMs : 0.0;
  M["runtime.other_ms"] = OtherMs;
  M["runtime.batch_ms_per_image"] = BatchMsPerImage;
  M["primitives.conv_ms_sum"] = PrimitiveMs;
  M["primitives.gflops"] =
      PrimitiveMs > 0.0 ? PrimitiveFlops / (PrimitiveMs * 1e6) : 0.0;
  for (const char *F : {"direct", "im2", "kn2", "winograd", "fft",
                        "depthwise", "other"}) {
    auto It = FamilyMs.find(F);
    M[std::string("primitives.share.") + F] =
        It == FamilyMs.end() || PrimitiveMs <= 0.0 ? 0.0
                                                   : It->second / PrimitiveMs;
  }
  M["cost.model_ratio_geomean"] = geomean(ModelRatios);
  M["cost.model_ratio_spread"] =
      ModelRatios.empty()
          ? 0.0
          : *std::max_element(ModelRatios.begin(), ModelRatios.end()) /
                *std::min_element(ModelRatios.begin(), ModelRatios.end());
  M["cost.runnerup_faster_nodes"] = RunnerUpFaster;
}

} // namespace e2e
