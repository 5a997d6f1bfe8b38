//===- bench/ablation_minibatch.cpp - §8 minibatch parallelism study ------===//
//
// The paper's §8 minibatch extension, exercised end to end: "This would
// enable our optimization approach to select either parallel GEMM or
// minibatch parallelism on a per-layer basis."
//
// Part 1 measures, for representative AlexNet layers and a minibatch sweep,
// the two batch schedules over the same base routine: layer-parallel
// ("parallel GEMM": images in sequence, threads inside the primitive) vs
// image-parallel ("minibatch parallelism": images across threads). Big
// layers keep the cores busy from inside one image; small layers amortize
// better across images -- the crossover moves with the layer, which is why
// a per-layer selection is needed at all.
//
// Part 2 solves the PBQP query for whole AlexNet at batch 4 over the
// batched library and reports the schedule chosen per layer.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "batch/Minibatch.h"
#include "engine/Engine.h"

#include <cstdio>
#include <string>

using namespace primsel;
using namespace primsel::bench;

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  const unsigned Threads = 4;

  PrimitiveLibrary Lib = buildBatchedLibrary();
  ProfilerOptions Opts;
  Opts.Threads = Threads;
  Opts.Repeats = std::max(2u, Config.Repeats);
  MeasuredCostProvider Prov(Lib, Opts);

  std::printf("# Minibatch ablation (§8 future work), %u threads, "
              "scale=%.2f\n\n",
              Threads, Config.Scale);

  // Part 1: per-layer schedule crossover. One large and one small AlexNet
  // scenario (quarter scale by default), same base routine for both
  // schedules so only the schedule differs.
  std::printf("# Part 1: layer-parallel (@bser) vs image-parallel (@bpar), "
              "ms per batch\n");
  std::printf("%-34s %5s %12s %12s %8s\n", "scenario", "batch", "bser(ms)",
              "bpar(ms)", "winner");

  struct Probe {
    const char *Label;
    ConvScenario S;
    const char *Base;
  };
  int64_t Sc = static_cast<int64_t>(56 * Config.Scale * 4); // 56 at 0.25
  Probe Probes[] = {
      {"conv2-like (big work/image)",
       {64, Sc / 2, Sc / 2, 1, 5, 192, 2},
       "im2row-b-chw-hwc"},
      {"late-3x3 (medium)", {192, Sc / 2, Sc / 2, 1, 3, 256, 1},
       "kn2row-as-b-chw-chw"},
      {"tiny-1x1 (small work/image)", {64, Sc / 4, Sc / 4, 1, 1, 32, 0},
       "im2col-b-chw-chw"},
  };

  for (const Probe &P : Probes) {
    for (int64_t Batch : {2, 4, 8}) {
      ConvScenario S = P.S;
      S.Batch = Batch;
      PrimitiveId Ser = *Lib.findByName(std::string(P.Base) + "@bser");
      PrimitiveId Par = *Lib.findByName(std::string(P.Base) + "@bpar");
      double SerMs = Prov.cost({S, Ser}).totalMs();
      double ParMs = Prov.cost({S, Par}).totalMs();
      std::printf("%-34s %5lld %12.3f %12.3f %8s\n", P.Label,
                  static_cast<long long>(Batch), SerMs, ParMs,
                  SerMs <= ParMs ? "bser" : "bpar");
    }
  }

  // Part 2: whole-network per-layer schedule selection at batch 4.
  std::printf("\n# Part 2: PBQP selection for AlexNet, batch 4\n");
  NetworkGraph Net = *buildModel("alexnet", Config.Scale);
  Net.setBatch(4);
  // Measured costs fill serially (single-threaded engine); the formulation
  // weights every layout transform by the batch.
  SelectionResult R = optimizeNetwork(Net, Lib, Prov);

  std::printf("%-12s %-40s %10s\n", "layer", "selected primitive",
              "schedule");
  for (NetworkGraph::NodeId N : Net.convNodes()) {
    std::string Name = Lib.get(R.Plan.ConvPrim[N]).name();
    const char *Schedule = Name.find("@bpar") != std::string::npos
                               ? "image-par"
                               : "layer-par";
    std::printf("%-12s %-40s %10s\n", Net.node(N).L.Name.c_str(),
                Name.c_str(), Schedule);
  }
  std::printf("\n# modelled batch-4 network cost: %.3f ms "
              "(PBQP solve %.2f ms, optimal: %s)\n",
              R.ModelledCostMs, R.SolveMillis,
              R.Solver.ProvablyOptimal ? "yes" : "no");
  return 0;
}
