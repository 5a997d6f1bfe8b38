//===- examples/quickstart.cpp - five-minute tour of the library ----------===//
//
// Builds a small convolutional network, profiles the primitive library on
// it, solves the PBQP primitive-selection problem through the optimizer
// engine, prints the chosen instantiation, executes it, and verifies the
// output against the textbook sum2d instantiation.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "cost/Profiler.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"

#include <cstdio>

using namespace primsel;

int main() {
  // 1. A network: input -> conv3x3 -> pool -> conv3x3 -> conv1x1 -> fc.
  NetworkGraph Net = tinyChain(/*InputSize=*/32);
  std::printf("network '%s': %u layers, %zu convolutions\n",
              Net.name().c_str(), Net.numNodes(), Net.convNodes().size());

  // 2. The primitive library: >70 convolution routines in six families.
  PrimitiveLibrary Lib = buildFullLibrary();
  std::printf("primitive library: %u routines\n", Lib.size());

  // 3. Layerwise profiling (measured on this machine, memoized).
  ProfilerOptions Opts;
  Opts.Repeats = 2;
  MeasuredCostProvider Costs(Lib, Opts);

  // 4. Optimal selection via the engine: cost layer -> PBQP -> solver ->
  //    legalizer, one call. The profiler must be called serially, so the
  //    engine (one thread by default) caches lazily instead of
  //    pre-populating in parallel.
  Engine Eng(Lib, Costs);
  SelectionResult R = Eng.optimize(Net);
  std::printf("\nPBQP solved in %.2f ms (%s); modelled network cost %.3f "
              "ms\n\n",
              R.SolveMillis,
              R.Solver.ProvablyOptimal ? "provably optimal" : "heuristic",
              R.ModelledCostMs);
  ExecutionPlan Program = ExecutionPlan::compile(Net, R.Plan, Lib);
  std::printf("%s\n", Program.dump(Net, R.Plan, Lib).c_str());

  // 5. Execute both the optimized and the baseline instantiation on the
  //    same input and weights; they must agree.
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(42);

  std::unique_ptr<Executor> Optimized = Eng.instantiate(Net, R.Plan);
  RunResult Fast = Optimized->run(In);

  NetworkPlan Baseline = Eng.planFor(Strategy::Sum2D, Net);
  std::unique_ptr<Executor> Reference = Eng.instantiate(Net, Baseline);
  RunResult Slow = Reference->run(In);

  float Diff = maxAbsDifference(Reference->networkOutput(),
                                Optimized->networkOutput());
  std::printf("sum2d baseline: %8.3f ms\n", Slow.TotalMillis);
  std::printf("PBQP optimal:   %8.3f ms  (%.2fx speedup)\n",
              Fast.TotalMillis, Slow.TotalMillis / Fast.TotalMillis);
  std::printf("max |output difference| = %g  (networks compute the same "
              "function)\n",
              static_cast<double>(Diff));
  return Diff < 1e-2f ? 0 : 1;
}
