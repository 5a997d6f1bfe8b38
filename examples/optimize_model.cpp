//===- examples/optimize_model.cpp - command-line optimizer ---------------===//
//
// A small driver exposing the whole pipeline as a command-line tool, the
// way a deployment flow would use the library: profile (or model) the
// costs, optimize, print the instantiation, optionally execute it, and
// save the cost tables for shipping alongside the trained model (§4).
//
// Usage:
//   optimize_model [--model NAME] [--scale S] [--analytic {haswell|a57}]
//                  [--threads N] [--strategy NAME] [--run] [--save-costs F]
//                  [--load-costs F] [--print-plan]
//
// Examples:
//   optimize_model --model alexnet --scale 0.25 --run
//   optimize_model --model googlenet --analytic a57 --print-plan
//   optimize_model --model vgg-e --strategy local-optimal --run
//
//===----------------------------------------------------------------------===//

#include "cost/AnalyticModel.h"
#include "cost/Profiler.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace primsel;

namespace {

struct CliOptions {
  std::string Model = "alexnet";
  double Scale = 0.25;
  std::string Analytic;   ///< empty = measured on this host
  unsigned Threads = 1;
  std::string StrategyName = "pbqp";
  bool Run = false;
  bool PrintPlan = false;
  std::string SaveCosts;
  std::string LoadCosts;
};

void usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--model NAME] [--scale S] [--analytic haswell|a57]\n"
      "          [--threads N] [--strategy NAME] [--run] [--print-plan]\n"
      "          [--save-costs FILE] [--load-costs FILE]\n"
      "models: alexnet vgg-b vgg-c vgg-d vgg-e googlenet\n"
      "strategies: sum2d direct im2 kn2 winograd fft local-optimal greedy\n"
      "            pbqp caffe mkldnn armcl\n",
      Prog);
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--model") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Model = V;
    } else if (Arg == "--scale") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Scale = std::atof(V);
    } else if (Arg == "--analytic") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Analytic = V;
    } else if (Arg == "--threads") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Threads = static_cast<unsigned>(std::atoi(V));
    } else if (Arg == "--strategy") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.StrategyName = V;
    } else if (Arg == "--run") {
      Opts.Run = true;
    } else if (Arg == "--print-plan") {
      Opts.PrintPlan = true;
    } else if (Arg == "--save-costs") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SaveCosts = V;
    } else if (Arg == "--load-costs") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.LoadCosts = V;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(Argv[0]);
    return 2;
  }

  std::optional<NetworkGraph> Net = buildModel(Opts.Model, Opts.Scale);
  if (!Net) {
    std::fprintf(stderr, "error: unknown model '%s'\n", Opts.Model.c_str());
    return 2;
  }
  std::optional<Strategy> Strat = parseStrategy(Opts.StrategyName);
  if (!Strat) {
    std::fprintf(stderr, "error: unknown strategy '%s'\n",
                 Opts.StrategyName.c_str());
    return 2;
  }

  PrimitiveLibrary Lib = buildFullLibrary();

  // Pick the cost source.
  std::unique_ptr<CostProvider> Costs;
  MeasuredCostProvider *Measured = nullptr;
  if (Opts.Analytic.empty()) {
    ProfilerOptions POpts;
    POpts.Threads = Opts.Threads;
    POpts.Repeats = 2;
    auto M = std::make_unique<MeasuredCostProvider>(Lib, POpts);
    Measured = M.get();
    if (!Opts.LoadCosts.empty() &&
        Measured->database().load(Opts.LoadCosts))
      std::printf("loaded cost tables from %s\n", Opts.LoadCosts.c_str());
    Costs = std::move(M);
  } else {
    MachineProfile Profile = Opts.Analytic == "a57"
                                 ? MachineProfile::cortexA57()
                                 : MachineProfile::haswell();
    Costs = std::make_unique<AnalyticCostProvider>(Lib, Profile,
                                                   Opts.Threads);
  }

  std::printf("model %s (scale %.2f): %u layers, %zu convolutions\n",
              Net->name().c_str(), Opts.Scale, Net->numNodes(),
              Net->convNodes().size());

  // One engine serves the whole session: the strategy plan, the optional
  // execution, and the cost-cache reuse between them. The profiler cannot
  // be called concurrently, so the engine gets no pre-population pool when
  // measuring.
  EngineOptions EOpts;
  EOpts.Threads = Opts.Analytic.empty() ? 1 : Opts.Threads;
  Engine Eng(Lib, *Costs, EOpts);

  NetworkPlan Plan;
  if (*Strat == Strategy::PBQP) {
    SelectionResult R = Eng.optimize(*Net);
    std::printf("PBQP: %u nodes, %u edges; solved in %.2f ms (%s); "
                "modelled cost %.3f ms\n",
                R.NumNodes, R.NumEdges, R.SolveMillis,
                R.Solver.ProvablyOptimal ? "optimal" : "heuristic",
                R.ModelledCostMs);
    Plan = std::move(R.Plan);
  } else {
    Plan = Eng.planFor(*Strat, *Net);
    std::printf("strategy %s: modelled cost %.3f ms\n",
                strategyName(*Strat), Eng.planCost(Plan, *Net));
  }

  if (Opts.PrintPlan) {
    ExecutionPlan Program = ExecutionPlan::compile(*Net, Plan, Lib);
    std::printf("\n%s", Program.dump(*Net, Plan, Lib).c_str());
  }

  if (Opts.Run) {
    std::unique_ptr<Executor> Exec =
        Eng.instantiate(*Net, Plan, Opts.Threads);
    const TensorShape &Sh = Net->node(0).OutShape;
    Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
    In.fillRandom(11);
    Exec->run(In); // warm-up
    RunResult R = Exec->run(In);
    std::printf("\nforward pass: %.3f ms total (conv %.3f, transforms "
                "%.3f, other %.3f)\n",
                R.TotalMillis, R.ConvMillis, R.TransformMillis,
                R.OtherMillis);
  }

  if (Measured && !Opts.SaveCosts.empty()) {
    if (Measured->database().save(Opts.SaveCosts))
      std::printf("saved %zu conv + %zu transform cost entries to %s\n",
                  Measured->database().numConvEntries(),
                  Measured->database().numTransformEntries(),
                  Opts.SaveCosts.c_str());
    else
      std::fprintf(stderr, "error: could not write %s\n",
                   Opts.SaveCosts.c_str());
  }
  return 0;
}
