//===- examples/codegen_emit.cpp - Emit C++ for an optimized network ------===//
//
// The deployment flow of the paper's §5.2 ("We mapped the solution to code
// with a simple code generator which emitted calls to primitive operations
// in our library") as a command-line tool: pick a model, solve the PBQP
// query under the analytic Haswell cost model, and emit the straight-line
// C++ program implementing the optimal plan.
//
// Usage:
//   codegen_emit <model> [scale] [output-path]
//     model   alexnet | vgg-b | vgg-c | vgg-d | vgg-e | googlenet |
//             tinychain | tinydag | random-residual
//     scale   spatial input scale, default 0.25
//     output  file to write; stdout when omitted
//
// random-residual is randomResidualNetwork(2026, 128 * scale, 2), a
// residual/depthwise DAG. The build also runs this tool on tinydag and
// compiles + verifies the result against the interpreter (see
// examples/codegen_driver.cpp); the test suite does the same for
// random-residual (tests/codegen_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

using namespace primsel;

namespace {

std::optional<NetworkGraph> buildNamedModel(const std::string &Name,
                                            double Scale) {
  if (Name == "alexnet")
    return alexNet(Scale);
  if (Name == "vgg-b")
    return vggB(Scale);
  if (Name == "vgg-c")
    return vggC(Scale);
  if (Name == "vgg-d")
    return vggD(Scale);
  if (Name == "vgg-e")
    return vggE(Scale);
  if (Name == "googlenet")
    return googLeNet(Scale);
  if (Name == "tinychain")
    return tinyChain(static_cast<int64_t>(128 * Scale));
  if (Name == "tinydag")
    return tinyDag(static_cast<int64_t>(128 * Scale));
  if (Name == "random-residual")
    return randomResidualNetwork(/*Seed=*/2026,
                                 static_cast<int64_t>(128 * Scale),
                                 /*Stages=*/2);
  return std::nullopt;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <model> [scale] [output-path]\n",
                 argv[0]);
    return 1;
  }
  double Scale = argc > 2 ? std::atof(argv[2]) : 0.25;
  std::optional<NetworkGraph> Net = buildNamedModel(argv[1], Scale);
  if (!Net) {
    std::fprintf(stderr, "error: unknown model '%s'\n", argv[1]);
    return 1;
  }

  PrimitiveLibrary Lib = buildFullLibrary();
  // The analytic model keeps this tool deterministic and instant; swap in
  // MeasuredCostProvider to generate against profiled costs.
  MachineProfile Profile = MachineProfile::haswell();
  AnalyticCostProvider Costs(Lib, Profile, /*Threads=*/1);

  Engine Eng(Lib, Costs);
  SelectionResult R = Eng.optimize(*Net);
  if (R.Plan.empty()) {
    std::fprintf(stderr, "error: selection failed for '%s'\n", argv[1]);
    return 1;
  }

  std::string Source = Eng.emitSource(*Net, R.Plan);
  if (argc > 3) {
    std::ofstream Out(argv[3]);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", argv[3]);
      return 1;
    }
    Out << Source;
    std::fprintf(stderr, "wrote %zu bytes of generated C++ to %s "
                 "(modelled cost %.3f ms)\n",
                 Source.size(), argv[3], R.ModelledCostMs);
    return 0;
  }
  std::fputs(Source.c_str(), stdout);
  return 0;
}
