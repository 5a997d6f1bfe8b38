//===- bench/table1_strengths.cpp - Table 1 --------------------------------===//
//
// Regenerates Table 1: strengths and weaknesses of the six convolution
// families. For each characteristic scenario the harness *measures* every
// family's best variant and reports relative time and workspace, plus
// strided-support legality -- making the paper's qualitative table a
// reproducible quantitative one.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cmath>
#include <cstdio>
#include <limits>

using namespace primsel;
using namespace primsel::bench;

namespace {

struct Case {
  const char *Name;
  ConvScenario S;
};

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();
  ProfilerOptions Opts;
  Opts.Repeats = Config.Repeats;
  Opts.Warmups = 1;
  MeasuredCostProvider Prov(Lib, Opts);

  const Case Cases[] = {
      {"3x3 regular", {32, 32, 32, 1, 3, 32, 1}},
      {"5x5 regular", {32, 32, 32, 1, 5, 32, 2}},
      {"large image", {8, 128, 128, 1, 3, 8, 1}},
      {"few channels", {2, 32, 32, 1, 3, 32, 1}},
      {"strided", {16, 32, 32, 2, 3, 32, 1}},
      {"1x1 kernel", {32, 32, 32, 1, 1, 32, 0}},
  };

  const ConvFamily Families[] = {ConvFamily::Direct, ConvFamily::Im2,
                                 ConvFamily::Kn2, ConvFamily::Winograd,
                                 ConvFamily::FFT};

  std::printf("# Table 1: strengths and weaknesses of the convolution "
              "families (measured)\n");
  std::printf("# per cell: best-variant time relative to the scenario's "
              "overall best (1.00 = fastest); '-' = no legal variant\n\n");
  std::printf("%-14s", "scenario");
  for (ConvFamily F : Families)
    std::printf(" %10s", convFamilyName(F));
  std::printf(" %12s\n", "ws(best) KiB");

  for (const Case &C : Cases) {
    // Best time per family.
    double FamilyBest[NumConvFamilies];
    size_t FamilyWs[NumConvFamilies] = {};
    for (unsigned F = 0; F < NumConvFamilies; ++F)
      FamilyBest[F] = std::numeric_limits<double>::infinity();
    for (PrimitiveId Id = 0; Id < Lib.size(); ++Id) {
      const ConvPrimitive &P = Lib.get(Id);
      if (!P.supports(C.S))
        continue;
      double Millis = Prov.cost({C.S, Id}).totalMs();
      unsigned F = static_cast<unsigned>(P.family());
      if (Millis < FamilyBest[F]) {
        FamilyBest[F] = Millis;
        FamilyWs[F] = P.workspaceBytes(C.S);
      }
    }
    double Overall = std::numeric_limits<double>::infinity();
    for (ConvFamily F : Families)
      Overall = std::min(Overall, FamilyBest[static_cast<unsigned>(F)]);

    std::printf("%-14s", C.Name);
    size_t BestWs = 0;
    for (ConvFamily F : Families) {
      double Best = FamilyBest[static_cast<unsigned>(F)];
      if (!std::isfinite(Best)) {
        std::printf(" %10s", "-");
        continue;
      }
      if (Best == Overall)
        BestWs = FamilyWs[static_cast<unsigned>(F)];
      std::printf(" %10.2f", Best / Overall);
    }
    std::printf(" %12.1f\n", static_cast<double>(BestWs) / 1024.0);
  }

  std::printf("\n# expectations from the paper: direct handles strides "
              "(others fall out or degrade); im2 suffers on large images "
              "(workspace); kn2 suffers with few channels; winograd wins "
              "3x3/5x5 but is unpredictable; fft only occasionally wins\n");
  return 0;
}
