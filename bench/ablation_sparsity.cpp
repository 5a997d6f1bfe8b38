//===- bench/ablation_sparsity.cpp - §8 future-work sparsity study --------===//
//
// The paper's §8 extension, exercised end to end: sweep the kernel
// sparsity ratio of a VGG-style layer and report (a) the *measured* cost
// of the sparse routines vs the best dense routine, locating the
// dense/sparse crossover, and (b) the family the PBQP formulation selects
// at each ratio -- "our approach can be used to decide whether a dense or
// a sparse implementation ... will be faster for any given convolutional
// layer" with no changes to the optimizer.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>
#include <limits>

using namespace primsel;
using namespace primsel::bench;

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();
  ProfilerOptions Opts;
  Opts.Repeats = std::max(2u, Config.Repeats);
  Opts.Warmups = 1;
  MeasuredCostProvider Prov(Lib, Opts);

  ConvScenario Base{64, 28, 28, 1, 3, 64, 1};

  std::printf("# Sparsity ablation on %s (measured)\n", Base.key().c_str());
  std::printf("%-10s %14s %14s %14s %16s\n", "sparsity%", "best-dense(ms)",
              "sparse-i2c(ms)", "sparse-dir(ms)", "pbqp-pick");

  PrimitiveId SparseI2C = *Lib.findByName("sparse-im2col-chw-chw");
  PrimitiveId SparseDir = *Lib.findByName("sparse-direct-chw-chw");

  for (int Sp : {0, 25, 50, 70, 80, 90, 95, 99}) {
    ConvScenario S = Base;
    S.SparsityPct = Sp;

    double BestDense = std::numeric_limits<double>::infinity();
    PrimitiveId BestDenseId = 0;
    double BestAny = std::numeric_limits<double>::infinity();
    PrimitiveId BestAnyId = 0;
    for (PrimitiveId Id : Lib.supporting(S)) {
      double Millis = Prov.cost({S, Id}).totalMs();
      if (Lib.get(Id).family() != ConvFamily::Sparse &&
          Millis < BestDense) {
        BestDense = Millis;
        BestDenseId = Id;
      }
      if (Millis < BestAny) {
        BestAny = Millis;
        BestAnyId = Id;
      }
    }
    (void)BestDenseId;
    std::printf("%-10d %14.3f %14.3f %14.3f %16s\n", Sp, BestDense,
                Prov.cost({S, SparseI2C}).totalMs(),
                Prov.cost({S, SparseDir}).totalMs(),
                Lib.get(BestAnyId).name().c_str());
  }

  std::printf("\n# expectation: dense routines win for mostly-dense "
              "kernels; past a high sparsity ratio the sparse routines "
              "cross over and the optimizer switches families\n");
  return 0;
}
