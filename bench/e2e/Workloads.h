//===- bench/e2e/Workloads.h - End-to-end benchmark workloads ---*- C++ -*-===//
//
// Part of primsel. See bench/e2e/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five workloads of the end-to-end benchmark, the metrics they report,
/// and the pieces they share: seeded input generation, the output checksum
/// compared against the reference process, the engine configuration of
/// `primsel-cli compile`, and the layer probe of traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_BENCH_E2E_WORKLOADS_H
#define PRIMSEL_BENCH_E2E_WORKLOADS_H

#include "Stats.h"
#include "Trace.h"

#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "serve/Batcher.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Input scale of every model (the CLI's default; 1.0 = 224x224-class).
constexpr double ModelScale = 0.25;

struct WorkloadSpec {
  std::string Name;
  /// Zoo models the workload serves, by buildModel name.
  std::vector<std::string> Models;
  /// Served through batch-bucket ladders, which need buildBatchedLibrary.
  bool BatchedLibrary = false;
  /// Distinct seeded inputs per model; requests draw from this pool.
  unsigned DistinctInputs = 1;
};

const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(const std::string &Name);

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The metrics of an untraced run (`--trace` off), in output order.
const std::vector<MetricDef> &endToEndMetrics();
/// The metrics of a traced run, in output order.
const std::vector<MetricDef> &perLayerMetrics();

/// (model, input index) -> checksum of the sequential Executor's output.
using ReferenceTable = std::map<std::pair<std::string, unsigned>, uint64_t>;

/// FNV-1a over a tensor's bytes: equal checksums mean bit-identical outputs.
uint64_t checksum(const primsel::Tensor3D &T);

/// \p Count CHW inputs of \p Shape, a pure function of (seed, model, index).
std::vector<primsel::Tensor3D> makeInputs(uint64_t Seed,
                                          const std::string &Model,
                                          const primsel::TensorShape &Shape,
                                          unsigned Count);

primsel::NetworkGraph zooModel(const std::string &Name);

/// The engine configuration `primsel-cli compile` uses: analytic Haswell
/// costs, the reduction solver, amortized serving-mode costs, -O0.
primsel::EngineOptions cliEngineOptions();

/// A primitive library, the analytic cost model over it, and an engine.
struct Toolchain {
  Toolchain(bool Batched, const primsel::EngineOptions &Options);

  std::unique_ptr<primsel::PrimitiveLibrary> Lib;
  std::unique_ptr<primsel::AnalyticCostProvider> Costs;
  std::unique_ptr<primsel::Engine> Eng;
};

/// Per-request outputs of the reference process: for every model of
/// \p Spec, the sequential Executor over the plan the workload's engine
/// configuration selects, run on each distinct input.
ReferenceTable computeReference(const WorkloadSpec &Spec, uint64_t Seed);

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Plan-cache directories of zoo-cold live here (removed afterwards).
  std::string ScratchDir;
};

/// What one workload run measured and verified.
struct Outcome {
  uint64_t Attempted = 0;
  /// Non-Ok responses, outputs differing from the reference, and plans a
  /// plan-cache hit returned differently from the cold solve.
  uint64_t Failed = 0;
  /// The subset of Failed that is a wrong output or plan.
  uint64_t Wrong = 0;
  Validity Valid;
  std::map<std::string, double> Metrics;

  /// Count one output and compare it against the reference.
  void check(const std::string &Model, unsigned Input,
             const primsel::Tensor3D &Out, const ReferenceTable &Ref);
  void fail(bool WrongResult) {
    ++Failed;
    if (WrongResult)
      ++Wrong;
  }
};

Outcome runWorkload(const RunOptions &Opts, const ReferenceTable &Ref,
                    Tracer &T);

/// Layer probe of traced runs: everything measured by timing public calls
/// on a workload's own artifacts after its serving phase.
struct LayerProbe {
  /// Per-model medians of timed ExecutionContext::run and its RunResult,
  /// summed over the workload's models.
  double ForwardMs = 0, ConvMs = 0, TransformMs = 0, OtherMs = 0;
  std::map<std::string, double> ForwardByModel;
  /// Timed BatchExecutionContext::run at the largest compiled batch,
  /// divided by that batch, summed over models.
  double BatchMsPerImage = 0;
  /// Every selected conv node's primitive prepared, bound and run alone.
  double PrimitiveMs = 0, PrimitiveFlops = 0;
  std::map<std::string, double> FamilyMs;
  std::vector<double> ModelRatios; ///< measured ms / modelled serving ms
  unsigned RunnerUpFaster = 0;

  /// Probe one batch-1 artifact of \p Model.
  void probeArtifact(const std::string &Model,
                     const std::shared_ptr<const primsel::CompiledNet> &CN,
                     primsel::CostProvider &Costs,
                     const std::vector<primsel::Tensor3D> &Inputs,
                     const ReferenceTable &Ref, Outcome &Out, Tracer &T);
  /// Time one full batch on \p Bucket (batch-1 artifacts run K = 1).
  void probeBatch(const std::string &Model,
                  const std::shared_ptr<const primsel::CompiledNet> &Bucket,
                  int64_t K, const std::vector<primsel::Tensor3D> &Inputs,
                  const ReferenceTable &Ref, Outcome &Out, Tracer &T);
  void report(std::map<std::string, double> &Metrics) const;
};

} // namespace e2e

#endif // PRIMSEL_BENCH_E2E_WORKLOADS_H
