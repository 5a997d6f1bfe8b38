//===- bench/batched_serving.cpp - Batch-ladder acceptance bench ----------===//
//
// The batch-bucketed plan ladder (engine/Ladder.h) end to end: coalesced
// batches served through real §8 minibatch plans -- one PBQP-solved
// artifact per bucket, @bser/@bpar chosen per layer per bucket -- against
// the per-slot image-parallel path that runs K independent batch-1
// contexts.
//
// Three claims are checked:
//   1. per-image outputs are bit-identical to the sequential Executor at
//      every bucket x thread-width grid point (direct ExecutionContext
//      probes over every partial batch size) AND for every Ok response of
//      every open-loop serving point. Always asserted; failure exits
//      nonzero.
//   2. zero request-path PBQP solves after warmup: the ladder's buckets
//      compile on its background thread during a warmup run; once
//      waitForCompiles() returns, the measured phase must not grow the
//      engine's plan-cache miss counter, must record zero ladder sync
//      compiles, and must serve every batch through a bucket (zero
//      fallbacks). Always asserted.
//   3. at a saturating arrival rate, the ladder server sustains >= 1.3x
//      the batch-1 slot path's throughput. Batched plans need real cores
//      to spread over, so this is asserted only when the host reports
//      >= 4 hardware threads and reported as SKIP otherwise (the
//      bench/parallel_scaling.cpp convention).
//
// Results land in machine-readable BENCH_batched.json (path overridable
// via PRIMSEL_BENCH_JSON). Environment knobs are the shared bench ones
// (PRIMSEL_SCALE, PRIMSEL_ITERS).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "batch/Minibatch.h"
#include "engine/Engine.h"
#include "serve/OpenLoop.h"
#include "serve/Server.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace primsel;
using namespace primsel::bench;

namespace {

/// Deep copy of an executor output (contexts reuse their output storage).
Tensor3D copyOutput(const Tensor3D &O) {
  Tensor3D Ref(O.channels(), O.height(), O.width(), O.layout());
  std::memcpy(Ref.data(), O.data(),
              static_cast<size_t>(O.size()) * sizeof(float));
  return Ref;
}

struct ServePoint {
  double RatePerSec = 0.0;
  unsigned MaxBatch = 0;
  unsigned Workers = 0;
  bool Ladder = false;
  serve::OpenLoopResult Res;
  LatencySummary Lat;
  uint64_t BatchedBatches = 0;
  uint64_t FallbackBatches = 0;
  bool BitIdentical = true;
};

/// One open-loop serving point, every Ok output verified against the
/// sequential references.
ServePoint runPoint(std::shared_ptr<const CompiledNet> CN,
                    std::shared_ptr<CompiledNetLadder> Ladder,
                    const std::vector<Tensor3D> &Inputs,
                    const std::vector<Tensor3D> &Reference, double RatePerSec,
                    unsigned Requests, unsigned MaxBatch, unsigned Workers) {
  serve::ServerOptions SOpts;
  SOpts.Batch.MaxBatch = MaxBatch;
  SOpts.Batch.MaxDelayNs = 2000 * serve::nsPerUs;
  SOpts.Batch.MaxQueue = 512; // generous: measure throughput, not drops
  SOpts.Workers = Workers;
  SOpts.Ladder = Ladder;

  serve::OpenLoopOptions LOpts;
  LOpts.RatePerSec = RatePerSec;
  LOpts.Requests = Requests;
  LOpts.Seed = 7;

  ServePoint P;
  P.RatePerSec = RatePerSec;
  P.MaxBatch = MaxBatch;
  P.Workers = Workers;
  P.Ladder = Ladder != nullptr;

  std::vector<unsigned> InputIndex;
  std::vector<serve::ServeResponse> Responses;
  {
    serve::Server Srv(CN, SOpts);
    P.Res = serve::runOpenLoop(Srv, Inputs, LOpts, &InputIndex, &Responses);
    Srv.shutdown();
    serve::ServerStats SS = Srv.stats();
    P.BatchedBatches = SS.BatchedBatches;
    P.FallbackBatches = SS.FallbackBatches;
  }

  for (size_t I = 0; I < Responses.size(); ++I) {
    if (!Responses[I].ok())
      continue;
    if (maxAbsDifference(Responses[I].Output, Reference[InputIndex[I]]) !=
        0.0f)
      P.BitIdentical = false;
  }
  P.Lat = summarizeLatencies(P.Res.LatenciesMs);
  return P;
}

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  // The §8 minibatch wrappers must be in the library for bucket solves to
  // choose @bser/@bpar; batch-1 scenarios never match them, so the anchor
  // plan is the one buildFullLibrary() would produce.
  PrimitiveLibrary Lib = buildBatchedLibrary();
  const unsigned HwThreads =
      std::max(1u, std::thread::hardware_concurrency());

  NetworkGraph Net = mobileNet(Config.Scale);
  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  EOpts.CachePlans = true; // the zero-request-path-solve claim reads this
  Engine Eng(Lib, Prov, EOpts);

  // Background mode: bucket 1 compiles here, the rest on the ladder's own
  // thread -- exactly the serving deployment the warmup claim is about.
  LadderOptions LO;
  LO.MaxBatch = 4;
  LO.Background = true;
  std::shared_ptr<CompiledNetLadder> Ladder = Eng.compileLadder(Net, LO);
  if (!Ladder) {
    std::fprintf(stderr, "FAIL: ladder compile failed\n");
    return 1;
  }
  std::shared_ptr<const CompiledNet> CN = Ladder->bucket(1);

  // Distinct inputs the open loop cycles through, plus the sequential
  // Executor's output for each -- the bit-identity reference.
  const NetworkGraph &ExecNet = CN->graph();
  const TensorShape &Sh = ExecNet.node(0).OutShape;
  std::vector<Tensor3D> Inputs;
  std::vector<Tensor3D> Reference;
  Executor Seq(ExecNet, CN->plan(), Lib);
  for (unsigned I = 0; I < 4; ++I) {
    Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
    T.fillRandom(23 + I);
    Seq.run(T);
    Reference.push_back(copyOutput(Seq.networkOutput()));
    Inputs.push_back(std::move(T));
  }

  // Sequential capacity anchors the arrival rates.
  ExecutionContextOptions SeqOpts;
  std::unique_ptr<ExecutionContext> Ctx = CN->newContext(SeqOpts);
  Ctx->run(Inputs[0]); // warm-up
  Timer SeqTimer;
  const unsigned SeqIters = std::max(8u, Config.Iters);
  for (unsigned I = 0; I < SeqIters; ++I)
    Ctx->run(Inputs[I % Inputs.size()]);
  double SeqMs = SeqTimer.millis() / SeqIters;
  double CapacityPerSec = 1000.0 / SeqMs;

  const unsigned Requests = 120;
  std::printf("# batched serving bench: mobilenet scale %.2f, ladder "
              "buckets {1,2,4}, %u requests/point, sequential %.2f ms "
              "(capacity %.1f req/sec), %u hardware threads\n",
              Config.Scale, Requests, SeqMs, CapacityPerSec, HwThreads);

  // --- Warmup: drive saturating traffic so misses queue every bucket on
  // the background thread, then drain it. ---------------------------------
  ServePoint Warm = runPoint(CN, Ladder, Inputs, Reference,
                             4.0 * CapacityPerSec, Requests,
                             /*MaxBatch=*/4, /*Workers=*/1);
  Ladder->waitForCompiles();
  LadderStats WarmLS = Ladder->stats();
  std::printf("warmup: %u/%u ok, %llu batched / %llu fallback batches, "
              "%llu background compiles, %u resident buckets\n",
              Warm.Res.Completed, Warm.Res.Offered,
              static_cast<unsigned long long>(Warm.BatchedBatches),
              static_cast<unsigned long long>(Warm.FallbackBatches),
              static_cast<unsigned long long>(WarmLS.BackgroundCompiles),
              WarmLS.ResidentBuckets);
  bool AllIdentical = Warm.BitIdentical;

  // --- Claim 1a: direct bucket x thread-width grid. Every resident
  // bucket, every partial batch size it accepts, pool widths 1 and 2:
  // per-image outputs must match the sequential Executor bit for bit. ----
  bool GridIdentical = true;
  unsigned GridPoints = 0;
  for (const CompiledNetLadder::Rung &R : Ladder->residentRungs()) {
    for (unsigned Threads = 1; Threads <= 2; ++Threads) {
      ExecutionContextOptions BOpts;
      BOpts.Threads = Threads;
      ExecutionContext BCtx(R.Artifact, BOpts);
      for (int64_t K = 1; K <= R.Bucket; ++K) {
        std::vector<const Tensor3D *> Ptrs;
        for (int64_t I = 0; I < K; ++I)
          Ptrs.push_back(&Inputs[static_cast<size_t>(I) % Inputs.size()]);
        BCtx.run(Ptrs);
        for (int64_t I = 0; I < K; ++I)
          if (maxAbsDifference(
                  BCtx.output(static_cast<size_t>(I)),
                  Reference[static_cast<size_t>(I) % Reference.size()]) !=
              0.0f)
            GridIdentical = false;
        ++GridPoints;
      }
    }
  }
  std::printf("grid: %u bucket x batch x width points, outputs %s\n",
              GridPoints, GridIdentical ? "identical" : "DIFFER");
  AllIdentical &= GridIdentical;

  // --- Claim 2 setup: after warmup, the request path must never solve. ---
  const PlanCacheStats *PS = Eng.planCacheStats();
  uint64_t MissesBefore = PS ? PS->Misses : 0;
  uint64_t SyncBefore = WarmLS.SyncCompiles;

  // --- Measured serving grid: rate x workers through the warm ladder. ----
  const double Multipliers[] = {0.5, 1.0, 2.0, 4.0};
  std::vector<ServePoint> Points;
  uint64_t MeasuredFallbacks = 0;
  for (double M : Multipliers) {
    for (unsigned Workers = 1; Workers <= 2; ++Workers) {
      ServePoint P = runPoint(CN, Ladder, Inputs, Reference,
                              M * CapacityPerSec, Requests,
                              /*MaxBatch=*/4, Workers);
      AllIdentical &= P.BitIdentical;
      MeasuredFallbacks += P.FallbackBatches;
      std::printf("rate %7.1f req/s (%.1fx cap) x %u worker%s: sustained "
                  "%7.1f req/s, p50 %7.2f ms, p99 %7.2f ms, p99.9 %7.2f "
                  "ms, %llu batched / %llu fallback, outputs %s\n",
                  P.RatePerSec, M, Workers, Workers == 1 ? " " : "s",
                  P.Res.SustainedPerSec, P.Lat.P50, P.Lat.P99, P.Lat.P999,
                  static_cast<unsigned long long>(P.BatchedBatches),
                  static_cast<unsigned long long>(P.FallbackBatches),
                  P.BitIdentical ? "identical" : "DIFFER");
      Points.push_back(std::move(P));
    }
  }

  // --- Claim 3: ladder vs the batch-1 slot path at saturation. -----------
  double SatRate = 4.0 * CapacityPerSec;
  ServePoint Slot1 = runPoint(CN, nullptr, Inputs, Reference, SatRate,
                              Requests, /*MaxBatch=*/1, /*Workers=*/1);
  ServePoint SlotPar = runPoint(CN, nullptr, Inputs, Reference, SatRate,
                                Requests, /*MaxBatch=*/4, /*Workers=*/1);
  ServePoint LadderSat = runPoint(CN, Ladder, Inputs, Reference, SatRate,
                                  Requests, /*MaxBatch=*/4, /*Workers=*/1);
  AllIdentical &=
      Slot1.BitIdentical && SlotPar.BitIdentical && LadderSat.BitIdentical;
  MeasuredFallbacks += LadderSat.FallbackBatches;
  double Speedup = Slot1.Res.SustainedPerSec > 0.0
                       ? LadderSat.Res.SustainedPerSec /
                             Slot1.Res.SustainedPerSec
                       : 0.0;
  double VsSlotPar = SlotPar.Res.SustainedPerSec > 0.0
                         ? LadderSat.Res.SustainedPerSec /
                               SlotPar.Res.SustainedPerSec
                         : 0.0;
  std::printf("saturation (%.1f req/s offered): batch-1 slots %7.1f "
              "req/s, image-parallel slots %7.1f req/s, ladder %7.1f "
              "req/s (%.2fx vs batch-1, %.2fx vs slots)\n",
              SatRate, Slot1.Res.SustainedPerSec,
              SlotPar.Res.SustainedPerSec, LadderSat.Res.SustainedPerSec,
              Speedup, VsSlotPar);

  // --- Claim 2: zero request-path solves after warmup. -------------------
  LadderStats FinalLS = Ladder->stats();
  uint64_t MissesAfter = PS ? PS->Misses : 0;
  bool NoSolves = MissesAfter == MissesBefore &&
                  FinalLS.SyncCompiles == SyncBefore &&
                  MeasuredFallbacks == 0;
  std::printf("request path after warmup: plan-cache misses %llu -> "
              "%llu, sync compiles %llu -> %llu, fallback batches %llu\n",
              static_cast<unsigned long long>(MissesBefore),
              static_cast<unsigned long long>(MissesAfter),
              static_cast<unsigned long long>(SyncBefore),
              static_cast<unsigned long long>(FinalLS.SyncCompiles),
              static_cast<unsigned long long>(MeasuredFallbacks));

  // Machine-readable trajectory record.
  const char *JsonEnv = std::getenv("PRIMSEL_BENCH_JSON");
  std::string JsonPath = JsonEnv ? JsonEnv : "BENCH_batched.json";
  if (std::FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(F,
                 "{\n  \"bench\": \"batched_serving\",\n"
                 "  \"model\": \"mobilenet\",\n  \"scale\": %.3f,\n"
                 "  \"requests_per_point\": %u,\n"
                 "  \"sequential_ms_per_request\": %.4f,\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"grid_points\": %u,\n"
                 "  \"background_compiles\": %llu,\n  \"sweep\": [\n",
                 Config.Scale, Requests, SeqMs, HwThreads, GridPoints,
                 static_cast<unsigned long long>(FinalLS.BackgroundCompiles));
    for (size_t I = 0; I < Points.size(); ++I) {
      const ServePoint &P = Points[I];
      std::fprintf(
          F,
          "    {\"rate_per_sec\": %.2f, \"workers\": %u, "
          "\"offered_per_sec\": %.2f, \"sustained_per_sec\": %.2f, "
          "\"completed\": %u, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"p999_ms\": %.4f, \"batched_batches\": %llu, "
          "\"fallback_batches\": %llu, \"bit_identical\": %s}%s\n",
          P.RatePerSec, P.Workers, P.Res.OfferedPerSec,
          P.Res.SustainedPerSec, P.Res.Completed, P.Lat.P50, P.Lat.P99,
          P.Lat.P999, static_cast<unsigned long long>(P.BatchedBatches),
          static_cast<unsigned long long>(P.FallbackBatches),
          P.BitIdentical ? "true" : "false",
          I + 1 < Points.size() ? "," : "");
    }
    std::fprintf(
        F,
        "  ],\n  \"saturation\": {\"offered_per_sec\": %.2f, "
        "\"slot_batch1_per_sec\": %.2f, \"slot_parallel_per_sec\": %.2f, "
        "\"ladder_per_sec\": %.2f, \"speedup_vs_batch1\": %.3f, "
        "\"speedup_vs_slots\": %.3f},\n"
        "  \"request_path_solves_after_warmup\": %llu\n}\n",
        SatRate, Slot1.Res.SustainedPerSec, SlotPar.Res.SustainedPerSec,
        LadderSat.Res.SustainedPerSec, Speedup, VsSlotPar,
        static_cast<unsigned long long>(MissesAfter - MissesBefore));
    std::fclose(F);
    std::printf("# wrote %s\n", JsonPath.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", JsonPath.c_str());
  }

  std::printf("%s per-image outputs bit-identical to the sequential "
              "executor at every grid and serving point\n",
              AllIdentical ? "PASS" : "FAIL");
  std::printf("%s zero request-path PBQP solves after warmup\n",
              NoSolves ? "PASS" : "FAIL");
  bool ThroughputOk = true;
  if (HwThreads >= 4) {
    ThroughputOk = Speedup >= 1.3;
    std::printf("%s ladder sustains >= 1.3x the batch-1 slot path at "
                "saturation (%.2fx)\n",
                ThroughputOk ? "PASS" : "FAIL", Speedup);
  } else {
    std::printf("SKIP saturation-throughput assertion: host has %u "
                "hardware threads (< 4); batched plans cannot spread "
                "over cores\n",
                HwThreads);
  }
  return AllIdentical && NoSolves && ThroughputOk ? 0 : 1;
}
