//===- bench/fleet_serving.cpp - Multi-model fleet acceptance bench -------===//
//
// The fleet shape of the serving stack under mixed load: three models of
// different sizes share one process, one memory budget, and one warm
// plan-cache state (serve/Fleet.h). Poisson traffic picks a model per
// request, the budget is pinned strictly between the largest artifact and
// the fleet total so residency must churn, and live hot-swaps race the
// traffic mid-run.
//
// Four claims are checked (all self-verified; any failure exits nonzero):
//   1. every Ok response -- across eviction churn, readmission, racing
//      hot-swaps, and a targeted burst -- is bit-identical to the
//      sequential Executor's output for the same (model, input) pair.
//   2. budget invariant: accounted resident bytes never exceed the budget
//      (PeakResidentBytes <= budget), at least one eviction happened, and
//      no request was shed for unavailability (the budget admits every
//      artifact individually).
//   3. eviction costs prepare time, never a PBQP re-solve: the probe
//      phase warms the shared PlanCache, so every traffic-phase compile
//      (cold, readmission, or swap) is a plan-cache hit and Solves == 0.
//   4. conservation/isolation: every submitted request resolves exactly
//      once with Ok -- a burst aimed at one lane does not disturb the
//      others -- and unknown models reject immediately without touching
//      any lane.
//
// Results are emitted as machine-readable BENCH_fleet.json (path
// overridable via PRIMSEL_BENCH_JSON) so CI can track the fleet-serving
// trajectory. Environment knobs are the shared bench ones (PRIMSEL_SCALE).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/Engine.h"
#include "serve/Fleet.h"
#include "serve/OpenLoop.h"
#include "support/Random.h"
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

struct ModelTraffic {
  std::string Name;
  size_t Bytes = 0;
  double SeqMs = 0.0;
  std::vector<Tensor3D> Inputs;
  std::vector<Tensor3D> Reference;
  unsigned Offered = 0;
  unsigned Ok = 0;
};

NetworkGraph fleetModel(const std::string &Name, double Scale) {
  if (Name == "mobilenet")
    return mobileNet(Scale);
  if (Name == "resnet18")
    return resNet18(Scale);
  return tinyDag(32);
}

} // namespace

int main() {
  BenchConfig Config = BenchConfig::fromEnvironment();
  PrimitiveLibrary Lib = buildFullLibrary();
  const unsigned HwThreads =
      std::max(1u, std::thread::hardware_concurrency());
  const std::vector<std::string> Names{"mobilenet", "resnet18", "tinydag"};
  const unsigned MaxBatch = 4;

  AnalyticCostProvider Prov(Lib, MachineProfile::haswell(), 1);
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true;
  EOpts.CachePlans = true; // one in-memory PlanCache for the whole fleet
  Engine Eng(Lib, Prov, EOpts);

  // --- Probe phase: solve + compile each model once (unlimited budget) --
  // to learn artifact sizes and build the sequential bit-identity
  // references. This also warms the shared PlanCache: every compile the
  // traffic phase does must be a plan-cache hit.
  std::vector<ModelTraffic> Models;
  {
    serve::RegistryOptions POpts;
    POpts.ArenaSlabsPerModel = MaxBatch;
    serve::ModelRegistry Probe(Eng, POpts);
    for (const std::string &Name : Names) {
      if (!Probe.addModel(Name, fleetModel(Name, Config.Scale))) {
        std::fprintf(stderr, "FAIL: duplicate model %s\n", Name.c_str());
        return 1;
      }
      std::shared_ptr<const CompiledNet> CN = Probe.acquire(Name);
      if (!CN) {
        std::fprintf(stderr, "FAIL: probe compile of %s failed\n",
                     Name.c_str());
        return 1;
      }
      ModelTraffic M;
      M.Name = Name;
      M.Bytes = serve::ModelRegistry::artifactBytes(*CN, MaxBatch);

      const NetworkGraph &ExecNet = CN->graph();
      const TensorShape &Sh = ExecNet.node(0).OutShape;
      Executor Seq(ExecNet, CN->plan(), Lib);
      for (unsigned I = 0; I < 3; ++I) {
        Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
        T.fillRandom(11 * (Models.size() + 1) + I);
        Timer RunTimer;
        Seq.run(T);
        M.SeqMs = std::max(M.SeqMs, RunTimer.millis());
        const Tensor3D &O = Seq.networkOutput();
        Tensor3D Ref(O.channels(), O.height(), O.width(), O.layout());
        std::memcpy(Ref.data(), O.data(),
                    static_cast<size_t>(O.size()) * sizeof(float));
        M.Reference.push_back(std::move(Ref));
        M.Inputs.push_back(std::move(T));
      }
      Models.push_back(std::move(M));
    }
  }

  // Pin the budget strictly between the largest artifact and the fleet
  // total: every model fits alone, the fleet does not fit together, so
  // traffic must churn residency while shedding nothing.
  size_t MaxBytes = 0, SumBytes = 0;
  double MeanSeqMs = 0.0;
  for (const ModelTraffic &M : Models) {
    MaxBytes = std::max(MaxBytes, M.Bytes);
    SumBytes += M.Bytes;
    MeanSeqMs += M.SeqMs;
  }
  MeanSeqMs /= static_cast<double>(Models.size());
  const size_t Budget = (MaxBytes + SumBytes) / 2;

  const unsigned Requests = 90;
  const unsigned Burst = 16;
  const double RatePerSec = 2.0 * 1000.0 / std::max(MeanSeqMs, 0.01);
  std::printf("# fleet serving bench: %zu models, scale %.2f, %u paced + "
              "%u burst requests, rate %.1f req/s, budget %.2f MiB "
              "(largest %.2f, fleet %.2f), %u hardware threads\n",
              Models.size(), Config.Scale, Requests, Burst, RatePerSec,
              static_cast<double>(Budget) / (1024.0 * 1024.0),
              static_cast<double>(MaxBytes) / (1024.0 * 1024.0),
              static_cast<double>(SumBytes) / (1024.0 * 1024.0),
              HwThreads);

  // --- Traffic phase: budgeted registry, fresh lanes, warm PlanCache. ---
  serve::RegistryOptions ROpts;
  ROpts.MemBudgetBytes = Budget;
  ROpts.ArenaSlabsPerModel = MaxBatch;
  serve::ModelRegistry Reg(Eng, ROpts);
  for (ModelTraffic &M : Models)
    Reg.addModel(M.Name, fleetModel(M.Name, Config.Scale));

  serve::FleetOptions FOpts;
  FOpts.Batch.MaxBatch = MaxBatch;
  FOpts.Batch.MaxDelayNs = 2000 * serve::nsPerUs;
  FOpts.Batch.MaxQueue = 512; // generous: measure churn, not drops
  FOpts.WorkersPerModel = 1;

  // Every offered request, tagged with the (model, input) it carried.
  struct Tagged {
    size_t Model = 0;
    size_t Input = 0;
  };
  std::vector<Tagged> Arrivals;
  std::vector<serve::SubmitTicket> BurstTickets;
  std::vector<serve::ServeResponse> Responses;
  unsigned Swaps = 0;
  uint64_t UnknownRejects = 0;
  double WallMs = 0.0;
  {
    serve::FleetServer Srv(Reg, FOpts);

    // Unknown models must reject immediately, touching no lane.
    serve::SubmitTicket Bogus = Srv.submit("no-such-model", Models[0].Inputs[0]);
    if (Bogus.Response.get().Status !=
        serve::ServeStatus::RejectedModelUnavailable) {
      std::fprintf(stderr, "FAIL: unknown model did not reject\n");
      return 1;
    }
    UnknownRejects = Srv.unknownModelRejects();

    serve::OpenLoopOptions LOpts;
    LOpts.RatePerSec = RatePerSec;
    LOpts.Requests = Requests;
    LOpts.Seed = 29;
    Rng Pick(23);
    Timer Wall;
    serve::runOpenLoop(
        serve::steadyClock(),
        [&](unsigned I, serve::TimeNs) {
          // Live upgrades race the traffic at the third points.
          if (I == Requests / 3 || I == 2 * Requests / 3) {
            Reg.recompileAndSwap(Models[Swaps % Models.size()].Name);
            ++Swaps;
          }
          // Halfway through, one lane takes a back-to-back burst: the
          // other lanes' requests must still complete untouched.
          if (I == Requests / 2)
            for (unsigned B = 0; B < Burst; ++B)
              BurstTickets.push_back(
                  Srv.submit(Models[0].Name,
                             Models[0].Inputs[B % Models[0].Inputs.size()]));

          Tagged T;
          T.Model = Pick.nextBelow(Models.size());
          T.Input = Pick.nextBelow(Models[T.Model].Inputs.size());
          Arrivals.push_back(T);
          return Srv.submit(Models[T.Model].Name,
                            Models[T.Model].Inputs[T.Input]);
        },
        LOpts, &Responses);
    // The burst's responses follow the arrivals', tagged the same way.
    for (size_t B = 0; B < BurstTickets.size(); ++B) {
      Arrivals.push_back({0, B % Models[0].Inputs.size()});
      Responses.push_back(BurstTickets[B].Response.get());
    }

    Srv.shutdown();
    WallMs = Wall.millis();
  }

  // --- Verification. ----------------------------------------------------
  std::vector<double> LatenciesMs;
  bool AllIdentical = true;
  unsigned Completed = 0, Rejected = 0;
  for (size_t I = 0; I < Responses.size(); ++I) {
    const serve::ServeResponse &R = Responses[I];
    const Tagged &T = Arrivals[I];
    ++Models[T.Model].Offered;
    if (!R.ok()) {
      ++Rejected;
      continue;
    }
    ++Completed;
    ++Models[T.Model].Ok;
    LatenciesMs.push_back(R.totalMillis());
    if (maxAbsDifference(R.Output, Models[T.Model].Reference[T.Input]) !=
        0.0f)
      AllIdentical = false;
  }
  LatencySummary Lat = summarizeLatencies(LatenciesMs);
  serve::RegistryStats RS = Reg.stats();

  for (const ModelTraffic &M : Models)
    std::printf("model %-10s %8.2f KiB: %3u/%3u ok\n", M.Name.c_str(),
                static_cast<double>(M.Bytes) / 1024.0, M.Ok, M.Offered);
  std::printf("# registry: %llu compiles (%llu plan-cache hits, %llu "
              "solves), %llu evictions, %llu swaps, %llu unavailable, "
              "peak %.2f MiB\n",
              static_cast<unsigned long long>(RS.Compiles),
              static_cast<unsigned long long>(RS.PlanCacheHits),
              static_cast<unsigned long long>(RS.Solves),
              static_cast<unsigned long long>(RS.Evictions),
              static_cast<unsigned long long>(RS.Swaps),
              static_cast<unsigned long long>(RS.Unavailable),
              static_cast<double>(RS.PeakResidentBytes) / (1024.0 * 1024.0));
  std::printf("# %u/%zu completed in %.1f ms, p50 %.2f ms, p95 %.2f ms, "
              "p99 %.2f ms\n",
              Completed, Responses.size(), WallMs, Lat.P50, Lat.P95, Lat.P99);

  // Machine-readable trajectory record.
  const char *JsonEnv = std::getenv("PRIMSEL_BENCH_JSON");
  std::string JsonPath = JsonEnv ? JsonEnv : "BENCH_fleet.json";
  if (std::FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(F,
                 "{\n  \"bench\": \"fleet_serving\",\n  \"scale\": %.3f,\n"
                 "  \"budget_bytes\": %zu,\n  \"rate_per_sec\": %.2f,\n"
                 "  \"hardware_threads\": %u,\n  \"models\": [\n",
                 Config.Scale, Budget, RatePerSec, HwThreads);
    for (size_t I = 0; I < Models.size(); ++I)
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"bytes\": %zu, \"offered\": "
                   "%u, \"ok\": %u}%s\n",
                   Models[I].Name.c_str(), Models[I].Bytes,
                   Models[I].Offered, Models[I].Ok,
                   I + 1 < Models.size() ? "," : "");
    std::fprintf(
        F,
        "  ],\n  \"completed\": %u,\n  \"rejected\": %u,\n"
        "  \"wall_ms\": %.2f,\n  \"p50_ms\": %.4f,\n  \"p95_ms\": %.4f,\n"
        "  \"p99_ms\": %.4f,\n  \"compiles\": %llu,\n"
        "  \"plan_cache_hits\": %llu,\n  \"solves\": %llu,\n"
        "  \"evictions\": %llu,\n  \"swaps\": %llu,\n"
        "  \"unavailable\": %llu,\n  \"peak_resident_bytes\": %zu,\n"
        "  \"bit_identical\": %s\n}\n",
        Completed, Rejected, WallMs, Lat.P50, Lat.P95, Lat.P99,
        static_cast<unsigned long long>(RS.Compiles),
        static_cast<unsigned long long>(RS.PlanCacheHits),
        static_cast<unsigned long long>(RS.Solves),
        static_cast<unsigned long long>(RS.Evictions),
        static_cast<unsigned long long>(RS.Swaps),
        static_cast<unsigned long long>(RS.Unavailable),
        RS.PeakResidentBytes, AllIdentical ? "true" : "false");
    std::fclose(F);
    std::printf("# wrote %s\n", JsonPath.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", JsonPath.c_str());
  }

  // --- Self-verification. -----------------------------------------------
  bool Pass = true;
  std::printf("%s mixed-fleet responses bit-identical to the sequential "
              "executor\n",
              AllIdentical ? "PASS" : "FAIL");
  Pass &= AllIdentical;

  bool BudgetOk = RS.PeakResidentBytes <= Budget && RS.Evictions >= 1 &&
                  RS.Unavailable == 0;
  std::printf("%s budget invariant: peak %.2f MiB <= budget %.2f MiB with "
              "%llu evictions and nothing shed\n",
              BudgetOk ? "PASS" : "FAIL",
              static_cast<double>(RS.PeakResidentBytes) / (1024.0 * 1024.0),
              static_cast<double>(Budget) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(RS.Evictions));
  Pass &= BudgetOk;

  bool CacheOk = RS.Solves == 0 && RS.Compiles >= 1 &&
                 RS.PlanCacheHits == RS.Compiles;
  std::printf("%s eviction costs prepare time, never a re-solve: %llu "
              "traffic-phase compiles, all plan-cache hits\n",
              CacheOk ? "PASS" : "FAIL",
              static_cast<unsigned long long>(RS.Compiles));
  Pass &= CacheOk;

  bool ConservationOk = Completed == Responses.size() && Rejected == 0 &&
                        RS.Swaps == Swaps && UnknownRejects == 1;
  std::printf("%s conservation: %u/%zu requests Ok through %u hot-swaps "
              "and a %u-request burst; unknown model rejected cleanly\n",
              ConservationOk ? "PASS" : "FAIL", Completed, Responses.size(),
              Swaps, Burst);
  Pass &= ConservationOk;

  return Pass ? 0 : 1;
}
