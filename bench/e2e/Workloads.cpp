//===- bench/e2e/Workloads.cpp - The five end-to-end workloads ------------===//
//
// Part of primsel. See bench/e2e/README.md.
//
// Every rate, size and budget below is a fixed absolute number: none is
// derived from measured capacity, so a faster program is offered exactly
// the same load. The seed generates every input tensor, arrival schedule
// and model choice; the program only ever sees the generated inputs.
//
// The benchmark owns its load generator: one thread (the caller's), which
// sleeps until each scheduled send time and submits. Open-loop latency is
// timed from the scheduled send time, so a stall that delays later sends
// is charged to them.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "batch/Minibatch.h"
#include "engine/BatchContext.h"
#include "primitives/Registry.h"
#include "runtime/Executor.h"
#include "serve/Fleet.h"
#include "serve/Server.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

using namespace primsel;

namespace e2e {

const std::vector<WorkloadSpec> &workloads() {
  static const std::vector<WorkloadSpec> W = {
      {"mobilenet-poisson", {"mobilenet"}, false, 8},
      {"resnet18-burst", {"resnet18"}, false, 8},
      {"resnet18-burst-ladder", {"resnet18"}, true, 8},
      {"fleet-skewed", {"mobilenet", "resnet18", "googlenet"}, false, 8},
      {"zoo-cold",
       {"alexnet", "vgg-b", "vgg-c", "vgg-d", "vgg-e", "googlenet",
        "resnet18", "mobilenet"},
       false,
       1},
  };
  return W;
}

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &S : workloads())
    if (S.Name == Name)
      return &S;
  return nullptr;
}

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> M = {
      {"latency_p50_ms", "ms"},
      {"throughput_rps", "req/s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return M;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> M = {
      {"serve.latency_p95_ms", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p95", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.full_batch_frac", "fraction"},
      {"serve.max_queue_depth", "count"},
      {"serve.rejected_frac", "fraction"},
      {"serve.slo_miss_frac", "fraction"},
      {"engine.optimize_ms", "ms"},
      {"engine.compile_ms", "ms"},
      {"engine.prepare_ms", "ms"},
      {"engine.prepared_mib", "MiB"},
      {"engine.arena_mib", "MiB"},
      {"engine.plan_cache_hit_frac", "fraction"},
      {"engine.ladder_hit_frac", "fraction"},
      {"engine.fallback_batches", "count"},
      {"runtime.forward_ms", "ms"},
      {"runtime.conv_ms", "ms"},
      {"runtime.transform_frac", "fraction"},
      {"runtime.other_ms", "ms"},
      {"runtime.batch_ms_per_image", "ms"},
      {"runtime.served_vs_loop_ratio", "ratio"},
      {"primitives.conv_ms_sum", "ms"},
      {"primitives.gflops", "GFLOP/s"},
      {"primitives.share.direct", "fraction"},
      {"primitives.share.im2", "fraction"},
      {"primitives.share.kn2", "fraction"},
      {"primitives.share.winograd", "fraction"},
      {"primitives.share.fft", "fraction"},
      {"primitives.share.depthwise", "fraction"},
      {"primitives.share.other", "fraction"},
      {"cost.model_ratio_geomean", "ratio"},
      {"cost.model_ratio_spread", "ratio"},
      {"cost.runnerup_faster_nodes", "count"},
      {"cost.cache_hit_frac", "fraction"},
      {"pbqp.solve_ms", "ms"},
      {"pbqp.build_ms", "ms"},
      {"pbqp.nodes", "count"},
      {"pbqp.edges", "count"},
      {"fleet.evictions", "count"},
      {"fleet.compiles", "count"},
      {"fleet.solves", "count"},
      {"fleet.peak_resident_mib", "MiB"},
      {"loadgen.lag_p99_ms", "ms"},
      {"host.calib_ms", "ms"},
      {"host.wide_calib_ms", "ms"},
  };
  return M;
}

uint64_t checksum(const Tensor3D &T) {
  const auto *Bytes = reinterpret_cast<const unsigned char *>(T.data());
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < static_cast<size_t>(T.size()) * sizeof(float); ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ull;
  }
  return H;
}

namespace {

uint64_t splitMix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t hashName(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

/// The benchmark's own generator (independent of support/Random.h).
class SeedRng {
public:
  SeedRng(uint64_t Seed, const std::string &Stream)
      : State(Seed * 0x2545f4914f6cdd1dull ^ hashName(Stream)) {}
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(splitMix(State) >> 11) * 0x1.0p-53;
  }
  unsigned below(unsigned N) {
    return static_cast<unsigned>(uniform() * N) % N;
  }

private:
  uint64_t State;
};

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "primsel-e2e: %s\n", Msg.c_str());
  std::exit(1);
}

} // namespace

std::vector<Tensor3D> makeInputs(uint64_t Seed, const std::string &Model,
                                 const TensorShape &Shape, unsigned Count) {
  std::vector<Tensor3D> Out;
  for (unsigned I = 0; I < Count; ++I) {
    SeedRng Rng(Seed, "input/" + Model + "/" + std::to_string(I));
    Tensor3D T(Shape.C, Shape.H, Shape.W, Layout::CHW);
    for (int64_t K = 0; K < T.size(); ++K)
      T.data()[K] = static_cast<float>(2.0 * Rng.uniform() - 1.0);
    Out.push_back(std::move(T));
  }
  return Out;
}

NetworkGraph zooModel(const std::string &Name) {
  std::optional<NetworkGraph> Net = buildModel(Name, ModelScale);
  if (!Net)
    fatal("unknown model " + Name);
  return std::move(*Net);
}

EngineOptions cliEngineOptions() {
  EngineOptions E;
  E.Solver = "reduction";
  E.AmortizeWeightTransforms = true;
  E.ExecThreadCandidates = {1};
  return E;
}

Toolchain::Toolchain(bool Batched, const EngineOptions &Options)
    : Lib(std::make_unique<PrimitiveLibrary>(Batched ? buildBatchedLibrary()
                                                     : buildFullLibrary())),
      Costs(std::make_unique<AnalyticCostProvider>(
          *Lib, MachineProfile::haswell(), 1)),
      Eng(std::make_unique<Engine>(*Lib, *Costs, Options)) {}

ReferenceTable computeReference(const WorkloadSpec &Spec, uint64_t Seed) {
  ReferenceTable Ref;
  for (const std::string &Model : Spec.Models) {
    Toolchain TC(Spec.BatchedLibrary, cliEngineOptions());
    NetworkGraph Net = zooModel(Model);
    SelectionResult R = TC.Eng->optimize(Net);
    if (R.Plan.empty())
      fatal("reference selection failed for " + Model);
    Executor Seq(Net, R.Plan, *TC.Lib);
    std::vector<Tensor3D> In =
        makeInputs(Seed, Model, Net.node(0).OutShape, Spec.DistinctInputs);
    for (unsigned I = 0; I < In.size(); ++I) {
      Seq.run(In[I]);
      Ref[{Model, I}] = checksum(Seq.networkOutput());
    }
  }
  return Ref;
}

void Outcome::check(const std::string &Model, unsigned Input,
                    const Tensor3D &Out, const ReferenceTable &Ref) {
  ++Attempted;
  auto It = Ref.find({Model, Input});
  if (It == Ref.end() || It->second != checksum(Out))
    fail(/*WrongResult=*/true);
}

namespace {

constexpr double MiB = 1024.0 * 1024.0;
/// Setups per run; setup_s is their median.
constexpr unsigned SetupReps = 5;
/// Requests per burst, and the fewest bursts a burst run makes.
constexpr unsigned BurstSize = 120;
constexpr unsigned MinBursts = 3;
/// Kernel repetitions per host measurement (the median is used).
constexpr unsigned SingleReps = 5, WideReps = 9;
/// zoo-cold: the fewest timed forward passes per model.
constexpr unsigned MinZooPasses = 5;
/// Open loop: the generator times a host kernel at most every GapSampleUs,
/// only when the next send is more than GapIdleUs away, and scales each
/// request by the median of the GapNearest samples nearest its send.
constexpr double GapSampleUs = 25000.0, GapIdleUs = 6000.0;
constexpr size_t GapNearest = 5;

double peakRssMiB() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// One copy of the host kernel: a 64^3 float multiply-accumulate on its own
/// 48 KiB of buffers, repeated 64 times. It stays in L1, so it measures the
/// core's arithmetic speed, which a busy neighbour on the same core takes
/// away. A 256^3 version, streaming from L2, over-reacted to neighbours'
/// cache traffic and tracked the program worse than no scaling at all.
class HostKernel {
public:
  HostKernel() : A(N * N, 1.0f), B(N * N, 0.5f), C(N * N) {}

  /// Run once; returns the time taken in ms.
  double run() {
    double T0 = nowUs();
    for (size_t Rep = 0; Rep < N; ++Rep) {
      std::fill(C.begin(), C.end(), 0.0f);
      for (size_t I = 0; I < N; ++I)
        for (size_t K = 0; K < N; ++K) {
          float AIK = A[I * N + K];
          for (size_t J = 0; J < N; ++J)
            C[I * N + J] += AIK * B[K * N + J];
        }
      Sink = Sink + C[Rep];
    }
    return (nowUs() - T0) / 1e3;
  }

private:
  static constexpr size_t N = 64;
  std::vector<float> A, B, C;
  volatile float Sink = 0.0f;
};

/// Host-speed probe. The shared host this benchmark was calibrated on
/// slows by up to 2x for seconds to minutes at a time (other guests on the
/// same cores), and the program slows with it. Steps the benchmark can time
/// beside a fixed kernel of its own, with the program idle, are reported
/// scaled to the reference speed at which that kernel takes its quiet-host
/// time; raw values are printed beside them.
///  - Single-threaded steps (every setup, every zoo-cold forward pass) use
///    one kernel. Over eight minutes of single-thread resnet18, mobilenet
///    and vgg-b passes interleaved with it, the ratio of pass to kernel
///    varied with a coefficient of variation of 0.04-0.05, against
///    0.08-0.09 for the passes alone.
///  - Bursts keep every vCPU busy, so they use one kernel per vCPU at once,
///    and take the mean of the kernels' own durations: the average speed of
///    the vCPUs with all of them loaded.
///  - Open-loop requests use single kernels the generator times in its idle
///    gaps, nearest each request's send: the host's speed changed within a
///    run, and one scale per run tracked latency no better than none.
class HostProbe {
public:
  /// About each measurement's median on the calibration host when quiet
  /// (a 4-vCPU KVM guest on an AVX-512 Xeon; this directory's Release
  /// build).
  static constexpr double SingleRefMs = 1.6;
  static constexpr double WideRefMs = 2.0;

  HostProbe()
      : Width(std::max(1u, std::thread::hardware_concurrency())),
        Kernels(Width), HelperMs(Width) {
    for (unsigned I = 1; I < Width; ++I)
      Helpers.emplace_back([this, I] { helperLoop(I); });
  }
  ~HostProbe() {
    {
      std::lock_guard<std::mutex> G(Mutex);
      Stop = true;
    }
    Wake.notify_all();
    for (std::thread &T : Helpers)
      T.join();
  }
  HostProbe(const HostProbe &) = delete;
  HostProbe &operator=(const HostProbe &) = delete;

  /// Median of \p Reps single-kernel runs, in ms.
  double single(unsigned Reps) {
    std::vector<double> Ms = repeat(Reps, [this] { return Kernels[0].run(); });
    SingleMs.insert(SingleMs.end(), Ms.begin(), Ms.end());
    return median(Ms);
  }
  /// Median of \p Reps runs of one kernel per vCPU at once, each run
  /// measured as the mean of its kernels' durations, in ms.
  double wide(unsigned Reps) {
    return median(repeat(Reps, [this] { return runWide(); }));
  }
  /// A time \p Ms measured beside kernel time \p KernelMs, at the speed
  /// where that kernel takes \p RefMs.
  static double atRef(double Ms, double KernelMs, double RefMs) {
    return Ms * RefMs / KernelMs;
  }
  /// Median of every single-kernel run so far.
  double singleMs() const { return median(SingleMs); }

private:
  template <class F>
  static std::vector<double> repeat(unsigned Reps, F &&Measure) {
    std::vector<double> Ms;
    for (unsigned Rep = 0; Rep < Reps; ++Rep)
      Ms.push_back(Measure());
    return Ms;
  }

  double runWide() {
    {
      std::lock_guard<std::mutex> G(Mutex);
      ++Generation;
      Pending = Width - 1;
    }
    Wake.notify_all();
    double Sum = Kernels[0].run();
    std::unique_lock<std::mutex> L(Mutex);
    Done.wait(L, [this] { return Pending == 0; });
    for (unsigned I = 1; I < Width; ++I)
      Sum += HelperMs[I];
    return Sum / Width;
  }

  void helperLoop(unsigned I) {
    uint64_t Seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> L(Mutex);
        Wake.wait(L, [&] { return Stop || Generation != Seen; });
        if (Stop)
          return;
        Seen = Generation;
      }
      double Ms = Kernels[I].run();
      std::lock_guard<std::mutex> G(Mutex);
      HelperMs[I] = Ms;
      if (--Pending == 0)
        Done.notify_one();
    }
  }

  const unsigned Width;
  std::vector<HostKernel> Kernels;
  std::vector<double> SingleMs;
  std::mutex Mutex; ///< guards Generation, Pending, Stop, HelperMs
  std::vector<double> HelperMs;
  std::condition_variable Wake, Done;
  uint64_t Generation = 0;
  unsigned Pending = 0;
  bool Stop = false;
  std::vector<std::thread> Helpers; ///< joined by the destructor
};

void sleepUntilUs(double TargetUs) {
  double Delta = TargetUs - nowUs();
  if (Delta > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(Delta));
}

/// Conditioned Poisson arrivals: Rate * Seconds send times, each uniform
/// over the window, sorted (a Poisson process given its count). Fixing
/// the count keeps the sample size, and so the supported percentiles, the
/// same on every seed. Offsets in microseconds from the window start.
std::vector<double> arrivalSchedule(SeedRng &Rng, double RatePerSec,
                                    double Seconds) {
  size_t N = static_cast<size_t>(RatePerSec * Seconds + 0.5);
  std::vector<double> Us(N);
  for (double &T : Us)
    T = Rng.uniform() * Seconds * 1e6;
  std::sort(Us.begin(), Us.end());
  return Us;
}

/// What setup built and how long the engine layer spent on it.
struct SetupStats {
  double OptimizeMs = 0, CompileMs = 0, PrepareMs = 0;
  double PreparedBytes = 0, ArenaBytes = 0;
  double SolveMs = 0, BuildMs = 0, Nodes = 0, Edges = 0;
  double CostQueries = 0, CostHits = 0, PlanLookups = 0, PlanHits = 0;

  void addSelection(const SelectionResult &R) {
    SolveMs += R.SolveMillis;
    BuildMs += R.BuildMillis;
    Nodes += R.NumNodes;
    Edges += R.NumEdges;
  }
  void addArtifact(const CompiledNet &CN) {
    PrepareMs += CN.prepareMillis();
    PreparedBytes += static_cast<double>(CN.preparedBytes());
    ArenaBytes += static_cast<double>(CN.memoryPlan().arenaBytes());
  }
  void addEngine(const Engine &Eng) {
    if (const CostCacheStats *C = Eng.cacheStats()) {
      CostQueries += static_cast<double>(C->queries());
      CostHits += static_cast<double>(C->hits());
    }
    if (const PlanCacheStats *P = Eng.planCacheStats()) {
      PlanLookups += static_cast<double>(P->Lookups);
      PlanHits += static_cast<double>(P->hits());
    }
  }
};

/// One request of a workload's traffic.
struct Request {
  unsigned Model = 0; ///< index into WorkloadSpec::Models
  unsigned Input = 0; ///< index into that model's input pool
  double ScheduledUs = 0, SubmitUs = 0;
  std::future<serve::ServeResponse> Future;
  serve::ServeResponse Resp;

  double lagMs() const { return (SubmitUs - ScheduledUs) / 1e3; }
  /// Scheduled send time to response: the generator's lateness plus the
  /// server's admission-to-completion time.
  double latencyMs() const { return lagMs() + Resp.totalMillis(); }
  double completionUs() const {
    return SubmitUs + static_cast<double>(Resp.TotalNs) / 1e3;
  }
};

/// The state of one workload run, shared by the helpers below.
struct Run {
  const RunOptions &Opts;
  const WorkloadSpec &Spec;
  const ReferenceTable &Ref;
  Tracer &T;
  Outcome Out;
  SetupStats Setup;
  HostProbe Host;
  /// Per setup repetition: as measured, and at the reference host speed.
  std::vector<double> SetupSeconds, SetupSecondsAtRef;
  LayerProbe Probe;
  std::vector<std::vector<Tensor3D>> Inputs; ///< per Spec.Models entry
  std::vector<Request> Served;               ///< every settled request
  /// Open loop: (time in us, ms) of single kernels the generator ran in its
  /// idle gaps, in time order.
  std::vector<std::pair<double, double>> GapKernel;

  Run(const RunOptions &O, const WorkloadSpec &S, const ReferenceTable &R,
      Tracer &Tr)
      : Opts(O), Spec(S), Ref(R), T(Tr) {
    for (const std::string &M : Spec.Models)
      Inputs.push_back(makeInputs(Opts.Seed, M,
                                  zooModel(M).node(0).OutShape,
                                  Spec.DistinctInputs));
  }

  std::map<std::string, double> &metrics() { return Out.Metrics; }
  const Tensor3D &input(const Request &Q) const {
    return Inputs[Q.Model][Q.Input];
  }

  /// Median of the GapNearest gap-kernel times nearest to \p Us.
  double gapKernelAround(double Us) const {
    size_t Hi = std::lower_bound(GapKernel.begin(), GapKernel.end(),
                                 std::make_pair(Us, 0.0)) -
                GapKernel.begin();
    size_t Lo = Hi;
    std::vector<double> Ms;
    while (Ms.size() < GapNearest && (Lo > 0 || Hi < GapKernel.size())) {
      bool TakeLow = Hi == GapKernel.size() ||
                     (Lo > 0 && Us - GapKernel[Lo - 1].first <
                                    GapKernel[Hi].first - Us);
      Ms.push_back(TakeLow ? GapKernel[--Lo].second : GapKernel[Hi++].second);
    }
    return median(Ms);
  }

  /// Time setup repetition \p Rep between two kernel measurements.
  template <class F> void timeSetup(unsigned Rep, F &&Setup) {
    double K0 = Host.single(SingleReps);
    double T0 = nowUs();
    Setup();
    double T1 = nowUs();
    double KernelMs = 0.5 * (K0 + Host.single(SingleReps));
    SetupSeconds.push_back((T1 - T0) / 1e6);
    SetupSecondsAtRef.push_back(HostProbe::atRef(
        SetupSeconds.back(), KernelMs, HostProbe::SingleRefMs));
    T.span("setup", "setup", T0, T1,
           Args().add("rep", double(Rep)).add("kernel_ms", KernelMs));
  }
};

/// Resolve every future, verify every Ok output, record request spans, and
/// move the requests into Run::Served.
void settle(Run &R, std::vector<Request> &Reqs) {
  for (Request &Q : Reqs) {
    Q.Resp = Q.Future.get();
    const std::string &Model = R.Spec.Models[Q.Model];
    if (Q.Resp.ok()) {
      R.Out.check(Model, Q.Input, Q.Resp.Output, R.Ref);
    } else {
      ++R.Out.Attempted;
      R.Out.fail(/*WrongResult=*/false);
    }
    Q.Resp.Output = Tensor3D(); // keep only the timings
    if (R.T.enabled()) {
      uint64_t Id = R.Served.size();
      double QueueEnd = Q.SubmitUs + static_cast<double>(Q.Resp.QueueNs) / 1e3;
      R.T.requestSpan("request", Id, Q.ScheduledUs, Q.completionUs(),
                      Args()
                          .add("model", Model)
                          .add("status", serve::serveStatusName(Q.Resp.Status))
                          .add("batch", double(Q.Resp.BatchSize)));
      R.T.requestSpan("scheduled", Id, Q.ScheduledUs, Q.SubmitUs);
      R.T.requestSpan("queue", Id, Q.SubmitUs, QueueEnd);
      R.T.requestSpan("exec", Id, QueueEnd, Q.completionUs());
    }
    R.Served.push_back(std::move(Q));
  }
  Reqs.clear();
}

using SubmitFn =
    std::function<std::future<serve::ServeResponse>(const Request &)>;

/// The open-loop generator: sleep until each scheduled send time, run
/// \p BeforeSend (fleet hot-swaps), submit, never waiting for a response;
/// then settle every response. Every GapSampleUs, where the next send is
/// more than GapIdleUs away, it times one single host kernel first.
void openLoop(Run &R, std::vector<Request> &Reqs,
              const std::vector<double> &ScheduleUs, const SubmitFn &Submit,
              const std::function<void(double)> &BeforeSend = nullptr) {
  double StartUs = nowUs() + 1000.0;
  double SampledUs = 0.0;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    Request &Q = Reqs[I];
    Q.ScheduledUs = StartUs + ScheduleUs[I];
    double Now = nowUs();
    if (Q.ScheduledUs - Now > GapIdleUs && Now - SampledUs > GapSampleUs) {
      SampledUs = Now;
      R.GapKernel.push_back({Now, R.Host.single(1)});
    }
    sleepUntilUs(Q.ScheduledUs);
    if (BeforeSend)
      BeforeSend(ScheduleUs[I]);
    Q.SubmitUs = nowUs();
    Q.Future = Submit(Q);
  }
  R.T.span("arrival window", "load", StartUs, nowUs(),
           Args().add("requests", double(Reqs.size())));
  settle(R, Reqs);
}

serve::BatcherStats &operator+=(serve::BatcherStats &A,
                                const serve::BatcherStats &B) {
  A.Submitted += B.Submitted;
  A.Admitted += B.Admitted;
  A.RejectedQueueFull += B.RejectedQueueFull;
  A.RejectedDeadline += B.RejectedDeadline;
  A.RejectedShutdown += B.RejectedShutdown;
  A.Batches += B.Batches;
  A.BatchedRequests += B.BatchedRequests;
  A.FullBatches += B.FullBatches;
  A.MaxQueueDepth = std::max(A.MaxQueueDepth, B.MaxQueueDepth);
  return A;
}

/// Open-loop end-to-end metrics over Run::Served: the median latency of
/// the Ok requests, each scaled by the gap kernels around its send, and
/// goodput (Ok responses within \p SloMs per second, from the first
/// scheduled send to the last response).
void reportOpenLoop(Run &R, double SloMs) {
  if (R.GapKernel.empty())
    fatal("no host-kernel sample in the arrival window");
  std::vector<double> Lat, LatAtRef;
  double First = R.Served.front().ScheduledUs, Last = First, Good = 0;
  for (const Request &Q : R.Served) {
    if (!Q.Resp.ok())
      continue;
    Lat.push_back(Q.latencyMs());
    LatAtRef.push_back(HostProbe::atRef(Lat.back(),
                                        R.gapKernelAround(Q.SubmitUs),
                                        HostProbe::SingleRefMs));
    Last = std::max(Last, Q.completionUs());
    if (Lat.back() <= SloMs)
      ++Good;
  }
  R.metrics()["latency_p50_ms"] = percentile(LatAtRef, 0.50);
  R.metrics()["raw.latency_p50_ms"] = percentile(Lat, 0.50);
  R.metrics()["throughput_rps"] = ratio(Good, (Last - First) / 1e6);
  R.Out.Valid.requireSupported("latency_p50_ms", Lat.size(), 0.50);
  R.Out.Valid.requireSupported("serve.latency_p95_ms", Lat.size(), 0.95);
  R.Out.Valid.requireLagWithinGate(R.metrics()["loadgen.lag_p99_ms"]);
}

/// The serve layer's metrics over Run::Served. \p SloMs = 0 means the
/// workload has no latency limit.
void reportServeLayer(Run &R, const serve::BatcherStats &BS, double SloMs) {
  std::vector<double> Lat, Queue, Exec, Lag;
  uint64_t Missed = 0;
  for (const Request &Q : R.Served) {
    Lag.push_back(Q.lagMs());
    if (!Q.Resp.ok()) {
      ++Missed;
      continue;
    }
    Lat.push_back(Q.latencyMs());
    if (SloMs > 0.0 && Lat.back() > SloMs)
      ++Missed;
    Queue.push_back(Q.Resp.queueMillis());
    Exec.push_back(Q.Resp.totalMillis() - Q.Resp.queueMillis());
  }
  std::map<std::string, double> &M = R.metrics();
  M["serve.latency_p95_ms"] = percentile(Lat, 0.95);
  M["serve.queue_ms_p50"] = percentile(Queue, 0.50);
  M["serve.queue_ms_p95"] = percentile(Queue, 0.95);
  M["serve.exec_ms_p50"] = percentile(Exec, 0.50);
  double Batches = double(BS.Batches);
  M["serve.batch_size_mean"] = ratio(double(BS.BatchedRequests), Batches);
  M["serve.full_batch_frac"] = ratio(double(BS.FullBatches), Batches);
  M["serve.max_queue_depth"] = double(BS.MaxQueueDepth);
  M["serve.rejected_frac"] =
      ratio(double(BS.RejectedQueueFull + BS.RejectedDeadline +
                   BS.RejectedShutdown),
            double(BS.Submitted));
  M["serve.slo_miss_frac"] = ratio(double(Missed), double(R.Served.size()));
  M["loadgen.lag_p99_ms"] = percentile(Lag, 0.99);
}

void setupSpan(Run &R, const std::string &Name, double StartUs, double EndUs,
               unsigned Rep, Args A = Args()) {
  R.T.span(Name, "setup", StartUs, EndUs, A.add("rep", double(Rep)));
}

//===----------------------------------------------------------------------===//
// Single-model serving: mobilenet-poisson, resnet18-burst(-ladder)
//===----------------------------------------------------------------------===//

/// One model deployed for serving. Members are released in reverse order,
/// so the ladder goes before the engine its compiles call into.
struct Deployment {
  std::unique_ptr<Toolchain> TC;
  std::shared_ptr<const CompiledNet> CN;
  std::shared_ptr<CompiledNetLadder> Ladder;
};

/// One setup from scratch: engine, optimize, compile. With \p WithLadder,
/// every bucket of 1/2/4/8 compiles before serving starts.
Deployment deployOnce(Run &R, unsigned Rep, bool WithLadder) {
  const std::string &Model = R.Spec.Models.front();
  Deployment D;
  SetupStats S;
  D.TC = std::make_unique<Toolchain>(R.Spec.BatchedLibrary, cliEngineOptions());
  NetworkGraph Net = zooModel(Model);
  double O0 = nowUs();
  SelectionResult Sel = D.TC->Eng->optimize(Net);
  double O1 = nowUs();
  if (Sel.Plan.empty())
    fatal("selection failed for " + Model);
  Args CompileArgs;
  if (WithLadder) {
    LadderOptions LO;
    LO.Buckets = {1, 2, 4, 8};
    LO.Background = false;
    D.Ladder = D.TC->Eng->compileLadder(Net, LO);
    if (!D.Ladder || D.Ladder->residentRungs().size() != LO.Buckets.size())
      fatal("ladder compile failed for " + Model);
    D.CN = D.Ladder->bucket(1);
    for (const CompiledNetLadder::Rung &Rung : D.Ladder->residentRungs()) {
      S.addArtifact(*Rung.Artifact);
      CompileArgs.add("bucket" + std::to_string(Rung.Bucket) + "_prepare_ms",
                      Rung.Artifact->prepareMillis());
    }
  } else {
    D.CN = D.TC->Eng->compile(Net, Sel);
    if (!D.CN)
      fatal("compile failed for " + Model);
    S.addArtifact(*D.CN);
    CompileArgs.add("prepare_ms", D.CN->prepareMillis());
  }
  double T1 = nowUs();
  S.OptimizeMs = (O1 - O0) / 1e3;
  S.CompileMs = (T1 - O1) / 1e3;
  S.addSelection(Sel);
  S.addEngine(*D.TC->Eng);
  setupSpan(R, "optimize " + Model, O0, O1, Rep,
            Args().add("solve_ms", Sel.SolveMillis));
  setupSpan(R, (WithLadder ? "compileLadder " : "compile ") + Model, O1, T1,
            Rep, CompileArgs);
  R.Setup = S;
  return D;
}

/// Set up SetupReps times, keeping the last deployment.
Deployment deploySingle(Run &R, bool WithLadder) {
  Deployment D;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    D = Deployment(); // release the previous repetition first
    R.timeSetup(Rep, [&] { D = deployOnce(R, Rep, WithLadder); });
  }
  R.T.counter("engine", {{"cost_cache_hits", R.Setup.CostHits},
                         {"cost_cache_queries", R.Setup.CostQueries}});
  return D;
}

/// mobilenet on the per-slot path, open loop at 80 req/s (Poisson).
void mobilenetPoisson(Run &R) {
  Deployment D = deploySingle(R, /*WithLadder=*/false);
  serve::ServerOptions SO;
  SO.Batch.MaxBatch = 4;
  SO.Batch.MaxDelayNs = 0;
  SO.Batch.MaxQueue = 256;
  SO.Workers = 2;
  SO.BatchThreads = 1;
  const double RatePerSec = 80.0, SloMs = 50.0;

  SeedRng Rng(R.Opts.Seed, "mobilenet-poisson");
  std::vector<double> Schedule =
      arrivalSchedule(Rng, RatePerSec, R.Opts.Seconds);
  std::vector<Request> Reqs(Schedule.size());
  for (Request &Q : Reqs)
    Q.Input = Rng.below(R.Spec.DistinctInputs);

  serve::BatcherStats BS;
  serve::ServerStats SS;
  {
    serve::Server Srv(D.CN, SO);
    openLoop(R, Reqs, Schedule, [&](const Request &Q) {
      return Srv.submit(R.input(Q)).Response;
    });
    Srv.shutdown();
    BS = Srv.batcherStats();
    SS = Srv.stats();
  }
  reportServeLayer(R, BS, SloMs);
  reportOpenLoop(R, SloMs);
  R.metrics()["engine.fallback_batches"] = double(SS.FallbackBatches);
  R.T.counter("serve", {{"batches", double(BS.Batches)},
                        {"max_queue_depth", double(BS.MaxQueueDepth)}});

  if (R.Opts.Trace) {
    R.Probe.probeArtifact("mobilenet", D.CN, *D.TC->Costs, R.Inputs[0], R.Ref,
                          R.Out, R.T);
    R.Probe.probeBatch("mobilenet", D.CN, 1, R.Inputs[0], R.Ref, R.Out, R.T);
  }
}

/// resnet18 bursts on the per-slot path or through the batch ladder:
/// BurstSize requests submitted at once and drained, repeated until the
/// run's seconds are used (at least MinBursts times), with the wide host
/// kernel timed between bursts. Each burst's median latency (from its send
/// time) and drain rate are scaled by the kernel around it; the run
/// reports the medians over bursts.
void resnet18Burst(Run &R, bool WithLadder) {
  Deployment D = deploySingle(R, WithLadder);
  serve::ServerOptions SO;
  SO.Batch.MaxBatch = 8;
  SO.Batch.MaxDelayNs = 2 * serve::nsPerMs;
  SO.Batch.MaxQueue = 2048;
  SO.Workers = 2;
  SO.BatchThreads = 2;
  SO.Ladder = D.Ladder;
  LadderStats LadderBefore = WithLadder ? D.Ladder->stats() : LadderStats();

  SeedRng Rng(R.Opts.Seed, R.Spec.Name);
  std::vector<double> Latency, Rate, RawLatency, RawRate;
  serve::BatcherStats BS;
  serve::ServerStats SS;
  {
    serve::Server Srv(D.CN, SO);
    double KernelMs = R.Host.wide(WideReps);
    double Begin = nowUs();
    while (Rate.size() < MinBursts || nowUs() - Begin < R.Opts.Seconds * 1e6) {
      std::vector<Request> Burst(BurstSize);
      double T0 = nowUs();
      for (Request &Q : Burst) {
        Q.Input = Rng.below(R.Spec.DistinctInputs);
        Q.ScheduledUs = T0;
        Q.SubmitUs = nowUs();
        Q.Future = Srv.submit(R.input(Q)).Response;
      }
      size_t First = R.Served.size();
      settle(R, Burst);
      std::vector<double> Lat;
      double Drained = T0;
      for (size_t I = First; I < R.Served.size(); ++I)
        if (R.Served[I].Resp.ok()) {
          Lat.push_back(R.Served[I].latencyMs());
          Drained = std::max(Drained, R.Served[I].completionUs());
        }
      R.Out.Valid.requireSupported("latency_p50_ms", Lat.size(), 0.50);
      RawLatency.push_back(percentile(Lat, 0.50));
      RawRate.push_back(ratio(double(Lat.size()), (Drained - T0) / 1e6));
      double KernelAfter = R.Host.wide(WideReps);
      double Around = 0.5 * (KernelMs + KernelAfter);
      KernelMs = KernelAfter;
      Latency.push_back(
          HostProbe::atRef(RawLatency.back(), Around, HostProbe::WideRefMs));
      // A rate: scaled by the inverse of a time's factor.
      Rate.push_back(RawRate.back() * Around / HostProbe::WideRefMs);
      R.T.span("burst", "load", T0, Drained,
               Args()
                   .add("throughput_rps", RawRate.back())
                   .add("wide_kernel_ms", Around));
    }
    Srv.shutdown();
    BS = Srv.batcherStats();
    SS = Srv.stats();
  }
  reportServeLayer(R, BS, /*SloMs=*/0.0);
  R.Out.Valid.requireSupported("serve.latency_p95_ms", R.Served.size(), 0.95);
  std::map<std::string, double> &M = R.metrics();
  M["latency_p50_ms"] = median(Latency);
  M["raw.latency_p50_ms"] = median(RawLatency);
  M["throughput_rps"] = median(Rate);
  M["raw.throughput_rps"] = median(RawRate);
  M["engine.fallback_batches"] = double(SS.FallbackBatches);
  if (WithLadder) {
    LadderStats LS = D.Ladder->stats();
    double Hits = double(LS.Hits - LadderBefore.Hits);
    double Misses = double(LS.Misses - LadderBefore.Misses);
    M["engine.ladder_hit_frac"] = ratio(Hits, Hits + Misses);
  }
  R.T.counter("serve", {{"batches", double(BS.Batches)},
                        {"full_batches", double(BS.FullBatches)},
                        {"fallback_batches", double(SS.FallbackBatches)}});

  if (R.Opts.Trace) {
    R.Probe.probeArtifact("resnet18", D.CN, *D.TC->Costs, R.Inputs[0], R.Ref,
                          R.Out, R.T);
    if (WithLadder)
      R.Probe.probeBatch("resnet18", D.Ladder->bucket(8), 8, R.Inputs[0],
                         R.Ref, R.Out, R.T);
    else
      R.Probe.probeBatch("resnet18", D.CN, 1, R.Inputs[0], R.Ref, R.Out, R.T);
  }
}

//===----------------------------------------------------------------------===//
// fleet-skewed
//===----------------------------------------------------------------------===//

/// The fleet's engine and registry; the registry goes first on release.
struct FleetDeployment {
  std::unique_ptr<Toolchain> TC;
  std::unique_ptr<serve::ModelRegistry> Reg;
};

/// The fleet's warm order: every model is solved once (the plan cache then
/// serves every readmission), leaving resnet18 + mobilenet resident.
const char *const FleetWarmOrder[] = {"googlenet", "resnet18", "mobilenet"};

/// One fleet setup from scratch: engine, registry, warm-up.
FleetDeployment deployFleetOnce(Run &R, unsigned Rep) {
  FleetDeployment D;
  SetupStats S;
  EngineOptions EO = cliEngineOptions();
  EO.CachePlans = true; // readmissions and swaps must never re-solve
  D.TC = std::make_unique<Toolchain>(false, EO);
  serve::RegistryOptions RO;
  RO.MemBudgetBytes = static_cast<size_t>(90 * MiB);
  RO.ArenaSlabsPerModel = 2; // one per slot of a MaxBatch-2 lane
  D.Reg = std::make_unique<serve::ModelRegistry>(*D.TC->Eng, RO);
  for (const std::string &M : R.Spec.Models)
    D.Reg->addModel(M, zooModel(M));
  for (const std::string M : FleetWarmOrder) {
    double O0 = nowUs();
    SelectionResult Sel = D.TC->Eng->optimize(*D.Reg->graphOf(M));
    double O1 = nowUs();
    std::shared_ptr<const CompiledNet> CN = D.Reg->acquire(M);
    double O2 = nowUs();
    if (Sel.Plan.empty() || !CN)
      fatal("fleet warm-up failed for " + M);
    S.OptimizeMs += (O1 - O0) / 1e3;
    S.CompileMs += (O2 - O1) / 1e3;
    S.addSelection(Sel);
    S.addArtifact(*CN);
    setupSpan(R, "optimize " + M, O0, O1, Rep);
    setupSpan(R, "acquire " + M, O1, O2, Rep,
              Args().add("prepare_ms", CN->prepareMillis()));
  }
  R.Setup = S;
  return D;
}

/// Three models behind one 90 MiB registry budget: mobilenet plus resnet18
/// fit, googlenet beside resnet18 does not, so cold requests evict and
/// readmit through the plan cache on the request path. Open loop at
/// 40 req/s split 70/20/10, with two hot-swaps of mobilenet.
void fleetSkewed(Run &R) {
  const double RatePerSec = 40.0, SloMs = 250.0;
  FleetDeployment D;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    D = FleetDeployment();
    R.timeSetup(Rep, [&] { D = deployFleetOnce(R, Rep); });
  }
  serve::ModelRegistry &Reg = *D.Reg;
  serve::RegistryStats Before = Reg.stats();

  serve::FleetOptions FO;
  FO.Batch.MaxBatch = 2;
  FO.Batch.MaxDelayNs = 0;
  FO.Batch.MaxQueue = 256;
  FO.WorkersPerModel = 1;
  FO.BatchThreads = 1;

  SeedRng Rng(R.Opts.Seed, "fleet-skewed");
  std::vector<double> Schedule =
      arrivalSchedule(Rng, RatePerSec, R.Opts.Seconds);
  // The 70/20/10 mix over Spec.Models (mobilenet, resnet18, googlenet) is
  // exact in every block of ten requests; the seed orders each block.
  std::vector<Request> Reqs(Schedule.size());
  const unsigned Block[10] = {0, 0, 0, 0, 0, 0, 0, 1, 1, 2};
  for (size_t B = 0; B < Reqs.size(); B += 10) {
    unsigned Order[10];
    std::copy(Block, Block + 10, Order);
    for (unsigned I = 9; I > 0; --I)
      std::swap(Order[I], Order[Rng.below(I + 1)]);
    for (size_t I = B; I < std::min(Reqs.size(), B + 10); ++I) {
      Reqs[I].Model = Order[I - B];
      Reqs[I].Input = Rng.below(R.Spec.DistinctInputs);
    }
  }

  // The hot-swaps at 1/3 and 2/3 of the window run off the generator
  // thread: a swap waits for any readmission compile holding the
  // registry's engine, and sends must stay on schedule meanwhile.
  struct SwapResult {
    bool Ok;
    double StartUs, EndUs;
  };
  std::vector<std::future<SwapResult>> Swaps;
  const double WindowUs = R.Opts.Seconds * 1e6;
  serve::BatcherStats BS;
  uint64_t Fallback = 0;
  {
    serve::FleetServer Srv(Reg, FO);
    openLoop(
        R, Reqs, Schedule,
        [&](const Request &Q) {
          return Srv.submit(R.Spec.Models[Q.Model], R.input(Q)).Response;
        },
        [&](double OffsetUs) {
          if (Swaps.size() >= 2 ||
              OffsetUs < WindowUs * double(Swaps.size() + 1) / 3.0)
            return;
          Swaps.push_back(std::async(std::launch::async, [&Reg] {
            double S0 = nowUs();
            bool Ok = Reg.recompileAndSwap("mobilenet");
            return SwapResult{Ok, S0, nowUs()};
          }));
        });
    for (std::future<SwapResult> &F : Swaps) {
      SwapResult S = F.get();
      R.T.span("recompileAndSwap mobilenet", "fleet", S.StartUs, S.EndUs);
      ++R.Out.Attempted;
      if (!S.Ok)
        R.Out.fail(/*WrongResult=*/false);
    }
    Srv.shutdown();
    for (const std::string &M : R.Spec.Models) {
      BS += Srv.batcherStats(M);
      Fallback += Srv.laneStats(M).Exec.FallbackBatches;
    }
  }
  reportServeLayer(R, BS, SloMs);
  reportOpenLoop(R, SloMs);
  serve::RegistryStats After = Reg.stats();
  std::map<std::string, double> &M = R.metrics();
  M["engine.fallback_batches"] = double(Fallback);
  M["fleet.evictions"] = double(After.Evictions - Before.Evictions);
  M["fleet.compiles"] = double(After.Compiles - Before.Compiles);
  M["fleet.solves"] = double(After.Solves - Before.Solves);
  M["fleet.peak_resident_mib"] = double(After.PeakResidentBytes) / MiB;
  R.Setup.addEngine(*D.TC->Eng); // cost and plan caches after serving
  R.T.counter("fleet", {{"evictions", M["fleet.evictions"]},
                        {"compiles", M["fleet.compiles"]},
                        {"solves", M["fleet.solves"]}});

  if (R.Opts.Trace)
    for (unsigned I = 0; I < R.Spec.Models.size(); ++I) {
      const std::string &Model = R.Spec.Models[I];
      std::shared_ptr<const CompiledNet> CN = Reg.acquire(Model);
      if (!CN)
        fatal("probe could not acquire " + Model);
      R.Probe.probeArtifact(Model, CN, *D.TC->Costs, R.Inputs[I], R.Ref,
                            R.Out, R.T);
      R.Probe.probeBatch(Model, CN, 1, R.Inputs[I], R.Ref, R.Out, R.T);
    }
}

//===----------------------------------------------------------------------===//
// zoo-cold
//===----------------------------------------------------------------------===//

/// The paper's own measurement, one model at a time: a cold optimize +
/// compile into an empty plan-cache directory, a second engine on that
/// directory (a plan-cache hit that must return the same plan), then one
/// warm-up and timed forward passes on one context for an equal share of
/// the run's seconds (at least MinZooPasses each). Setup and every pass
/// are timed beside the single host kernel; setup_s is the sum over
/// models.
void zooCold(Run &R) {
  namespace fs = std::filesystem;
  const double ShareUs = R.Opts.Seconds * 1e6 / double(R.Spec.Models.size());
  std::vector<double> RawMedians, RefMedians, Gaps;
  double SetupS = 0, SetupSAtRef = 0;
  for (unsigned MI = 0; MI < R.Spec.Models.size(); ++MI) {
    const std::string &Model = R.Spec.Models[MI];
    fs::path Dir = fs::path(R.Opts.ScratchDir) /
                   ("plan-cache-" + std::to_string(::getpid()) + "-" + Model);
    fs::remove_all(Dir);
    EngineOptions EO = cliEngineOptions();
    EO.PlanCacheDir = Dir.string();

    double K0 = R.Host.single(SingleReps);
    double T0 = nowUs();
    Toolchain Cold(false, EO);
    NetworkGraph Net = zooModel(Model);
    double O0 = nowUs();
    SelectionResult Sel = Cold.Eng->optimize(Net);
    double O1 = nowUs();
    if (Sel.Plan.empty())
      fatal("selection failed for " + Model);
    std::shared_ptr<const CompiledNet> CN = Cold.Eng->compile(Net, Sel);
    double T1 = nowUs();
    double K1 = R.Host.single(SingleReps);
    if (!CN)
      fatal("compile failed for " + Model);
    SetupS += (T1 - T0) / 1e6;
    SetupSAtRef += HostProbe::atRef((T1 - T0) / 1e6, 0.5 * (K0 + K1),
                                    HostProbe::SingleRefMs);
    R.Setup.OptimizeMs += (O1 - O0) / 1e3;
    R.Setup.CompileMs += (T1 - O1) / 1e3;
    R.Setup.addSelection(Sel);
    R.Setup.addArtifact(*CN);
    R.Setup.addEngine(*Cold.Eng);
    setupSpan(R, "optimize " + Model, O0, O1, 0,
              Args().add("solve_ms", Sel.SolveMillis));
    setupSpan(R, "compile " + Model, O1, T1, 0,
              Args().add("prepare_ms", CN->prepareMillis()));

    double W0 = nowUs();
    Toolchain Warm(false, EO);
    SelectionResult Again = Warm.Eng->optimize(Net);
    R.T.span("plan-cache reacquire " + Model, "engine", W0, nowUs(),
             Args().add("hit", double(Again.PlanCacheHit)));
    R.Setup.addEngine(*Warm.Eng);
    ++R.Out.Attempted;
    if (!Again.PlanCacheHit || Again.Plan.ConvPrim != Sel.Plan.ConvPrim ||
        Again.Plan.OutLayout != Sel.Plan.OutLayout)
      R.Out.fail(/*WrongResult=*/true);

    const std::vector<Tensor3D> &Inputs = R.Inputs[MI];
    ExecutionContextOptions CtxOpts;
    CtxOpts.UseArena = true;
    std::unique_ptr<ExecutionContext> Ctx = CN->newContext(CtxOpts);
    Ctx->run(Inputs[0]);
    R.Out.check(Model, 0, Ctx->networkOutput(), R.Ref);
    std::vector<double> Ms, MsAtRef;
    double Begin = nowUs();
    while (Ms.size() < MinZooPasses || nowUs() - Begin < ShareUs) {
      unsigned In = static_cast<unsigned>(Ms.size() % Inputs.size());
      double KernelMs = R.Host.single(1);
      double S0 = nowUs();
      Ctx->run(Inputs[In]);
      double S1 = nowUs();
      R.Out.check(Model, In, Ctx->networkOutput(), R.Ref);
      Ms.push_back((S1 - S0) / 1e3);
      MsAtRef.push_back(
          HostProbe::atRef(Ms.back(), KernelMs, HostProbe::SingleRefMs));
      R.T.span("forward " + Model, "run", S0, S1,
               Args().add("kernel_ms", KernelMs));
      // The closed loop's own time between passes (the output check).
      Gaps.push_back((nowUs() - S1) / 1e3);
    }
    RawMedians.push_back(median(Ms));
    RefMedians.push_back(median(MsAtRef));

    if (R.Opts.Trace) {
      R.Probe.probeArtifact(Model, CN, *Cold.Costs, Inputs, R.Ref, R.Out,
                            R.T);
      R.Probe.probeBatch(Model, CN, 1, Inputs, R.Ref, R.Out, R.T);
    }
    fs::remove_all(Dir);
  }
  std::map<std::string, double> &M = R.metrics();
  // Forward passes per second when serving the zoo round-robin, one pass
  // of each model in turn.
  auto RoundRobinRate = [](const std::vector<double> &MedianMs) {
    double Sum = 0;
    for (double X : MedianMs)
      Sum += X;
    return 1000.0 * double(MedianMs.size()) / Sum;
  };
  M["latency_p50_ms"] = geomean(RefMedians);
  M["raw.latency_p50_ms"] = geomean(RawMedians);
  M["throughput_rps"] = RoundRobinRate(RefMedians);
  M["raw.throughput_rps"] = RoundRobinRate(RawMedians);
  M["loadgen.lag_p99_ms"] = percentile(Gaps, 0.99);
  R.SetupSeconds = {SetupS};
  R.SetupSecondsAtRef = {SetupSAtRef};
}

} // namespace

Outcome runWorkload(const RunOptions &Opts, const ReferenceTable &Ref,
                    Tracer &T) {
  const WorkloadSpec *Spec = findWorkload(Opts.Workload);
  if (!Spec)
    fatal("unknown workload " + Opts.Workload);
  Run R(Opts, *Spec, Ref, T);
  if (Spec->Name == "mobilenet-poisson")
    mobilenetPoisson(R);
  else if (Spec->Name == "resnet18-burst")
    resnet18Burst(R, /*WithLadder=*/false);
  else if (Spec->Name == "resnet18-burst-ladder")
    resnet18Burst(R, /*WithLadder=*/true);
  else if (Spec->Name == "fleet-skewed")
    fleetSkewed(R);
  else
    zooCold(R);

  std::map<std::string, double> &M = R.metrics();
  M["setup_s"] = median(R.SetupSecondsAtRef);
  M["raw.setup_s"] = median(R.SetupSeconds);
  M["peak_rss_mib"] = peakRssMiB();
  M["host.calib_ms"] = R.Host.singleMs();
  // Every workload reports the wide kernel; the bursts also scale by it.
  M["host.wide_calib_ms"] = R.Host.wide(WideReps);
  const SetupStats &S = R.Setup;
  M["engine.optimize_ms"] = S.OptimizeMs;
  M["engine.compile_ms"] = S.CompileMs;
  M["engine.prepare_ms"] = S.PrepareMs;
  M["engine.prepared_mib"] = S.PreparedBytes / MiB;
  M["engine.arena_mib"] = S.ArenaBytes / MiB;
  M["engine.plan_cache_hit_frac"] = ratio(S.PlanHits, S.PlanLookups);
  M["cost.cache_hit_frac"] = ratio(S.CostHits, S.CostQueries);
  M["pbqp.solve_ms"] = S.SolveMs;
  M["pbqp.build_ms"] = S.BuildMs;
  M["pbqp.nodes"] = S.Nodes;
  M["pbqp.edges"] = S.Edges;
  if (Opts.Trace) {
    R.Probe.report(M);
    // Served execution time over the tight-loop forward pass, per model.
    std::map<unsigned, std::vector<double>> ExecByModel;
    for (const Request &Q : R.Served)
      if (Q.Resp.ok())
        ExecByModel[Q.Model].push_back(Q.Resp.totalMillis() -
                                       Q.Resp.queueMillis());
    std::vector<double> Ratios;
    for (const auto &KV : ExecByModel)
      Ratios.push_back(percentile(KV.second, 0.5) /
                       R.Probe.ForwardByModel.at(Spec->Models[KV.first]));
    if (!Ratios.empty())
      M["runtime.served_vs_loop_ratio"] = geomean(Ratios);
  }
  // Layers a workload does not exercise read 0: the ladder and the fleet
  // outside their workloads, the serve layer on zoo-cold.
  for (const char *Name :
       {"engine.ladder_hit_frac", "fleet.evictions", "fleet.compiles",
        "fleet.solves", "fleet.peak_resident_mib", "serve.latency_p95_ms",
        "serve.queue_ms_p50", "serve.queue_ms_p95", "serve.exec_ms_p50",
        "serve.batch_size_mean", "serve.full_batch_frac",
        "serve.max_queue_depth", "serve.rejected_frac", "serve.slo_miss_frac",
        "engine.fallback_batches", "runtime.served_vs_loop_ratio"})
    M.emplace(Name, 0.0);
  return std::move(R.Out);
}

} // namespace e2e
