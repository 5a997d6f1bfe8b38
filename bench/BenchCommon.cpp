//===- bench/BenchCommon.cpp ----------------------------------------------===//

#include "BenchCommon.h"

#include "engine/Engine.h"
#include "gemm/MicroKernel.h"
#include "support/Parse.h"
#include "support/Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>

using namespace primsel;
using namespace primsel::bench;

namespace {

[[noreturn]] void badKnob(const char *Var, const char *Val,
                          const char *Expected) {
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", Var, Expected,
               Val);
  std::exit(2);
}

unsigned countKnob(const char *Var, unsigned Default) {
  const char *Val = std::getenv(Var);
  if (!Val)
    return Default;
  unsigned Count = 0;
  if (!parseCount(Val, Count, std::numeric_limits<unsigned>::max()))
    badKnob(Var, Val, "a positive integer");
  return Count;
}

std::string quote(const std::string &Text) {
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Esc[8];
      std::snprintf(Esc, sizeof(Esc), "\\u%04x", C);
      Out += Esc;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// The first "model name" in /proc/cpuinfo, or "unknown".
std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Colon = Line.find(':');
    if (Line.rfind("model name", 0) != 0 || Colon == std::string::npos)
      continue;
    size_t Begin = Line.find_first_not_of(" \t", Colon + 1);
    return Begin == std::string::npos ? "unknown" : Line.substr(Begin);
  }
  return "unknown";
}

/// What a record's timings were measured on. The tier is the active one,
/// so it reflects a PRIMSEL_SIMD cap.
JsonObject hostDescriptor() {
  return JsonObject()
      .set("cpu_model", cpuModel())
      .set("simd_tier",
           gemm::simdTierName(gemm::activeMicroKernel().Tier))
      .set("hardware_threads", std::thread::hardware_concurrency());
}

} // namespace

BenchConfig BenchConfig::fromEnvironment() {
  BenchConfig C;
  const char *Scale = std::getenv("PRIMSEL_SCALE");
  if (Scale && (!parseDouble(Scale, C.Scale) || !(C.Scale > 0.0)))
    badKnob("PRIMSEL_SCALE", Scale, "a positive number");
  C.Iters = countKnob("PRIMSEL_ITERS", C.Iters);
  C.Repeats = countKnob("PRIMSEL_REPEATS", C.Repeats);
  if (const char *Val = std::getenv("PRIMSEL_CACHE"))
    C.CacheDir = Val;
  return C;
}

JsonObject &JsonObject::raw(const std::string &Key, std::string Rendered) {
  Fields.push_back({Key, std::move(Rendered), {}});
  return *this;
}

JsonObject &JsonObject::set(const std::string &Key, const std::string &Value) {
  return raw(Key, quote(Value));
}

JsonObject &JsonObject::set(const std::string &Key, double Value) {
  if (!std::isfinite(Value))
    return raw(Key, "null");
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return raw(Key, Buf);
}

JsonObject &JsonObject::set(const std::string &Key,
                            const std::vector<JsonObject> &Values) {
  Field F{Key, "[", {}};
  for (const JsonObject &V : Values) {
    F.Elements.push_back(V.render());
    F.Value += (F.Elements.size() > 1 ? ", " : "") + F.Elements.back();
  }
  F.Value += "]";
  Fields.push_back(std::move(F));
  return *this;
}

std::string JsonObject::render() const {
  std::string Out = "{";
  for (const Field &F : Fields)
    Out += (Out.size() > 1 ? ", " : "") + quote(F.Key) + ": " + F.Value;
  return Out + "}";
}

std::string JsonObject::renderDocument() const {
  std::string Out = "{\n";
  for (size_t I = 0; I < Fields.size(); ++I) {
    const Field &F = Fields[I];
    Out += "  " + quote(F.Key) + ": ";
    if (F.Elements.empty()) {
      Out += F.Value;
    } else {
      Out += "[\n";
      for (size_t J = 0; J < F.Elements.size(); ++J)
        Out += "    " + F.Elements[J] +
               (J + 1 < F.Elements.size() ? ",\n" : "\n");
      Out += "  ]";
    }
    Out += I + 1 < Fields.size() ? ",\n" : "\n";
  }
  return Out + "}\n";
}

void primsel::bench::writeBenchJson(const JsonObject &Root,
                                    const char *DefaultPath) {
  const char *Env = std::getenv("PRIMSEL_BENCH_JSON");
  std::string Path = Env ? Env : DefaultPath;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
    return;
  }
  JsonObject Doc = Root;
  Doc.set("host", hostDescriptor());
  std::fputs(Doc.renderDocument().c_str(), F);
  std::fclose(F);
  std::printf("# wrote %s\n", Path.c_str());
}

CachedMeasuredProvider::CachedMeasuredProvider(const PrimitiveLibrary &Lib,
                                               const BenchConfig &Config,
                                               unsigned Threads,
                                               const std::string &Tag)
    : Path(Config.CacheDir + "/primsel-costs-" + Tag + "-t" +
           std::to_string(Threads) + "-s" +
           std::to_string(static_cast<int>(Config.Scale * 100)) + ".txt"),
      Prov(Lib, [&] {
        ProfilerOptions Opts;
        Opts.Threads = Threads;
        Opts.Repeats = Config.Repeats;
        Opts.Warmups = 1;
        return Opts;
      }()) {
  if (Prov.database().load(Path))
    std::printf("# loaded cost cache %s (%zu conv entries)\n", Path.c_str(),
                Prov.database().numConvEntries());
}

CachedMeasuredProvider::~CachedMeasuredProvider() {
  Prov.database().save(Path);
}

double primsel::bench::timeNetworkPlan(const NetworkGraph &Net,
                                       const NetworkPlan &Plan,
                                       const PrimitiveLibrary &Lib,
                                       unsigned Threads,
                                       const BenchConfig &Config) {
  Executor Exec(Net, Plan, Lib, Threads);
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(3);
  Exec.run(In); // warm-up
  SampleStats Stats;
  for (unsigned I = 0; I < Config.Iters; ++I)
    Stats.add(Exec.run(In).TotalMillis);
  return Stats.mean();
}

NetworkResult primsel::bench::runNetworkComparison(
    const std::string &ModelName, const PrimitiveLibrary &Lib,
    CostProvider &Costs, unsigned Threads, const BenchConfig &Config,
    bool Measured, const std::vector<Strategy> &Strategies,
    CostProvider *BaselineCosts, unsigned BaselineThreads) {
  NetworkResult R;
  R.Network = ModelName;
  NetworkGraph Net = *buildModel(ModelName, Config.Scale);

  // Every strategy (PBQP included) runs through the optimizer engine, so
  // one network's cost queries are paid once across all bars. Providers
  // here are frequently measuring ones, so the cache fills serially (the
  // default single-threaded engine has no pre-population pool).
  Engine Eng(Lib, Costs);
  std::unique_ptr<Engine> BaselineEng;
  if (BaselineCosts)
    BaselineEng = std::make_unique<Engine>(Lib, *BaselineCosts);

  auto Evaluate = [&](Strategy S, Engine &E, unsigned NumThreads) {
    NetworkPlan Plan = E.planFor(S, Net);
    if (Measured)
      return timeNetworkPlan(Net, Plan, Lib, NumThreads, Config);
    return E.planCost(Plan, Net);
  };

  R.Sum2DMillis =
      Evaluate(Strategy::Sum2D, BaselineEng ? *BaselineEng : Eng,
               BaselineThreads ? BaselineThreads : Threads);
  for (Strategy S : Strategies) {
    BarResult Bar;
    Bar.S = S;
    Bar.MeanMillis = Evaluate(S, Eng, Threads);
    Bar.SpeedupVsSum2D = R.Sum2DMillis / Bar.MeanMillis;
    R.Bars.push_back(Bar);
    std::printf("#   %-14s %-14s %10.3f ms  (%.2fx)\n", ModelName.c_str(),
                strategyName(S), Bar.MeanMillis, Bar.SpeedupVsSum2D);
    std::fflush(stdout);
  }
  return R;
}

void primsel::bench::printSpeedupTable(
    const std::string &Title, const std::vector<NetworkResult> &Results) {
  std::printf("\n%s\n", Title.c_str());
  std::printf("# speedup vs sum2d (higher is better)\n");
  std::printf("%-12s", "network");
  if (!Results.empty())
    for (const BarResult &Bar : Results.front().Bars)
      std::printf(" %13s", strategyName(Bar.S));
  std::printf("\n");
  for (const NetworkResult &R : Results) {
    std::printf("%-12s", R.Network.c_str());
    for (const BarResult &Bar : R.Bars)
      std::printf(" %13.2f", Bar.SpeedupVsSum2D);
    std::printf("\n");
  }
  std::fflush(stdout);
}

void primsel::bench::printAbsoluteTable(
    const std::string &Title, const std::vector<NetworkResult> &Results,
    const std::vector<Strategy> &Columns) {
  std::printf("\n%s\n", Title.c_str());
  std::printf("%-14s", "network");
  for (Strategy S : Columns)
    std::printf(" %13s", strategyName(S));
  std::printf("\n");
  for (const NetworkResult &R : Results) {
    std::printf("%-14s", R.Network.c_str());
    for (Strategy S : Columns) {
      double Millis = 0.0;
      if (S == Strategy::Sum2D) {
        Millis = R.Sum2DMillis;
      } else {
        for (const BarResult &Bar : R.Bars)
          if (Bar.S == S)
            Millis = Bar.MeanMillis;
      }
      std::printf(" %13.2f", Millis);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}
