//===- bench/e2e/main.cpp - primsel-e2e command line ----------------------===//
//
// Part of primsel. See bench/e2e/README.md.
//
// Usage:
//   primsel-e2e [--seed N] [--seconds S] [--out FILE] [--trace DIR]
//       Run every workload, each in its own child process; with --trace,
//       also a traced run of each, and report the tracing overhead.
//   primsel-e2e --workload NAME [--seed N] [--seconds S] [--trace DIR]
//       Run one workload in this process. With --trace the run records
//       spans, probes every layer and writes DIR/NAME.trace.json.
//   primsel-e2e --self-test
//       Check the statistics and validity rules against fixtures.
//
// A single-workload run prints one `metric NAME VALUE UNIT` line per metric
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}, whose metrics are the end-to-end set, or the per-layer set
// when traced. Exit codes: 0 ok, 1 a wrong output or a failed setup, 2 bad
// usage, 3 an invalid run (no result line).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace e2e;
namespace fs = std::filesystem;

namespace {

struct Cli {
  std::string Workload;
  std::string Reference;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  std::string TraceDir;
  std::string OutPath;
  bool SelfTest = false;
};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "primsel-e2e: %s\n"
               "usage: primsel-e2e [--workload NAME] [--seed N] "
               "[--seconds S] [--trace DIR] [--out FILE]\n"
               "       primsel-e2e --self-test\n",
               Msg);
  return 2;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0' && std::isfinite(Out);
}

std::string selfPath() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0) {
    std::fprintf(stderr, "primsel-e2e: cannot resolve /proc/self/exe\n");
    std::exit(1);
  }
  Buf[N] = '\0';
  return Buf;
}

std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S)
    Out += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Out + "'";
}

/// Run this binary with \p Args; \p OnLine sees every stdout line. Returns
/// the child's exit code (-1 if it did not exit normally). pclose waits for
/// the child, so it never outlives this call.
template <class F> int runChild(const std::string &Args, F OnLine) {
  std::string Cmd = shellQuote(selfPath()) + " " + Args;
  std::FILE *P = ::popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Line[8192];
  while (std::fgets(Line, sizeof(Line), P)) {
    std::string S(Line);
    while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
      S.pop_back();
    OnLine(S);
  }
  int Status = ::pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string seedArgs(const Cli &C) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "--seed %" PRIu64 " --seconds %.17g", C.Seed,
                C.Seconds);
  return Buf;
}

//===----------------------------------------------------------------------===//
// --reference: the independent correctness reference (a child process)
//===----------------------------------------------------------------------===//

int runReference(const Cli &C) {
  const WorkloadSpec *Spec = findWorkload(C.Reference);
  if (!Spec)
    return usage("unknown workload");
  for (const auto &KV : computeReference(*Spec, C.Seed))
    std::printf("ref %s %u %016" PRIx64 "\n", KV.first.first.c_str(),
                KV.first.second, KV.second);
  return 0;
}

bool loadReference(const Cli &C, ReferenceTable &Ref) {
  char Seed[32];
  std::snprintf(Seed, sizeof(Seed), "%" PRIu64, C.Seed);
  int Code = runChild("--reference " + shellQuote(C.Workload) +
                          " --seed " + Seed,
                      [&](const std::string &L) {
                        char Model[64];
                        unsigned Index = 0;
                        uint64_t Sum = 0;
                        if (std::sscanf(L.c_str(), "ref %63s %u %" SCNx64,
                                        Model, &Index, &Sum) == 3)
                          Ref[{Model, Index}] = Sum;
                      });
  return Code == 0 && !Ref.empty();
}

//===----------------------------------------------------------------------===//
// --workload: one run
//===----------------------------------------------------------------------===//

int runOne(const Cli &C) {
  if (!findWorkload(C.Workload))
    return usage("unknown workload");
  fs::path Scratch = fs::path(selfPath()).parent_path() / "e2e-scratch";
  fs::create_directories(Scratch);

  // The reference runs first, in its own process, so its memory and CPU
  // never overlap the measured run.
  ReferenceTable Ref;
  if (!loadReference(C, Ref)) {
    std::fprintf(stderr, "primsel-e2e: reference process failed\n");
    return 1;
  }

  RunOptions Opts;
  Opts.Workload = C.Workload;
  Opts.Seed = C.Seed;
  Opts.Seconds = C.Seconds;
  Opts.Trace = !C.TraceDir.empty();
  Opts.ScratchDir = Scratch.string();
  Tracer T(Opts.Trace);
  Outcome O = runWorkload(Opts, Ref, T);

  if (Opts.Trace) {
    fs::create_directories(C.TraceDir);
    std::string Path =
        (fs::path(C.TraceDir) / (C.Workload + ".trace.json")).string();
    if (!T.write(Path)) {
      std::fprintf(stderr, "primsel-e2e: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::printf("# trace %s\n", Path.c_str());
  }

  for (const std::vector<MetricDef> *Set :
       {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricDef &D : *Set) {
      auto It = O.Metrics.find(D.Name);
      if (It != O.Metrics.end())
        std::printf("metric %s %.17g %s\n", D.Name, It->second, D.Unit);
    }
  for (const auto &KV : O.Metrics)
    if (KV.first.rfind("raw.", 0) == 0)
      std::printf("metric %s %.17g\n", KV.first.c_str(), KV.second);
  bool Correct = O.Wrong == 0;
  std::printf("outcome %d %" PRIu64 " %" PRIu64 "\n", Correct ? 1 : 0,
              O.Attempted, O.Failed);

  if (!O.Valid.ok()) {
    for (const std::string &P : O.Valid.problems())
      std::fprintf(stderr, "primsel-e2e: INVALID RUN: %s\n", P.c_str());
    return 3;
  }

  const std::vector<MetricDef> &Reported =
      Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(O.Attempted) +
                     ", \"failed\": " + std::to_string(O.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Reported.size(); ++I) {
    auto It = O.Metrics.find(Reported[I].Name);
    if (It == O.Metrics.end() || !std::isfinite(It->second)) {
      std::fprintf(stderr, "primsel-e2e: metric %s was not measured\n",
                   Reported[I].Name);
      return 1;
    }
    Json += (I ? ", " : "") + jsonString(Reported[I].Name) +
            ": {\"value\": " + jsonNumber(It->second) +
            ", \"unit\": " + jsonString(Reported[I].Unit) + "}";
  }
  std::printf("%s}}\n", Json.c_str());
  return Correct ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// No --workload: every workload, each in a child process
//===----------------------------------------------------------------------===//

struct ChildResult {
  int Code = -1;
  bool Correct = false;
  uint64_t Attempted = 0, Failed = 0;
  std::map<std::string, double> Metrics;
};

ChildResult runWorkloadChild(const Cli &C, const std::string &Name,
                             bool Traced) {
  ChildResult R;
  std::string Args = "--workload " + shellQuote(Name) + " " + seedArgs(C);
  if (Traced)
    Args += " --trace " + shellQuote(C.TraceDir);
  R.Code = runChild(Args, [&](const std::string &L) {
    std::printf("  %s\n", L.c_str());
    std::fflush(stdout);
    char Metric[128];
    double Value = 0;
    int Ok = 0;
    if (std::sscanf(L.c_str(), "metric %127s %lf", Metric, &Value) == 2)
      R.Metrics[Metric] = Value;
    else if (std::sscanf(L.c_str(), "outcome %d %" SCNu64 " %" SCNu64, &Ok,
                         &R.Attempted, &R.Failed) == 3)
      R.Correct = Ok == 1;
  });
  return R;
}

std::string metricsJson(const std::map<std::string, double> &Values,
                        const std::vector<MetricDef> &Defs) {
  std::string J = "{";
  bool First = true;
  for (const MetricDef &D : Defs) {
    auto It = Values.find(D.Name);
    if (It == Values.end())
      continue;
    J += (First ? "" : ", ") + jsonString(D.Name) + ": {\"value\": " +
         jsonNumber(It->second) + ", \"unit\": " + jsonString(D.Unit) + "}";
    First = false;
  }
  return J + "}";
}

int runAll(const Cli &C) {
  bool Traced = !C.TraceDir.empty();
  bool AllOk = true;
  std::string Json = "{\"seed\": " + std::to_string(C.Seed) +
                     ", \"seconds\": " + jsonNumber(C.Seconds) +
                     ", \"workloads\": {";
  std::string Table;
  for (size_t W = 0; W < workloads().size(); ++W) {
    const std::string &Name = workloads()[W].Name;
    std::printf("== %s\n", Name.c_str());
    std::fflush(stdout);
    ChildResult U = runWorkloadChild(C, Name, /*Traced=*/false);
    AllOk &= U.Code == 0 && U.Correct && U.Failed == 0;
    Json += std::string(W ? ", " : "") + jsonString(Name) +
            ": {\"exit_code\": " + std::to_string(U.Code) +
            ", \"correct\": " + (U.Correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(U.Attempted) +
            ", \"failed\": " + std::to_string(U.Failed) +
            ", \"metrics\": " + metricsJson(U.Metrics, endToEndMetrics());
    for (const MetricDef &D : endToEndMetrics()) {
      char Row[160];
      auto It = U.Metrics.find(D.Name);
      std::snprintf(Row, sizeof(Row), "%-22s %-16s %14.4f %s\n", Name.c_str(),
                    D.Name, It == U.Metrics.end() ? NAN : It->second, D.Unit);
      Table += Row;
    }
    if (Traced) {
      ChildResult T = runWorkloadChild(C, Name, /*Traced=*/true);
      AllOk &= T.Code == 0 && T.Correct && T.Failed == 0;
      std::map<std::string, double> Overhead;
      for (const MetricDef &D : endToEndMetrics())
        if (T.Metrics.count(D.Name) && U.Metrics.count(D.Name))
          Overhead[D.Name] = T.Metrics[D.Name] - U.Metrics[D.Name];
      Json += ", \"traced\": {\"exit_code\": " + std::to_string(T.Code) +
              ", \"metrics\": " + metricsJson(T.Metrics, perLayerMetrics()) +
              "}, \"tracing_overhead\": " +
              metricsJson(Overhead, endToEndMetrics());
      for (const auto &KV : Overhead) {
        char Row[160];
        std::snprintf(Row, sizeof(Row),
                      "%-22s %-16s %+14.4f (tracing overhead)\n",
                      Name.c_str(), KV.first.c_str(), KV.second);
        Table += Row;
      }
    }
    Json += "}";
  }
  Json += "}}\n";
  std::printf("== summary (seed %" PRIu64 ", %.0f s per workload)\n%s%s\n",
              C.Seed, C.Seconds, Table.c_str(),
              AllOk ? "PASS every request served, every output bit-identical "
                      "to the reference"
                    : "FAIL a workload failed, or a request or output did");
  if (!C.OutPath.empty()) {
    std::FILE *F = std::fopen(C.OutPath.c_str(), "w");
    bool Written = F && std::fputs(Json.c_str(), F) >= 0;
    if (F)
      Written = std::fclose(F) == 0 && Written;
    if (!Written) {
      std::fprintf(stderr, "primsel-e2e: cannot write %s\n", C.OutPath.c_str());
      return 1;
    }
  }
  return AllOk ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// --self-test
//===----------------------------------------------------------------------===//

int selfTest() {
  unsigned Failures = 0;
  auto Expect = [&](bool Cond, const char *What) {
    std::printf("%s %s\n", Cond ? "PASS" : "FAIL", What);
    Failures += Cond ? 0 : 1;
  };
  auto Near = [](double A, double B) { return std::fabs(A - B) < 1e-12; };

  // Nearest rank: the smallest rank R with R >= P * N.
  Expect(nearestRank(10, 0.5) == 5, "rank p50 of 10 is 5");
  Expect(nearestRank(10, 0.9) == 9, "rank p90 of 10 is 9");
  Expect(nearestRank(10, 0.95) == 10, "rank p95 of 10 is 10");
  Expect(nearestRank(10, 0.0) == 1, "rank p0 of 10 is 1");
  Expect(nearestRank(10, 1.0) == 10, "rank p100 of 10 is 10");
  Expect(nearestRank(400, 0.95) == 380, "rank p95 of 400 is 380");
  Expect(nearestRank(1000, 0.99) == 990, "rank p99 of 1000 is 990");
  std::vector<double> Ten = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  Expect(percentile(Ten, 0.5) == 5, "p50 of 1..10 is 5");
  Expect(percentile(Ten, 0.9) == 9, "p90 of 1..10 is 9");
  Expect(percentile(Ten, 0.95) == 10, "p95 of 1..10 is 10");
  Expect(std::isnan(percentile({}, 0.5)), "percentile of nothing is NaN");

  // At least ten samples beyond a reported percentile.
  Expect(samplesBeyond(200, 0.95) == 10 && percentileSupported(200, 0.95),
         "200 samples support p95 (10 beyond)");
  Expect(samplesBeyond(199, 0.95) == 9 && !percentileSupported(199, 0.95),
         "199 samples do not support p95 (9 beyond)");
  Expect(percentileSupported(1000, 0.99) && !percentileSupported(999, 0.99),
         "p99 needs 1000 samples");
  Expect(samplesBeyond(400, 0.95) == 20, "400 samples leave 20 beyond p95");

  Expect(median({3, 1, 2}) == 2, "median of 3,1,2 is 2");
  Expect(median({4, 1, 3, 2}) == 2.5, "median of 1..4 is 2.5");
  Expect(Near(geomean({1, 4}), 2), "geomean of 1,4 is 2");
  Expect(Near(geomean({2, 8}), 4), "geomean of 2,8 is 4");

  // Validity: unsupported percentiles and a late generator.
  Validity V1;
  V1.requireSupported("latency_p95_ms", 199, 0.95);
  Expect(!V1.ok(), "run with 199 samples behind p95 is invalid");
  Validity V2;
  V2.requireSupported("latency_p95_ms", 200, 0.95);
  Expect(V2.ok(), "run with 200 samples behind p95 is valid");
  std::vector<double> Lags(1000, 1.0);
  for (size_t I = 0; I < 20; ++I)
    Lags[I * 50] = 80.0;
  Validity V3;
  V3.requireLagWithinGate(percentile(Lags, 0.99));
  Expect(!V3.ok(), "20 of 1000 sends 80 ms late breaks the lag gate");
  std::vector<double> FewLate(1000, 1.0);
  for (size_t I = 0; I < 5; ++I)
    FewLate[I * 100] = 80.0;
  Validity V4;
  V4.requireLagWithinGate(percentile(FewLate, 0.99));
  Expect(V4.ok(), "5 of 1000 sends 80 ms late keep the lag gate");
  Validity V5;
  V5.requireLagWithinGate(LagGateMs);
  Expect(V5.ok(), "lag exactly at the gate is valid");
  Validity V6;
  V6.requireLagWithinGate(std::nan(""));
  Expect(!V6.ok(), "an unmeasured lag is invalid");

  std::printf("%s self-test: %u failure%s\n", Failures ? "FAIL" : "PASS",
              Failures, Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
#ifdef __GLIBC__
  // glibc's default mmap threshold (128 KiB), fixed: left dynamic, it rises
  // after large frees, and how much freed setup memory stays resident then
  // depends on allocation history, not on the program's live memory. With
  // it fixed, zoo-cold's peak RSS repeats to 0.02 %; left dynamic, it
  // flipped between 425 and 459 MiB from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Cli C;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    double N = 0;
    if (A == "--self-test")
      C.SelfTest = true;
    else if (A == "--workload" && HasValue)
      C.Workload = Argv[++I];
    else if (A == "--reference" && HasValue)
      C.Reference = Argv[++I];
    else if (A == "--trace" && HasValue)
      C.TraceDir = Argv[++I];
    else if (A == "--out" && HasValue)
      C.OutPath = Argv[++I];
    else if (A == "--seed" && HasValue && parseNumber(Argv[++I], N) &&
             N >= 0 && N == std::floor(N) && N < 1e15)
      C.Seed = static_cast<uint64_t>(N);
    else if (A == "--seconds" && HasValue && parseNumber(Argv[++I], N) &&
             N >= 1 && N <= 600)
      C.Seconds = N;
    else
      return usage(("bad argument '" + A + "'").c_str());
  }
  if (C.SelfTest)
    return selfTest();
  if (!C.Reference.empty())
    return runReference(C);
  if (!C.Workload.empty())
    return runOne(C);
  return runAll(C);
}
