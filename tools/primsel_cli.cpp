//===- tools/primsel_cli.cpp - primsel command-line driver ----------------===//
//
// One binary exposing the library's deployment workflow (paper §4: the
// cost tables are "tiny compared to the weight data ... making it feasible
// to produce these cost tables before deployment, and ship them with the
// trained model"). Every command drives the unified optimizer engine
// (engine/Engine.h); no selection pipeline is wired by hand here.
//
//   primsel-cli models
//       List the built-in model-zoo networks.
//   primsel-cli solvers
//       List the registered PBQP solver backends.
//   primsel-cli primitives [<model-or-file>] [--scale S]
//       List the primitive library; with a network, annotate each conv
//       layer with the routines that support it.
//   primsel-cli optimize <model-or-file> [--scale S] [--threads N]
//       [--measured] [--arm] [--costs PATH] [--strategy NAME]
//       [--solver reduction|bb|brute]
//       Solve the selection problem and print the plan, its modelled cost,
//       the solver/cache statistics, and the baseline comparison.
//       --measured profiles on this machine (persisting the cost table to
//       --costs); the default is the analytic model (--arm switches it to
//       the Cortex-A57 profile).
//   primsel-cli codegen <model-or-file> [--scale S] [--out PATH]
//       Emit the straight-line C++ program for the optimal plan (§5.2).
//   primsel-cli dump-pbqp <model-or-file> [--scale S]
//       Print the PBQP instance in the text format (pbqp/TextIO.h).
//   primsel-cli warm <model-or-file> --plan-cache DIR [...]
//       Solve once and persist the plan, so later serve/optimize runs
//       pointed at DIR skip the PBQP solve.
//   primsel-cli compile <model-or-file> [--plan-cache DIR] [...]
//       Compile-once entry point: optimize in serving mode (weight
//       transforms amortized out of the per-inference costs), build the
//       CompiledNet artifact -- weights generated, kernels packed and
//       transformed -- and report the prepare-time work requests no
//       longer pay.
//   primsel-cli serve <model-or-file> [--compiled] [--requests N]
//       [--threads N] [--parallel] [--no-arena] [--plan-cache DIR] [...]
//       Acquire a plan (cache hit or fresh solve), run N requests, report
//       mean/p50/p95/p99 latency, throughput, and arena/cache statistics.
//       With --compiled, the network is compiled once and served from
//       per-thread ExecutionContexts (--threads concurrent workers over
//       one CompiledNet); without it, every request still pays the
//       executor's per-process instantiation once at startup.
//       With --open-loop, requests instead arrive on a Poisson process at
//       --rate R per second and flow through the dynamic batcher
//       (serve/Server.h): --max-batch B and --max-delay-us U set the
//       batching policy, --max-queue Q the admission bound, and --slo-ms D
//       a per-request deadline. Implies --compiled.
//
// --amortize switches optimize/warm/serve to the serving-mode cost split
// (per-inference PBQP costs); 'compile' and 'serve --compiled' imply it.
//
// --exec-threads N adds intra-op worker counts {1, 2, ..., N} as an extra
// PBQP dimension: each conv node is annotated with its chosen count (the
// ' tK' column in 'optimize'), and the candidate axis joins the plan-cache
// cost identity -- warm and serve must agree on it to share an entry.
// --simd scalar|avx2|avx512|native caps the GEMM micro-kernel dispatch
// tier for the whole process (numerics of a given plan are unaffected).
//
// <model-or-file> is a model-zoo name (see 'models') or a path to a
// network description in the nn/NetParser.h text format.
//
// The full command/flag reference is docs/cli.md.
//
//===----------------------------------------------------------------------===//

#include "batch/Minibatch.h"
#include "cost/AnalyticModel.h"
#include "cost/Profiler.h"
#include "engine/Engine.h"
#include "gemm/MicroKernel.h"
#include "nn/Models.h"
#include "nn/NetParser.h"
#include "pbqp/TextIO.h"
#include "runtime/Executor.h"
#include "serve/Fleet.h"
#include "serve/OpenLoop.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "transforms/Pass.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace primsel;

namespace {

struct CliOptions {
  std::string Command;
  std::string Target;
  double Scale = 0.25;
  unsigned Threads = 1;
  bool Measured = false;
  bool Arm = false;
  std::string CostsPath;
  std::string OutPath;
  std::string StrategyName;
  std::string SolverName = "reduction";
  std::string PlanCacheDir;
  unsigned Requests = 8;
  bool Parallel = false;
  bool NoArena = false;
  /// serve: compile once and serve from per-thread ExecutionContexts.
  bool Compiled = false;
  /// Serving-mode cost split (EngineOptions.AmortizeWeightTransforms);
  /// implied by 'compile' and 'serve --compiled'.
  bool Amortize = false;
  /// Graph-transform passes (-O0 = none, -O1 = the default pipeline,
  /// --passes = an explicit list). Names are validated in main() so
  /// unknown passes exit 2 with usage.
  std::vector<std::string> Passes;
  /// True when --passes was supplied, so an empty list can be rejected
  /// instead of silently degrading to -O0.
  bool SawPassList = false;
  /// --exec-threads: the widest intra-op worker count the solver may
  /// assign per conv node (thread-count PBQP dimension). 1 = the
  /// historical single-threaded formulation.
  unsigned ExecThreads = 1;
  /// --simd: force the GEMM dispatch tier ("scalar", "avx2", "avx512",
  /// "native"); empty = runtime detection (plus the PRIMSEL_SIMD env cap).
  std::string SimdName;
  /// serve --open-loop: Poisson arrivals through the dynamic batcher
  /// (implies --compiled; the batcher serves one shared CompiledNet).
  bool OpenLoop = false;
  /// --rate: mean arrivals per second of the open-loop Poisson process.
  double RatePerSec = 100.0;
  /// --slo-ms: per-request deadline (0 = none); requests that cannot make
  /// it are rejected before execution.
  double SloMs = 0.0;
  /// --max-batch: largest minibatch the batcher may form.
  unsigned MaxBatch = 4;
  /// --max-delay-us: batching window -- longest a request may wait for
  /// batch-mates before a partial batch fires.
  unsigned MaxDelayUs = 1000;
  /// --max-queue: admission bound; submits beyond it are rejected.
  unsigned MaxQueue = 64;
  /// serve --models a,b,c: fleet mode -- one ModelRegistry + FleetServer
  /// over every named model, mixed Poisson traffic (implies the batcher).
  std::vector<std::string> Models;
  /// --mem-budget M: registry budget in MiB, fractional allowed so a
  /// budget can sit strictly between one artifact and the fleet total
  /// (0 = unlimited).
  double MemBudgetMiB = 0.0;
  /// --swaps N: hot-swap a recompiled artifact N times under live fleet
  /// traffic (0 = never) -- exercises the RCU publish path end to end.
  unsigned Swaps = 0;
  /// --jit: compile the selected plan to native code through the system
  /// compiler and serve it through the same ExecutionContext interface
  /// (falls back to the interpreter, with a warning, if that fails).
  /// Implies compiled serving under 'serve' and adds the modelled
  /// jit-vs-interpreter cost dimension to selection.
  bool Jit = false;
  /// --jit-cc PATH: compiler driver for --jit (default: $PRIMSEL_CC,
  /// then 'cc').
  std::string JitCc;
  /// --batch-ladder: serve coalesced batches through the batch-bucketed
  /// plan ladder (engine/Ladder.h) -- one PBQP-solved artifact per bucket
  /// {1, 2, 4, ..., --max-batch}, real §8 minibatch plans per bucket --
  /// instead of K independent batch-1 slot runs. Implies --open-loop
  /// under single-model 'serve'; under 'serve --models' every fleet entry
  /// gets a ladder charged whole against the memory budget.
  bool BatchLadder = false;
  /// --bucket-compile bg|sync: whether missing buckets compile on the
  /// ladder's background thread while the per-slot path serves (bg, the
  /// default) or all buckets compile up front before serving starts
  /// (sync). Fleet ladders are always sync (budget accounting needs the
  /// whole ladder at once).
  std::string BucketCompile = "bg";
};

/// Split "a,b,c" into names (pass lists, fleet model lists).
std::vector<std::string> splitPassList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Parse a strictly-numeric count in [1, Max]; garbage or out-of-range
/// values must be refused, not cast.
bool parseCount(const std::string &Val, unsigned &Out, unsigned long Max) {
  if (Val.empty() || Val.find_first_not_of("0123456789") != std::string::npos)
    return false;
  // strtoul saturates on overflow, which the range check below rejects;
  // the endptr check makes the full-token requirement explicit rather
  // than relying on the character scan above alone.
  char *End = nullptr;
  unsigned long Count = std::strtoul(Val.c_str(), &End, 10);
  if (End != Val.c_str() + Val.size() || Count < 1 || Count > Max)
    return false;
  Out = static_cast<unsigned>(Count);
  return true;
}

/// Parse a strictly-numeric floating-point token. Garbage and trailing
/// junk must be refused, not truncated: an unchecked atof turned
/// '--rate 10abc' into 10 and '--slo-ms garbage' into a silent 0
/// (no deadline at all).
bool parseDouble(const std::string &Val, double &Out) {
  if (Val.empty())
    return false;
  // strtod alone is too permissive for a CLI: it accepts leading
  // whitespace, C99 hex floats ("0x1"), and "inf"/"nan". Pre-screen to
  // plain decimal notation, then let strtod verify it consumes the whole
  // token.
  bool SawDigit = false;
  for (char C : Val) {
    if (C >= '0' && C <= '9')
      SawDigit = true;
    else if (C != '.' && C != 'e' && C != 'E' && C != '+' && C != '-')
      return false;
  }
  if (!SawDigit)
    return false;
  const char *Begin = Val.c_str();
  char *End = nullptr;
  double V = std::strtod(Begin, &End);
  if (End != Begin + Val.size())
    return false;
  // Decimal overflow ("1e999") consumes the whole token but yields
  // HUGE_VAL, which would sail through positivity checks downstream.
  if (!std::isfinite(V))
    return false;
  Out = V;
  return true;
}

/// Thread counts feed ThreadPool construction: cap at 1024.
bool parseThreads(const std::string &Val, unsigned &Out) {
  return parseCount(Val, Out, 1024);
}

/// Serving request counts size a latency vector (8 bytes per request), so
/// the cap is generosity, not safety: 100M requests ~ 800 MiB of samples.
constexpr unsigned long MaxRequests = 100000000;

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> [args]    (full reference: docs/cli.md)\n"
      "  models\n"
      "  solvers\n"
      "  primitives [<model-or-file>] [--scale S]\n"
      "  optimize <model-or-file> [--scale S] [--threads N] [--measured]\n"
      "           [--arm] [--costs PATH] [--strategy NAME]\n"
      "           [--solver reduction|bb|brute] [--plan-cache DIR]\n"
      "           [-O0|-O1] [--passes LIST]\n"
      "  codegen <model-or-file> [--scale S] [--out PATH] [-O0|-O1]\n"
      "  dump-pbqp <model-or-file> [--scale S] [-O0|-O1]\n"
      "  warm <model-or-file> --plan-cache DIR [--scale S] [--threads N]\n"
      "           [--measured] [--arm] [--costs PATH] [--solver NAME]\n"
      "           [-O0|-O1] [--passes LIST] [--amortize]\n"
      "  compile <model-or-file> [--plan-cache DIR] [--scale S] [--arm]\n"
      "           [--solver NAME] [-O0|-O1] [--passes LIST]\n"
      "           [--jit] [--jit-cc PATH]\n"
      "  serve <model-or-file> [--compiled] [--requests N] [--threads N]\n"
      "           [--parallel] [--no-arena] [--plan-cache DIR] [--scale S]\n"
      "           [--arm] [--solver NAME] [-O0|-O1] [--passes LIST]\n"
      "           [--amortize] [--exec-threads N] [--jit] [--jit-cc PATH]\n"
      "           [--open-loop] [--rate R] [--slo-ms D] [--max-batch B]\n"
      "           [--max-delay-us U] [--max-queue Q]\n"
      "           [--batch-ladder] [--bucket-compile bg|sync]\n"
      "  serve --models a,b,c [--mem-budget M] [--rate R] [--requests N]\n"
      "           [--threads N] [--swaps K] [--slo-ms D] [--max-batch B]\n"
      "           [--max-delay-us U] [--max-queue Q] [--scale S]\n"
      "           [--batch-ladder] [...]\n"
      "-O0 runs no graph-transform passes (default); -O1 runs the default\n"
      "pipeline; --passes LIST runs a comma-separated list (see docs/cli.md).\n"
      "--amortize prices selection on per-inference costs (weight\n"
      "transforms amortized); 'compile' and 'serve --compiled' imply it.\n"
      "--exec-threads N adds intra-op worker counts up to N as a PBQP\n"
      "dimension (optimize/warm/compile/serve); --simd\n"
      "scalar|avx2|avx512|native forces the GEMM dispatch tier.\n"
      "serve --open-loop drives Poisson arrivals at --rate R/sec through\n"
      "the dynamic batcher (--max-batch, --max-delay-us, --max-queue,\n"
      "--slo-ms); implies --compiled.\n"
      "--batch-ladder serves coalesced batches through one PBQP-solved\n"
      "minibatch plan per batch bucket {1,2,4,...,--max-batch} (implies\n"
      "--open-loop); --bucket-compile bg compiles missing buckets in the\n"
      "background while the per-slot path serves, sync compiles all\n"
      "buckets up front.\n"
      "--jit compiles the selected plan to native code via the system\n"
      "compiler (--jit-cc PATH or $PRIMSEL_CC, default 'cc') and serves\n"
      "it; objects are cached in --plan-cache DIR; on any failure the\n"
      "interpreter serves instead. Implies --compiled under 'serve'.\n"
      "serve --models runs the multi-model fleet: one artifact registry\n"
      "under a --mem-budget M (MiB; LRU eviction, recompiles hit the\n"
      "shared plan cache), per-model batcher lanes, mixed Poisson traffic,\n"
      "and --swaps K RCU hot-swaps under load.\n",
      Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 2)
    return false;
  Opts.Command = Argv[1];
  int I = 2;
  if (I < Argc && Argv[I][0] != '-')
    Opts.Target = Argv[I++];
  for (; I < Argc; ++I) {
    // Accept both "--opt value" and "--opt=value" for every option.
    std::string Arg = Argv[I];
    std::string Inline;
    bool HasInline = false;
    if (Arg.rfind("--", 0) == 0) {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg = Arg.substr(0, Eq);
        HasInline = true;
      }
    }
    auto Next = [&](std::string &Out) {
      if (HasInline) {
        Out = Inline;
        return true;
      }
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string Val;
    if (Arg == "--scale" && Next(Val)) {
      if (!parseDouble(Val, Opts.Scale) || !(Opts.Scale > 0.0) ||
          Opts.Scale > 16.0) {
        std::fprintf(stderr,
                     "error: --scale expects a number in (0, 16], got "
                     "'%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--threads" && Next(Val)) {
      if (!parseThreads(Val, Opts.Threads)) {
        std::fprintf(stderr,
                     "error: --threads expects an integer in [1, 1024], "
                     "got '%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--measured" && !HasInline)
      Opts.Measured = true;
    else if (Arg == "--arm" && !HasInline)
      Opts.Arm = true;
    else if (Arg == "--costs" && Next(Val))
      Opts.CostsPath = Val;
    else if (Arg == "--out" && Next(Val))
      Opts.OutPath = Val;
    else if (Arg == "--strategy" && Next(Val))
      Opts.StrategyName = Val;
    else if (Arg == "--solver" && Next(Val))
      Opts.SolverName = Val;
    else if (Arg == "--plan-cache" && Next(Val))
      Opts.PlanCacheDir = Val;
    else if (Arg == "--requests" && Next(Val)) {
      // Same strictness as --threads, but steady-state serving runs are
      // the point of the compiled path, so the cap is far higher.
      unsigned Requests = 0;
      if (!parseCount(Val, Requests, MaxRequests)) {
        std::fprintf(stderr,
                     "error: --requests expects an integer in [1, %lu], "
                     "got '%s'\n",
                     MaxRequests, Val.c_str());
        return false;
      }
      Opts.Requests = Requests;
    }
    else if (Arg == "--exec-threads" && Next(Val)) {
      if (!parseThreads(Val, Opts.ExecThreads)) {
        std::fprintf(stderr,
                     "error: --exec-threads expects an integer in "
                     "[1, 1024], got '%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--simd" && Next(Val)) {
      if (Val != "scalar" && Val != "avx2" && Val != "avx512" &&
          Val != "native") {
        std::fprintf(stderr,
                     "error: --simd expects scalar|avx2|avx512|native, "
                     "got '%s'\n",
                     Val.c_str());
        return false;
      }
      Opts.SimdName = Val;
    }
    else if (Arg == "--open-loop" && !HasInline)
      Opts.OpenLoop = true;
    else if (Arg == "--batch-ladder" && !HasInline)
      Opts.BatchLadder = true;
    else if (Arg == "--bucket-compile" && Next(Val)) {
      if (Val != "bg" && Val != "sync") {
        std::fprintf(stderr,
                     "error: --bucket-compile expects bg|sync, got '%s'\n",
                     Val.c_str());
        return false;
      }
      Opts.BucketCompile = Val;
    }
    else if (Arg == "--rate" && Next(Val)) {
      if (!parseDouble(Val, Opts.RatePerSec) || !(Opts.RatePerSec > 0.0)) {
        std::fprintf(stderr,
                     "error: --rate expects a positive arrivals/sec, got "
                     "'%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--slo-ms" && Next(Val)) {
      if (!parseDouble(Val, Opts.SloMs) || Opts.SloMs < 0.0) {
        std::fprintf(stderr,
                     "error: --slo-ms expects a non-negative deadline, got "
                     "'%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--max-batch" && Next(Val)) {
      // Batch slots each own an ExecutionContext; 1024 is already absurd.
      if (!parseCount(Val, Opts.MaxBatch, 1024)) {
        std::fprintf(stderr,
                     "error: --max-batch expects an integer in [1, 1024], "
                     "got '%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--max-delay-us" && Next(Val)) {
      unsigned DelayUs = 0;
      // 0 is meaningful (no batching window), so parse it specially.
      if (Val == "0")
        Opts.MaxDelayUs = 0;
      else if (parseCount(Val, DelayUs, 60000000)) // <= 60 s
        Opts.MaxDelayUs = DelayUs;
      else {
        std::fprintf(stderr,
                     "error: --max-delay-us expects an integer in "
                     "[0, 60000000], got '%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--max-queue" && Next(Val)) {
      if (!parseCount(Val, Opts.MaxQueue, 1u << 20)) {
        std::fprintf(stderr,
                     "error: --max-queue expects an integer in [1, %u], "
                     "got '%s'\n",
                     1u << 20, Val.c_str());
        return false;
      }
    }
    else if (Arg == "--models" && Next(Val)) {
      Opts.Models = splitPassList(Val);
      if (Opts.Models.empty()) {
        std::fprintf(stderr, "error: --models expects a non-empty "
                             "comma-separated model list\n");
        return false;
      }
    }
    else if (Arg == "--mem-budget" && Next(Val)) {
      // 0 = unlimited; fractional MiB are allowed (a budget often has to
      // sit strictly between one artifact and the fleet total).
      if (!parseDouble(Val, Opts.MemBudgetMiB) || Opts.MemBudgetMiB < 0.0 ||
          Opts.MemBudgetMiB > static_cast<double>(1u << 20)) {
        std::fprintf(stderr,
                     "error: --mem-budget expects MiB in [0, %u], got "
                     "'%s'\n",
                     1u << 20, Val.c_str());
        return false;
      }
    }
    else if (Arg == "--swaps" && Next(Val)) {
      if (Val == "0")
        Opts.Swaps = 0;
      else if (!parseCount(Val, Opts.Swaps, 1000)) {
        std::fprintf(stderr,
                     "error: --swaps expects an integer in [0, 1000], got "
                     "'%s'\n",
                     Val.c_str());
        return false;
      }
    }
    else if (Arg == "--parallel" && !HasInline)
      Opts.Parallel = true;
    else if (Arg == "--no-arena" && !HasInline)
      Opts.NoArena = true;
    else if (Arg == "--compiled" && !HasInline)
      Opts.Compiled = true;
    else if (Arg == "--jit" && !HasInline)
      Opts.Jit = true;
    else if (Arg == "--jit-cc" && Next(Val))
      Opts.JitCc = Val;
    else if (Arg == "--amortize" && !HasInline)
      Opts.Amortize = true;
    else if (Arg == "-O0" && !HasInline)
      Opts.Passes.clear();
    else if (Arg == "-O1" && !HasInline)
      Opts.Passes = transforms::PassPipeline::defaultPassNames();
    else if (Arg == "--passes" && Next(Val)) {
      Opts.Passes = splitPassList(Val);
      Opts.SawPassList = true;
    }
    else {
      std::fprintf(stderr, "error: unknown or incomplete option '%s'\n",
                   Argv[I]);
      return false;
    }
  }
  return true;
}

/// Shared --solver validation for every command that builds an Engine.
bool checkSolver(const CliOptions &Opts) {
  if (pbqp::SolverRegistry::instance().contains(Opts.SolverName))
    return true;
  std::fprintf(stderr,
               "error: unknown solver backend '%s' (see 'solvers')\n",
               Opts.SolverName.c_str());
  return false;
}

/// Brute force aborts on oversized assignment spaces by contract; commands
/// that solve refuse cleanly instead. The formulation built here stays in
/// the engine's cost cache, so it is not wasted work.
bool checkBruteSpace(Engine &Eng, const NetworkGraph &Net) {
  if (Eng.options().Solver != "brute")
    return true;
  double Space = Eng.formulate(Net).G.assignmentSpace();
  double Bound = Eng.options().SolverOptions.MaxBruteForceAssignments;
  if (Space <= Bound)
    return true;
  std::fprintf(stderr,
               "error: assignment space %.3g exceeds the brute-force "
               "bound %.3g; use --solver reduction or bb\n",
               Space, Bound);
  return false;
}

/// Resolve a model-zoo name or a network-description path.
std::optional<NetworkGraph> resolveNetwork(const std::string &Target,
                                           double Scale) {
  if (std::optional<NetworkGraph> Zoo = buildModel(Target, Scale))
    return Zoo;
  if (Target == "tinychain")
    return tinyChain(static_cast<int64_t>(128 * Scale));
  if (Target == "tinydag")
    return tinyDag(static_cast<int64_t>(128 * Scale));
  NetParseResult R = parseNetworkFile(Target);
  if (!R.ok()) {
    std::fprintf(stderr, "error: '%s' is not a model name, and parsing it "
                 "as a file failed: %s (line %u)\n",
                 Target.c_str(), R.Error.c_str(), R.Line);
    return std::nullopt;
  }
  return std::move(R.Net);
}

/// True when the command runs selection on serving-mode (amortized)
/// per-inference costs: the explicit flag, the compile command, and the
/// compiled serving path (which exists to hoist the weight transforms, so
/// pricing them per-request would be self-defeating).
bool amortizeActive(const CliOptions &Opts) {
  return Opts.Amortize || Opts.Command == "compile" ||
         (Opts.Command == "serve" &&
          (Opts.Compiled || Opts.OpenLoop || Opts.Jit ||
           !Opts.Models.empty()));
}

/// The thread-candidate axis --exec-threads N describes: 1, the powers of
/// two below N, and N itself. Geometric spacing keeps the PBQP alternative
/// space small while covering the useful scaling range.
std::vector<unsigned> execThreadCandidates(unsigned Max) {
  std::vector<unsigned> C{1};
  for (unsigned T = 2; T < Max; T *= 2)
    C.push_back(T);
  if (Max > 1)
    C.push_back(Max);
  return C;
}

/// The engine configuration the CLI options describe.
EngineOptions engineOptions(const CliOptions &Opts) {
  EngineOptions EOpts;
  EOpts.Solver = Opts.SolverName;
  EOpts.Threads = Opts.Threads;
  // The measuring profiler is not safe to call concurrently; with
  // --measured the cache still memoizes but fills lazily.
  EOpts.ParallelPrepopulate = !Opts.Measured;
  EOpts.PlanCacheDir = Opts.PlanCacheDir;
  EOpts.Passes = Opts.Passes;
  EOpts.AmortizeWeightTransforms = amortizeActive(Opts);
  // The thread-count dimension. Every engine-building command derives its
  // options here, so a 'warm --exec-threads 4' and a 'serve --exec-threads
  // 4' agree on the plan-cache cost identity and warm-then-serve hits.
  EOpts.ExecThreadCandidates = execThreadCandidates(Opts.ExecThreads);
  // --jit adds the modelled jit-vs-interpreter dimension (and the ":jit"
  // cost-identity marker, so jit and interpreter plan-cache entries never
  // mix).
  EOpts.ConsiderJit = Opts.Jit;
  return EOpts;
}

/// The artifact configuration the CLI options describe. Engine::compile
/// defaults the jit object cache into --plan-cache when one is set.
CompileOptions compileOptions(const CliOptions &Opts) {
  CompileOptions COpts;
  COpts.Jit = Opts.Jit;
  COpts.JitOpts.Compiler = Opts.JitCc;
  return COpts;
}

/// One-line jit report for compile/serve --jit: did the native object
/// load, where did it come from, and what did it cost.
void printJitReport(const CompiledNet &CN) {
  if (!CN.isJitted()) {
    // The fallback warning already went to stderr; note the serving mode
    // on stdout so transcripts are self-describing.
    std::printf("# jit: unavailable, serving interpreted\n");
    return;
  }
  const jit::JitReport &JR = CN.jitReport();
  std::printf("# jit: %s object %.1f KiB in %.2f ms (%u compiler "
              "invocation%s), fingerprint %s\n",
              JR.CacheHit ? "cached" : "fresh",
              static_cast<double>(JR.ObjectBytes) / 1024.0, JR.CompileMs,
              JR.CompilerInvocations, JR.CompilerInvocations == 1 ? "" : "s",
              JR.Fingerprint.c_str());
}

/// FNV-1a over a tensor's raw bytes.
uint64_t tensorChecksum(const Tensor3D &Out) {
  const unsigned char *Bytes =
      reinterpret_cast<const unsigned char *>(Out.data());
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < static_cast<size_t>(Out.size()) * sizeof(float);
       ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// FNV-1a over the network output of one deterministic forward pass.
/// Printed by compiled serving so CI can diff a --jit transcript against
/// an interpreted one: identical checksums = bit-identical serving.
uint64_t outputChecksum(const CompiledNet &CN) {
  ExecutionContextOptions CtxOpts;
  std::unique_ptr<ExecutionContext> Ctx = CN.newContext(CtxOpts);
  const TensorShape &Sh = CN.graph().node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(11);
  Ctx->run(Input);
  return tensorChecksum(Ctx->networkOutput());
}

/// Per-bucket bit-identity probe: run B copies of the same deterministic
/// input through a context on each resident rung and checksum every
/// image's output. CI diffs every line against the unbatched
/// '# output checksum' -- equality at every bucket proves the batched §8
/// plans serve bit-identical per-image outputs.
void printLadderChecksums(const CompiledNetLadder &Ladder) {
  for (const CompiledNetLadder::Rung &R : Ladder.residentRungs()) {
    ExecutionContextOptions CtxOpts;
    ExecutionContext Ctx(R.Artifact, CtxOpts);
    const TensorShape &Sh = R.Artifact->graph().node(0).OutShape;
    Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
    Input.fillRandom(11);
    std::vector<const Tensor3D *> Inputs(static_cast<size_t>(R.Bucket),
                                         &Input);
    Ctx.run(Inputs);
    uint64_t First = tensorChecksum(Ctx.output(0));
    bool AllSame = true;
    for (size_t I = 1; I < Inputs.size(); ++I)
      AllSame &= tensorChecksum(Ctx.output(I)) == First;
    std::printf("# bucket %lld output checksum %016llx%s\n",
                static_cast<long long>(R.Bucket),
                static_cast<unsigned long long>(First),
                AllSame ? "" : " (IMAGES DIVERGE)");
  }
}

/// Ladder + dispatch report for --batch-ladder serving runs.
void printLadderStats(const CompiledNetLadder &Ladder, uint64_t Batched,
                      uint64_t Fallback) {
  LadderStats LS = Ladder.stats();
  std::printf("# ladder: %u resident bucket%s (max %lld), %llu hits, %llu "
              "misses, %llu bg-compiles, %llu sync-compiles, %llu "
              "failures\n",
              LS.ResidentBuckets, LS.ResidentBuckets == 1 ? "" : "s",
              static_cast<long long>(Ladder.maxBucket()),
              static_cast<unsigned long long>(LS.Hits),
              static_cast<unsigned long long>(LS.Misses),
              static_cast<unsigned long long>(LS.BackgroundCompiles),
              static_cast<unsigned long long>(LS.SyncCompiles),
              static_cast<unsigned long long>(LS.CompileFailures));
  std::printf("# dispatch: %llu batched batches, %llu fallback batches\n",
              static_cast<unsigned long long>(Batched),
              static_cast<unsigned long long>(Fallback));
}

/// One-line serving-cost report for amortized-mode runs.
void printServingCost(const SelectionResult &R) {
  if (R.ModelledPerRunMs == 0.0 && R.ModelledPrepareMs == 0.0)
    return;
  std::printf("# serving cost: %.3f ms/inference steady state + %.3f ms "
              "one-time weight prepare\n",
              R.ModelledPerRunMs, R.ModelledPrepareMs);
}

/// The shared per-request latency summary of every serving path
/// (percentile definition: support/Stats.h).
void printLatencySummary(std::vector<double> &LatenciesMs, double WallMillis,
                         unsigned Workers) {
  LatencySummary S = summarizeLatencies(LatenciesMs);
  std::printf("# served %zu requests on %u worker%s in %.1f ms: %.1f "
              "inferences/sec\n",
              S.Count, Workers, Workers == 1 ? "" : "s", WallMillis,
              WallMillis > 0.0 ? 1000.0 * S.Count / WallMillis : 0.0);
  std::printf("# latency: mean %.3f ms, p50 %.3f ms, p95 %.3f ms, p99 "
              "%.3f ms, p99.9 %.3f ms, best %.3f ms, worst %.3f ms\n",
              S.Mean, S.P50, S.P95, S.P99, S.P999, S.Min, S.Max);
}

/// One-line pass-pipeline report for optimize/warm/serve.
void printPassStats(const SelectionResult &R) {
  if (R.Passes.empty())
    return;
  std::printf("# passes:");
  for (const transforms::PassStats &S : R.Passes)
    std::printf(" %s=%u", S.Name.c_str(), S.Rewrites);
  std::printf(" (%u -> %u nodes)\n", R.Passes.front().NodesBefore,
              R.Passes.back().NodesAfter);
}

/// One-line plan-cache report shared by optimize/warm/serve.
void printPlanCacheStats(const Engine &Eng) {
  const PlanCacheStats *S = Eng.planCacheStats();
  if (!S)
    return;
  std::printf("# plan cache: %llu lookups, %llu memory hits, %llu disk "
              "hits, %llu misses, %llu corrupt, %llu stores (%llu failed)\n",
              static_cast<unsigned long long>(S->Lookups),
              static_cast<unsigned long long>(S->MemoryHits),
              static_cast<unsigned long long>(S->DiskHits),
              static_cast<unsigned long long>(S->Misses),
              static_cast<unsigned long long>(S->CorruptFiles),
              static_cast<unsigned long long>(S->Stores),
              static_cast<unsigned long long>(S->StoreFailures));
}

/// Build the cost provider the CLI options describe. \p Measured receives
/// the profiling provider when --measured is active (for table save/load).
/// \p ModelThreads is the thread count the *costs* are modelled/measured
/// for -- it participates in the provider's identity and therefore in the
/// plan-cache key. optimize/codegen pass --threads; warm/serve pin it to 1
/// (the paper's per-primitive configuration) so that serving-side thread
/// counts never change the cache key and warm-then-serve always hits.
std::unique_ptr<CostProvider> makeCosts(const CliOptions &Opts,
                                        const PrimitiveLibrary &Lib,
                                        MeasuredCostProvider **Measured,
                                        unsigned ModelThreads) {
  if (Opts.Measured) {
    ProfilerOptions POpts;
    POpts.Threads = ModelThreads;
    auto M = std::make_unique<MeasuredCostProvider>(Lib, POpts);
    if (!Opts.CostsPath.empty() && M->database().load(Opts.CostsPath))
      std::fprintf(stderr, "loaded cost table %s\n", Opts.CostsPath.c_str());
    if (Measured)
      *Measured = M.get();
    return M;
  }
  MachineProfile Profile =
      Opts.Arm ? MachineProfile::cortexA57() : MachineProfile::haswell();
  return std::make_unique<AnalyticCostProvider>(Lib, Profile, ModelThreads);
}

int cmdModels() {
  for (const std::string &Name : modelNames())
    std::printf("%s\n", Name.c_str());
  std::printf("tinychain\ntinydag\n");
  return 0;
}

int cmdSolvers() {
  for (const std::string &Name : pbqp::SolverRegistry::instance().names())
    std::printf("%s\n", Name.c_str());
  return 0;
}

int cmdPrimitives(const CliOptions &Opts) {
  PrimitiveLibrary Lib = buildFullLibrary();
  if (Opts.Target.empty()) {
    std::printf("%u primitives:\n", Lib.size());
    for (PrimitiveId Id = 0; Id < Lib.size(); ++Id) {
      const ConvPrimitive &P = Lib.get(Id);
      std::printf("  %-36s %-9s %s -> %s\n", P.name().c_str(),
                  convFamilyName(P.family()), layoutName(P.inputLayout()),
                  layoutName(P.outputLayout()));
    }
    return 0;
  }
  std::optional<NetworkGraph> Net = resolveNetwork(Opts.Target, Opts.Scale);
  if (!Net)
    return 1;
  for (NetworkGraph::NodeId N : Net->convNodes()) {
    const ConvScenario &S = Net->node(N).Scenario;
    std::vector<PrimitiveId> Ids = Lib.supporting(S);
    std::printf("%-24s %-28s %zu candidate primitives\n",
                Net->node(N).L.Name.c_str(), S.key().c_str(), Ids.size());
  }
  return 0;
}

int cmdOptimize(const CliOptions &Opts) {
  std::optional<NetworkGraph> Net = resolveNetwork(Opts.Target, Opts.Scale);
  if (!Net)
    return 1;
  if (!checkSolver(Opts))
    return 1;
  PrimitiveLibrary Lib = buildFullLibrary();

  MeasuredCostProvider *Measured = nullptr;
  std::unique_ptr<CostProvider> Owned = makeCosts(Opts, Lib, &Measured, Opts.Threads);
  Engine Eng(Lib, *Owned, engineOptions(Opts));

  if (!Opts.StrategyName.empty() && Opts.StrategyName != "pbqp") {
    std::optional<Strategy> S = parseStrategy(Opts.StrategyName);
    if (!S) {
      std::fprintf(stderr, "error: unknown strategy '%s'\n",
                   Opts.StrategyName.c_str());
      return 1;
    }
    NetworkPlan Plan = Eng.planFor(*S, *Net);
    if (Plan.empty()) {
      std::fprintf(stderr, "error: strategy produced no plan\n");
      return 1;
    }
    std::printf("# strategy %s, modelled cost %.3f ms\n", strategyName(*S),
                Eng.planCost(Plan, *Net));
    for (NetworkGraph::NodeId N : Net->convNodes())
      std::printf("%-24s %s\n", Net->node(N).L.Name.c_str(),
                  Lib.get(Plan.ConvPrim[N]).name().c_str());
    return 0;
  }

  if (!checkBruteSpace(Eng, *Net))
    return 1;

  SelectionResult R = Eng.optimize(*Net);
  if (R.Plan.empty()) {
    std::fprintf(stderr, "error: selection failed\n");
    return 1;
  }
  std::printf("# %s: %u PBQP nodes, %u edges, build %.2f ms, solve %.2f "
              "ms, optimal %s%s\n",
              Net->name().c_str(), R.NumNodes, R.NumEdges, R.BuildMillis,
              R.SolveMillis, R.Solver.ProvablyOptimal ? "yes" : "no",
              R.PlanCacheHit ? " (plan-cache hit)" : "");
  printPassStats(R);
  printServingCost(R);
  printPlanCacheStats(Eng);
  std::printf("# solver %s: R0=%u RI=%u RII=%u RN=%u core=%u visited=%llu "
              "pruned=%llu\n",
              R.Backend.c_str(), R.Solver.NumR0, R.Solver.NumRI,
              R.Solver.NumRII, R.Solver.NumRN, R.Solver.NumCoreEnumerated,
              static_cast<unsigned long long>(R.Solver.NumVisited),
              static_cast<unsigned long long>(R.Solver.NumPruned));
  std::printf("# cost cache: %llu queries, %llu raw evaluations, %llu "
              "hits\n",
              static_cast<unsigned long long>(R.Cache.queries()),
              static_cast<unsigned long long>(R.Cache.misses()),
              static_cast<unsigned long long>(R.Cache.hits()));
  std::printf("# modelled cost %.3f ms (%s, %u thread%s)\n",
              R.ModelledCostMs,
              Opts.Measured ? "measured"
              : Opts.Arm    ? "analytic cortex-a57"
                            : "analytic haswell",
              Opts.Threads, Opts.Threads == 1 ? "" : "s");
  // The plan indexes the pass-rewritten graph when a pipeline ran.
  const NetworkGraph &ExecNet = R.executionGraph(*Net);
  for (NetworkGraph::NodeId N : ExecNet.convNodes()) {
    std::printf("%-24s %s", ExecNet.node(N).L.Name.c_str(),
                Lib.get(R.Plan.ConvPrim[N]).name().c_str());
    if (!R.Plan.ConvThreads.empty())
      std::printf("  t%u", R.Plan.convThreads(N));
    std::printf("\n");
  }
  unsigned Hops = 0;
  for (const auto &[Edge, Chain] : R.Plan.Chains)
    Hops += static_cast<unsigned>(Chain.size()) - 1;
  std::printf("# %zu legalized edges, %u transform steps\n",
              R.Plan.Chains.size(), Hops);

  if (Measured && !Opts.CostsPath.empty()) {
    if (Measured->database().save(Opts.CostsPath))
      std::fprintf(stderr, "saved cost table %s\n", Opts.CostsPath.c_str());
    else
      std::fprintf(stderr, "warning: could not save %s\n",
                   Opts.CostsPath.c_str());
  }
  return 0;
}

int cmdCodegen(const CliOptions &Opts) {
  std::optional<NetworkGraph> Net = resolveNetwork(Opts.Target, Opts.Scale);
  if (!Net)
    return 1;
  if (!checkSolver(Opts))
    return 1;
  PrimitiveLibrary Lib = buildFullLibrary();
  std::unique_ptr<CostProvider> Owned = makeCosts(Opts, Lib, nullptr, Opts.Threads);
  Engine Eng(Lib, *Owned, engineOptions(Opts));
  if (!checkBruteSpace(Eng, *Net))
    return 1;
  SelectionResult R = Eng.optimize(*Net);
  if (R.Plan.empty()) {
    std::fprintf(stderr, "error: selection failed\n");
    return 1;
  }
  std::string Source = Eng.emitSource(R.executionGraph(*Net), R.Plan);
  if (Opts.OutPath.empty()) {
    std::fputs(Source.c_str(), stdout);
    return 0;
  }
  std::ofstream Out(Opts.OutPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Opts.OutPath.c_str());
    return 1;
  }
  Out << Source;
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", Opts.OutPath.c_str(),
               Source.size());
  return 0;
}

int cmdWarm(const CliOptions &Opts) {
  if (Opts.PlanCacheDir.empty()) {
    std::fprintf(stderr, "error: 'warm' requires --plan-cache DIR (the "
                         "point is a plan that outlives this process)\n");
    return 1;
  }
  std::optional<NetworkGraph> Net = resolveNetwork(Opts.Target, Opts.Scale);
  if (!Net)
    return 1;
  if (!checkSolver(Opts))
    return 1;
  PrimitiveLibrary Lib = buildFullLibrary();
  MeasuredCostProvider *Measured = nullptr;
  std::unique_ptr<CostProvider> Owned = makeCosts(Opts, Lib, &Measured, 1);
  Engine Eng(Lib, *Owned, engineOptions(Opts));
  if (!checkBruteSpace(Eng, *Net))
    return 1;

  Timer T;
  SelectionResult R = Eng.optimize(*Net);
  double Millis = T.millis();
  if (R.Plan.empty()) {
    std::fprintf(stderr, "error: selection failed\n");
    return 1;
  }
  PlanKey Key = Eng.planKey(*Net);
  const PlanCacheStats *Stats = Eng.planCacheStats();
  if (Stats && Stats->StoreFailures > 0) {
    // A warm that persisted nothing is the failure this command exists to
    // prevent; do not let it read as success.
    std::fprintf(stderr,
                 "error: could not write plan file %s/%s (unwritable "
                 "directory?)\n",
                 Opts.PlanCacheDir.c_str(), Key.fileName().c_str());
    return 1;
  }
  std::printf("# %s %s in %.2f ms (build %.2f ms, solve %.2f ms)\n",
              Net->name().c_str(),
              R.PlanCacheHit ? "already warm: plan-cache hit"
                             : "warmed: solved and cached",
              Millis, R.BuildMillis, R.SolveMillis);
  printPassStats(R);
  printServingCost(R);
  std::printf("# key %s\n", Key.combined().c_str());
  std::printf("# file %s/%s\n", Opts.PlanCacheDir.c_str(),
              Key.fileName().c_str());
  printPlanCacheStats(Eng);
  if (Measured && !Opts.CostsPath.empty() &&
      Measured->database().save(Opts.CostsPath))
    std::fprintf(stderr, "saved cost table %s\n", Opts.CostsPath.c_str());
  return 0;
}

int cmdCompile(const CliOptions &Opts) {
  std::optional<NetworkGraph> Net = resolveNetwork(Opts.Target, Opts.Scale);
  if (!Net)
    return 1;
  if (!checkSolver(Opts))
    return 1;
  PrimitiveLibrary Lib = buildFullLibrary();
  std::unique_ptr<CostProvider> Owned = makeCosts(Opts, Lib, nullptr, 1);
  Engine Eng(Lib, *Owned, engineOptions(Opts));
  if (!checkBruteSpace(Eng, *Net))
    return 1;

  Timer PlanTimer;
  SelectionResult R = Eng.optimize(*Net);
  double PlanMillis = PlanTimer.millis();
  if (R.Plan.empty()) {
    std::fprintf(stderr, "error: selection failed\n");
    return 1;
  }
  Timer CompileTimer;
  std::shared_ptr<const CompiledNet> CN = Eng.compile(*Net, R, compileOptions(Opts));
  double CompileMillis = CompileTimer.millis();
  if (!CN) {
    std::fprintf(stderr, "error: compilation failed\n");
    return 1;
  }

  std::printf("# %s: plan %s in %.2f ms (amortized per-inference costs)\n",
              Net->name().c_str(),
              R.PlanCacheHit ? "served from cache" : "solved cold",
              PlanMillis);
  printPassStats(R);
  printServingCost(R);
  printPlanCacheStats(Eng);
  const MemoryPlan &MP = CN->memoryPlan();
  std::printf("# compiled: %u prepared kernels (%.2f MiB packed weights) "
              "in %.2f ms (prepare %.2f ms) -- one-time work hoisted out "
              "of the request path\n",
              CN->numPreparedKernels(),
              static_cast<double>(CN->preparedBytes()) / (1024.0 * 1024.0),
              CompileMillis, CN->prepareMillis());
  // The jit compiler invocation is prepare-phase work: it lands inside
  // prepareMillis above, and this line breaks it out.
  if (Opts.Jit)
    printJitReport(*CN);
  std::printf("# artifact: %u steps, %zu values, %zu levels, arena "
              "template %.2f MiB\n",
              static_cast<unsigned>(CN->program().steps().size()),
              MP.Values.size(), MP.Levels.size(),
              static_cast<double>(MP.arenaBytes()) / (1024.0 * 1024.0));
  const NetworkGraph &ExecNet = CN->graph();
  for (NetworkGraph::NodeId N : ExecNet.convNodes())
    std::printf("%-24s %s\n", ExecNet.node(N).L.Name.c_str(),
                Lib.get(CN->plan().ConvPrim[N]).name().c_str());
  return 0;
}

/// serve --open-loop: one CompiledNet behind the dynamic batcher, driven
/// by a Poisson arrival process at --rate requests/sec. --threads sets the
/// batch-draining worker count; --max-batch/--max-delay-us/--max-queue the
/// batching policy; --slo-ms a per-request deadline.
int serveOpenLoop(const CliOptions &Opts, Engine &Eng,
                  const NetworkGraph &Net, const SelectionResult &R) {
  Timer CompileTimer;
  std::shared_ptr<CompiledNetLadder> Ladder;
  std::shared_ptr<const CompiledNet> CN;
  if (Opts.BatchLadder) {
    // The anchor solve hits the plan cache (cmdServe already ran
    // optimize); sync mode also pays every bucket solve here, bg mode
    // defers them to the ladder's compile thread.
    LadderOptions LO;
    LO.MaxBatch = static_cast<int64_t>(std::max(1u, Opts.MaxBatch));
    LO.Background = Opts.BucketCompile != "sync";
    LO.Compile = compileOptions(Opts);
    Ladder = Eng.compileLadder(Net, LO);
    if (Ladder)
      CN = Ladder->bucket(1);
  } else {
    CN = Eng.compile(Net, R, compileOptions(Opts));
  }
  double CompileMillis = CompileTimer.millis();
  if (!CN) {
    std::fprintf(stderr, "error: compilation failed\n");
    return 1;
  }
  std::printf("# compiled once in %.2f ms (prepare %.2f ms, %u kernels, "
              "%.2f MiB packed weights)\n",
              CompileMillis, CN->prepareMillis(), CN->numPreparedKernels(),
              static_cast<double>(CN->preparedBytes()) / (1024.0 * 1024.0));
  if (Opts.Jit)
    printJitReport(*CN);
  if (Ladder) {
    std::printf("# ladder: buckets up to %lld, bucket-compile %s\n",
                static_cast<long long>(Ladder->maxBucket()),
                Opts.BucketCompile.c_str());
    // CI diffs this and the per-bucket lines printed after the run.
    std::printf("# output checksum %016llx\n",
                static_cast<unsigned long long>(outputChecksum(*CN)));
  }

  serve::ServerOptions SOpts;
  SOpts.Batch.MaxBatch = Opts.MaxBatch;
  SOpts.Batch.MaxDelayNs =
      static_cast<serve::TimeNs>(Opts.MaxDelayUs) * serve::nsPerUs;
  SOpts.Batch.MaxQueue = Opts.MaxQueue;
  SOpts.Workers = std::max(1u, Opts.Threads);
  SOpts.UseArena = !Opts.NoArena;
  SOpts.Ladder = Ladder;

  const TensorShape &Sh = CN->graph().node(0).OutShape;
  std::vector<Tensor3D> Inputs;
  for (unsigned I = 0; I < 4; ++I) {
    Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
    T.fillRandom(11 + I);
    Inputs.push_back(std::move(T));
  }

  serve::OpenLoopOptions LOpts;
  LOpts.RatePerSec = Opts.RatePerSec;
  LOpts.Requests = Opts.Requests;
  LOpts.SloNs = static_cast<serve::TimeNs>(Opts.SloMs *
                                           static_cast<double>(serve::nsPerMs));
  std::printf("# open loop: %.1f req/sec Poisson x %u requests, batcher "
              "max-batch %u, window %u us, queue bound %u, %u worker%s%s\n",
              LOpts.RatePerSec, LOpts.Requests, SOpts.Batch.MaxBatch,
              Opts.MaxDelayUs, SOpts.Batch.MaxQueue, SOpts.Workers,
              SOpts.Workers == 1 ? "" : "s",
              Opts.SloMs > 0.0 ? ", SLO deadline set" : "");

  serve::OpenLoopResult Res;
  {
    serve::Server Srv(CN, SOpts);
    Res = serve::runOpenLoop(Srv, Inputs, LOpts);
    Srv.shutdown();
    serve::BatcherStats BS = Srv.batcherStats();
    serve::ServerStats SS = Srv.stats();
    std::printf("# batcher: %llu batches (%llu full, %llu window-expired), "
                "mean batch %.2f, peak queue %llu\n",
                static_cast<unsigned long long>(BS.Batches),
                static_cast<unsigned long long>(BS.FullBatches),
                static_cast<unsigned long long>(BS.TimeoutBatches),
                BS.Batches ? static_cast<double>(BS.BatchedRequests) /
                                 static_cast<double>(BS.Batches)
                           : 0.0,
                static_cast<unsigned long long>(BS.MaxQueueDepth));
    std::printf("# admission: %llu submitted, %llu admitted, %llu "
                "queue-full, %llu deadline-rejected (%llu expired queued), "
                "%llu deadline misses\n",
                static_cast<unsigned long long>(BS.Submitted),
                static_cast<unsigned long long>(BS.Admitted),
                static_cast<unsigned long long>(BS.RejectedQueueFull),
                static_cast<unsigned long long>(BS.RejectedDeadline),
                static_cast<unsigned long long>(BS.ExpiredInQueue),
                static_cast<unsigned long long>(SS.DeadlineMisses));
    if (Ladder) {
      // Drain in-flight background compiles so the bit-identity probe
      // sees every bucket this run produced.
      Ladder->waitForCompiles();
      printLadderStats(*Ladder, SS.BatchedBatches, SS.FallbackBatches);
      printLadderChecksums(*Ladder);
    }
  }
  std::printf("# offered %.1f req/sec, sustained %.1f req/sec, %u/%u "
              "completed (%u rejected)\n",
              Res.OfferedPerSec, Res.SustainedPerSec, Res.Completed,
              Res.Offered, Res.Rejected);
  printLatencySummary(Res.LatenciesMs, Res.WallMillis, SOpts.Workers);
  return 0;
}

/// serve --compiled: one CompiledNet, --threads concurrent worker threads,
/// each serving requests from its own ExecutionContext.
int serveCompiled(const CliOptions &Opts, Engine &Eng,
                  const NetworkGraph &Net, const SelectionResult &R) {
  Timer CompileTimer;
  std::shared_ptr<const CompiledNet> CN =
      Eng.compile(Net, R, compileOptions(Opts));
  double CompileMillis = CompileTimer.millis();
  if (!CN) {
    std::fprintf(stderr, "error: compilation failed\n");
    return 1;
  }
  std::printf("# compiled once in %.2f ms (prepare %.2f ms, %u kernels, "
              "%.2f MiB packed weights)\n",
              CompileMillis, CN->prepareMillis(), CN->numPreparedKernels(),
              static_cast<double>(CN->preparedBytes()) / (1024.0 * 1024.0));
  if (Opts.Jit)
    printJitReport(*CN);
  // CI diffs this line between a --jit run and an interpreted run:
  // identical checksums prove the native object serves bit-identical
  // outputs.
  std::printf("# output checksum %016llx\n",
              static_cast<unsigned long long>(outputChecksum(*CN)));

  ExecutionContextOptions CtxOpts;
  CtxOpts.UseArena = !Opts.NoArena;
  // --parallel gives each worker's context a 2-wide pool for concurrent
  // branches; the worker threads themselves provide the request-level
  // concurrency. --exec-threads widens the pool so the plan's per-node
  // intra-op worker counts have workers to run on (the plan caps each
  // node, so a wide pool never over-threads a node).
  CtxOpts.Threads = std::max(Opts.Parallel ? 2u : 1u, Opts.ExecThreads);
  CtxOpts.ParallelBranches = Opts.Parallel;

  unsigned Workers = std::max(1u, Opts.Threads);
  const TensorShape &Sh = CN->graph().node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(11);

  std::printf("# serving: %u worker threads x own ExecutionContext (%s%s), "
              "one shared CompiledNet\n",
              Workers, CtxOpts.UseArena ? "arena" : "per-layer allocation",
              CtxOpts.ParallelBranches ? ", parallel branches" : "");

  std::vector<std::vector<double>> PerWorker(Workers);
  Timer Wall;
  {
    std::vector<std::thread> Threads;
    for (unsigned W = 0; W < Workers; ++W) {
      unsigned Share = Opts.Requests / Workers +
                       (W < Opts.Requests % Workers ? 1 : 0);
      Threads.emplace_back([&, W, Share] {
        std::unique_ptr<ExecutionContext> Ctx = CN->newContext(CtxOpts);
        PerWorker[W].reserve(Share);
        for (unsigned I = 0; I < Share; ++I)
          PerWorker[W].push_back(Ctx->run(Input).TotalMillis);
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }
  double WallMillis = Wall.millis();

  std::vector<double> Latencies;
  Latencies.reserve(Opts.Requests);
  for (std::vector<double> &W : PerWorker)
    Latencies.insert(Latencies.end(), W.begin(), W.end());
  printLatencySummary(Latencies, WallMillis, Workers);
  return 0;
}

/// serve --models a,b,c: the multi-model fleet. One shared Engine (one
/// cost cache, one plan cache) compiles every model's artifact on demand
/// into a budgeted ModelRegistry; per-model batcher lanes drain mixed
/// Poisson traffic; --swaps K hot-swaps recompiled artifacts under load.
int cmdServeFleet(const CliOptions &Opts) {
  if (!checkSolver(Opts))
    return 1;
  PrimitiveLibrary Lib =
      Opts.BatchLadder ? buildBatchedLibrary() : buildFullLibrary();
  std::unique_ptr<CostProvider> Owned = makeCosts(Opts, Lib, nullptr, 1);
  EngineOptions EOpts = engineOptions(Opts);
  EOpts.CachePlans = true; // the fleet warms once: every readmission and
                           // swap must hit this cache, never re-solve
  Engine Eng(Lib, *Owned, EOpts);

  serve::RegistryOptions ROpts;
  ROpts.MemBudgetBytes =
      static_cast<size_t>(Opts.MemBudgetMiB * 1024.0 * 1024.0);
  ROpts.ArenaSlabsPerModel = std::max(1u, Opts.MaxBatch);
  // --jit fleets serve native objects; artifactBytes then charges the
  // mapped .so against the memory budget alongside the packed weights.
  ROpts.Compile = compileOptions(Opts);
  if (Opts.BatchLadder) {
    // Whole ladders compile synchronously at first acquire and the sum of
    // resident rungs is charged to the budget; cold buckets are evicted
    // fleet-wide before any whole model.
    for (int64_t B = 1; B <= static_cast<int64_t>(std::max(1u, Opts.MaxBatch));
         B *= 2)
      ROpts.LadderBuckets.push_back(B);
  }
  serve::ModelRegistry Reg(Eng, ROpts);
  for (const std::string &Name : Opts.Models) {
    std::optional<NetworkGraph> Net = resolveNetwork(Name, Opts.Scale);
    if (!Net)
      return 1;
    if (!Reg.addModel(Name, std::move(*Net))) {
      std::fprintf(stderr, "error: model '%s' named twice in --models\n",
                   Name.c_str());
      return 1;
    }
  }

  serve::FleetOptions FOpts;
  FOpts.Batch.MaxBatch = Opts.MaxBatch;
  FOpts.Batch.MaxDelayNs =
      static_cast<serve::TimeNs>(Opts.MaxDelayUs) * serve::nsPerUs;
  FOpts.Batch.MaxQueue = Opts.MaxQueue;
  FOpts.WorkersPerModel = std::max(1u, Opts.Threads);
  FOpts.UseArena = !Opts.NoArena;

  // One deterministic input per model (shapes differ across the fleet).
  std::vector<Tensor3D> Inputs;
  for (size_t M = 0; M < Opts.Models.size(); ++M) {
    const TensorShape &Sh = Reg.graphOf(Opts.Models[M])->node(0).OutShape;
    Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
    T.fillRandom(11 + static_cast<uint64_t>(M));
    Inputs.push_back(std::move(T));
  }

  std::string BudgetStr = "unlimited";
  if (Opts.MemBudgetMiB > 0.0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f MiB", Opts.MemBudgetMiB);
    BudgetStr = Buf;
  }
  std::printf("# fleet: %zu models, mem budget %s, %u worker%s/model, "
              "batcher max-batch %u, window %u us\n",
              Opts.Models.size(), BudgetStr.c_str(), FOpts.WorkersPerModel,
              FOpts.WorkersPerModel == 1 ? "" : "s", FOpts.Batch.MaxBatch,
              Opts.MaxDelayUs);

  serve::TimeNs SloNs = static_cast<serve::TimeNs>(
      Opts.SloMs * static_cast<double>(serve::nsPerMs));
  Rng Pick(23), Gaps(29);
  std::vector<std::future<serve::ServeResponse>> Futures;
  std::vector<unsigned> ModelOf;
  Futures.reserve(Opts.Requests);
  ModelOf.reserve(Opts.Requests);
  std::vector<double> LatenciesMs;
  std::vector<uint64_t> OkPerModel(Opts.Models.size(), 0);
  std::vector<uint64_t> RejPerModel(Opts.Models.size(), 0);
  uint64_t Completed = 0, Rejected = 0;

  Timer Wall;
  {
    serve::FleetServer Srv(Reg, FOpts);
    serve::Clock &Clk = serve::steadyClock();
    unsigned SwapEvery =
        Opts.Swaps ? std::max(1u, Opts.Requests / (Opts.Swaps + 1)) : 0;
    unsigned SwapsDone = 0;

    using SteadyTime = std::chrono::steady_clock::time_point;
    SteadyTime Start = std::chrono::steady_clock::now();
    double NextArrivalNs = 0.0;
    for (unsigned I = 0; I < Opts.Requests; ++I) {
      double U = Gaps.nextFloat();
      NextArrivalNs += -std::log(1.0 - U) *
                       static_cast<double>(serve::nsPerSec) / Opts.RatePerSec;
      std::this_thread::sleep_until(
          Start + std::chrono::nanoseconds(
                      static_cast<int64_t>(NextArrivalNs)));

      // Hot-swap under live traffic: recompile (a plan-cache hit once the
      // fleet is warm) and RCU-publish while the lanes keep draining.
      if (SwapEvery && SwapsDone < Opts.Swaps && I > 0 &&
          I % SwapEvery == 0) {
        Reg.recompileAndSwap(
            Opts.Models[SwapsDone % Opts.Models.size()]);
        ++SwapsDone;
      }

      unsigned M = static_cast<unsigned>(
          Pick.nextBelow(Opts.Models.size()));
      serve::TimeNs Deadline = SloNs != 0 ? Clk.now() + SloNs : 0;
      ModelOf.push_back(M);
      Futures.push_back(
          Srv.submit(Opts.Models[M], Inputs[M], Deadline).Response);
    }

    for (size_t I = 0; I < Futures.size(); ++I) {
      serve::ServeResponse R = Futures[I].get();
      if (R.ok()) {
        ++Completed;
        ++OkPerModel[ModelOf[I]];
        LatenciesMs.push_back(R.totalMillis());
      } else {
        ++Rejected;
        ++RejPerModel[ModelOf[I]];
      }
    }
    Srv.shutdown();

    for (size_t M = 0; M < Opts.Models.size(); ++M) {
      serve::BatcherStats BS = Srv.batcherStats(Opts.Models[M]);
      serve::LaneStats LS = Srv.laneStats(Opts.Models[M]);
      std::printf("# model %s: %llu ok, %llu rejected, %llu batches "
                  "(mean %.2f), %llu unavailable\n",
                  Opts.Models[M].c_str(),
                  static_cast<unsigned long long>(OkPerModel[M]),
                  static_cast<unsigned long long>(RejPerModel[M]),
                  static_cast<unsigned long long>(BS.Batches),
                  BS.Batches
                      ? static_cast<double>(BS.BatchedRequests) /
                            static_cast<double>(BS.Batches)
                      : 0.0,
                  static_cast<unsigned long long>(LS.UnavailableRequests));
      if (Opts.BatchLadder)
        std::printf("# model %s dispatch: %llu batched batches, %llu "
                    "fallback batches\n",
                    Opts.Models[M].c_str(),
                    static_cast<unsigned long long>(LS.Exec.BatchedBatches),
                    static_cast<unsigned long long>(LS.Exec.FallbackBatches));
    }
  }
  double WallMillis = Wall.millis();

  serve::RegistryStats RS = Reg.stats();
  std::printf("# registry: %llu compiles (%llu plan-cache hits, %llu "
              "solves), %llu evictions, %llu swaps, %llu unavailable\n",
              static_cast<unsigned long long>(RS.Compiles),
              static_cast<unsigned long long>(RS.PlanCacheHits),
              static_cast<unsigned long long>(RS.Solves),
              static_cast<unsigned long long>(RS.Evictions),
              static_cast<unsigned long long>(RS.Swaps),
              static_cast<unsigned long long>(RS.Unavailable));
  if (Opts.BatchLadder)
    std::printf("# registry bucket evictions: %llu\n",
                static_cast<unsigned long long>(RS.BucketEvictions));
  std::printf("# fleet-resident-mib %zu (peak %.2f MiB resident, budget "
              "%s)\n",
              (RS.PeakResidentBytes + (1024 * 1024 - 1)) / (1024 * 1024),
              static_cast<double>(RS.PeakResidentBytes) / (1024.0 * 1024.0),
              BudgetStr.c_str());
  // When the whole fleet is resident (an unbudgeted probe run), emit a
  // budget guaranteed to force eviction while keeping every model
  // servable: strictly above the largest artifact, strictly below the
  // fleet total. CI greps this anchor and reruns with it.
  if (Opts.Models.size() > 1) {
    size_t MaxBytes = 0, SumBytes = 0;
    bool AllResident = true;
    for (const std::string &Name : Opts.Models) {
      std::shared_ptr<const CompiledNet> CN = Reg.current(Name);
      if (!CN) {
        AllResident = false;
        break;
      }
      size_t B = serve::ModelRegistry::artifactBytes(
          *CN, ROpts.ArenaSlabsPerModel);
      MaxBytes = std::max(MaxBytes, B);
      SumBytes += B;
    }
    if (AllResident && MaxBytes < SumBytes)
      std::printf("# fleet-evict-budget-mib %.2f\n",
                  static_cast<double>(MaxBytes + SumBytes) / 2.0 /
                      (1024.0 * 1024.0));
  }
  printPlanCacheStats(Eng);
  printLatencySummary(LatenciesMs, WallMillis,
                      FOpts.WorkersPerModel *
                          static_cast<unsigned>(Opts.Models.size()));
  std::printf("# fleet total: %llu/%u completed, %llu rejected\n",
              static_cast<unsigned long long>(Completed), Opts.Requests,
              static_cast<unsigned long long>(Rejected));

  if (Completed == 0) {
    std::fprintf(stderr, "error: no request completed (budget too small "
                         "for any artifact?)\n");
    return 1;
  }
  return 0;
}

int cmdServe(const CliOptions &Opts) {
  if (!Opts.Models.empty())
    return cmdServeFleet(Opts);
  std::optional<NetworkGraph> Net = resolveNetwork(Opts.Target, Opts.Scale);
  if (!Net)
    return 1;
  if (!checkSolver(Opts))
    return 1;
  // --batch-ladder needs the §8 minibatch wrappers in the library so each
  // bucket's solve can choose @bser/@bpar per layer. Batch-1 scenarios
  // never match a wrapper, so the anchor plan is unchanged.
  PrimitiveLibrary Lib =
      Opts.BatchLadder ? buildBatchedLibrary() : buildFullLibrary();
  std::unique_ptr<CostProvider> Owned = makeCosts(Opts, Lib, nullptr, 1);
  EngineOptions EOpts = engineOptions(Opts);
  EOpts.CachePlans = true; // always memoize within the serving process
  Engine Eng(Lib, *Owned, EOpts);
  if (!checkBruteSpace(Eng, *Net))
    return 1;

  // Plan acquisition: a warm cache (from a previous 'warm'/'compile' run
  // or an earlier request in this process) skips the whole solve.
  Timer PlanTimer;
  SelectionResult R = Eng.optimize(*Net);
  double PlanMillis = PlanTimer.millis();
  if (R.Plan.empty()) {
    std::fprintf(stderr, "error: selection failed\n");
    return 1;
  }
  std::printf("# %s: plan %s in %.2f ms, modelled cost %.3f ms\n",
              Net->name().c_str(),
              R.PlanCacheHit ? "served from cache" : "solved cold",
              PlanMillis, R.ModelledCostMs);
  printPassStats(R);
  printServingCost(R);
  printPlanCacheStats(Eng);

  // --batch-ladder only makes sense behind the batcher (coalesced
  // batches are what the ladder serves), so it implies open-loop serving.
  if (Opts.OpenLoop || Opts.BatchLadder)
    return serveOpenLoop(Opts, Eng, *Net, R);
  // --jit implies compiled serving: the native object is a CompiledNet
  // artifact, so there is no jit variant of the plain Executor path.
  if (Opts.Compiled || Opts.Jit)
    return serveCompiled(Opts, Eng, *Net, R);

  ExecutorOptions XOpts;
  // --exec-threads widens the pool for the plan's intra-op worker counts;
  // each conv node is still capped at its assigned count.
  XOpts.Threads = std::max(Opts.Threads, Opts.ExecThreads);
  XOpts.UseArena = !Opts.NoArena;
  XOpts.ParallelBranches = Opts.Parallel;
  // R owns the pass-rewritten graph the executor runs (R outlives Exec).
  std::unique_ptr<Executor> Exec = Eng.instantiate(*Net, R, XOpts);

  const MemoryPlan &MP = Exec->compiled().memoryPlan();
  std::printf("# executor: %zu values, %zu levels, %s, %s\n",
              MP.Values.size(), MP.Levels.size(),
              XOpts.UseArena ? "arena" : "per-layer allocation",
              XOpts.ParallelBranches && Opts.Threads > 1
                  ? "parallel branches"
                  : "sequential");
  std::printf("# memory: arena %.2f MiB + persistent %.2f MiB vs %.2f MiB "
              "per-layer baseline (%u packed values)\n",
              static_cast<double>(Exec->arenaBytes()) / (1024.0 * 1024.0),
              static_cast<double>(MP.persistentBytes()) / (1024.0 * 1024.0),
              static_cast<double>(MP.BaselineBytes) / (1024.0 * 1024.0),
              MP.NumArenaValues);

  const TensorShape &Sh = Net->node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(11);
  std::vector<double> Latencies;
  Latencies.reserve(Opts.Requests);
  Timer Wall;
  for (unsigned I = 0; I < Opts.Requests; ++I)
    Latencies.push_back(Exec->run(Input).TotalMillis);
  printLatencySummary(Latencies, Wall.millis(), 1);
  return 0;
}

int cmdDumpPbqp(const CliOptions &Opts) {
  std::optional<NetworkGraph> Net = resolveNetwork(Opts.Target, Opts.Scale);
  if (!Net)
    return 1;
  if (!checkSolver(Opts))
    return 1;
  PrimitiveLibrary Lib = buildFullLibrary();
  std::unique_ptr<CostProvider> Owned = makeCosts(Opts, Lib, nullptr, Opts.Threads);
  Engine Eng(Lib, *Owned, engineOptions(Opts));
  PBQPFormulation F = Eng.formulate(*Net);
  std::printf("# PBQP instance for %s (%u nodes, %u edges)\n",
              Net->name().c_str(), F.G.numNodes(), F.G.numEdges());
  std::fputs(pbqp::dumpGraph(F.G).c_str(), stdout);
  return 0;
}

/// True if \p Command is one of the commands that needs a <model-or-file>.
bool requiresTarget(const std::string &Command) {
  return Command == "optimize" || Command == "codegen" ||
         Command == "dump-pbqp" || Command == "warm" ||
         Command == "compile" || Command == "serve";
}

bool isKnownCommand(const std::string &Command) {
  return Command == "models" || Command == "solvers" ||
         Command == "primitives" || requiresTarget(Command);
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  if (!parseArgs(argc, argv, Opts))
    return usage(argv[0]);

  // Reject unknown commands loudly (stderr + nonzero) before looking at
  // any other argument, so a typo never reads as success.
  if (!isKnownCommand(Opts.Command)) {
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 Opts.Command.c_str());
    return usage(argv[0]);
  }
  // Fleet mode names its networks via --models instead of a positional
  // target.
  bool FleetMode = Opts.Command == "serve" && !Opts.Models.empty();
  if (FleetMode && !Opts.Target.empty()) {
    std::fprintf(stderr, "error: serve takes either <model-or-file> or "
                         "--models LIST, not both\n");
    return usage(argv[0]);
  }
  if (!FleetMode && requiresTarget(Opts.Command) && Opts.Target.empty()) {
    std::fprintf(stderr, "error: command '%s' requires a <model-or-file>\n",
                 Opts.Command.c_str());
    return usage(argv[0]);
  }

  // Pass names feed PassPipeline::fromNames, which asserts; unknown names
  // must exit 2 with usage instead, and an explicitly supplied empty list
  // must not silently degrade to -O0.
  if (Opts.SawPassList && Opts.Passes.empty()) {
    std::fprintf(stderr, "error: --passes expects a non-empty "
                         "comma-separated pass list (or use -O0/-O1)\n");
    return usage(argv[0]);
  }
  for (const std::string &Name : Opts.Passes)
    if (!transforms::isKnownPass(Name)) {
      std::string Known;
      for (const std::string &K : transforms::knownPassNames())
        Known += (Known.empty() ? "" : ", ") + K;
      std::fprintf(stderr, "error: unknown pass '%s' (known passes: %s)\n",
                   Name.c_str(), Known.c_str());
      return usage(argv[0]);
    }

  // Apply the SIMD dispatch override before any kernel runs. "native"
  // re-asserts runtime detection; requests above what the hardware
  // supports fall back (reported so a forced-tier benchmark is never
  // silently comparing the wrong kernels).
  if (!Opts.SimdName.empty()) {
    gemm::SimdTier Want = gemm::detectSimdTier();
    if (Opts.SimdName == "scalar")
      Want = gemm::SimdTier::Scalar;
    else if (Opts.SimdName == "avx2")
      Want = gemm::SimdTier::AVX2;
    else if (Opts.SimdName == "avx512")
      Want = gemm::SimdTier::AVX512;
    gemm::SimdTier Got = gemm::setSimdTierOverride(Want);
    if (Got != Want)
      std::fprintf(stderr, "note: --simd %s unsupported here; using %s\n",
                   Opts.SimdName.c_str(), gemm::simdTierName(Got));
  }

  if (Opts.Command == "models")
    return cmdModels();
  if (Opts.Command == "solvers")
    return cmdSolvers();
  if (Opts.Command == "primitives")
    return cmdPrimitives(Opts);
  if (Opts.Command == "optimize")
    return cmdOptimize(Opts);
  if (Opts.Command == "codegen")
    return cmdCodegen(Opts);
  if (Opts.Command == "dump-pbqp")
    return cmdDumpPbqp(Opts);
  if (Opts.Command == "warm")
    return cmdWarm(Opts);
  if (Opts.Command == "compile")
    return cmdCompile(Opts);
  return cmdServe(Opts);
}
