//===- serve/OpenLoop.cpp -------------------------------------------------===//

#include "serve/OpenLoop.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

using namespace primsel;
using namespace primsel::serve;

namespace {

using SteadyTime = std::chrono::steady_clock::time_point;

/// Count one terminal response into \p Res.
void tally(OpenLoopResult &Res, const ServeResponse &R) {
  if (!R.ok()) {
    ++Res.Rejected;
    return;
  }
  ++Res.Completed;
  if (R.MissedDeadline)
    ++Res.DeadlineMisses;
  Res.LatenciesMs.push_back(R.totalMillis());
}

/// Stamp \p Res with the wall time since \p Start and the rates over it.
void finish(OpenLoopResult &Res, SteadyTime Start) {
  double WallNs = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  Res.WallMillis = WallNs / static_cast<double>(nsPerMs);
  if (WallNs > 0.0) {
    Res.OfferedPerSec = static_cast<double>(Res.Offered) * nsPerSec / WallNs;
    Res.SustainedPerSec =
        static_cast<double>(Res.Completed) * nsPerSec / WallNs;
  }
}

} // namespace

OpenLoopResult
primsel::serve::runOpenLoop(Clock &Clk, const ArrivalFn &Submit,
                            const OpenLoopOptions &Options,
                            std::vector<ServeResponse> *Responses) {
  assert(Options.RatePerSec > 0.0 && "arrival rate must be positive");

  OpenLoopResult Result;
  if (Responses)
    Responses->clear();

  Rng Gaps(Options.Seed);
  std::vector<SubmitTicket> Tickets;
  Tickets.reserve(Options.Requests);

  SteadyTime Start = std::chrono::steady_clock::now();
  double NextArrivalNs = 0.0;
  for (unsigned I = 0; I < Options.Requests; ++I) {
    // Exponential inter-arrival gap: -ln(1-U)/rate, U in [0,1).
    double U = Gaps.nextFloat();
    NextArrivalNs +=
        -std::log(1.0 - U) * static_cast<double>(nsPerSec) / Options.RatePerSec;
    // Open loop: pace to the schedule, never to the server. If the server
    // falls behind, arrivals keep coming and the queue absorbs (or
    // rejects) them.
    std::this_thread::sleep_until(
        Start + std::chrono::nanoseconds(static_cast<int64_t>(NextArrivalNs)));
    TimeNs Deadline = Options.SloNs != 0 ? Clk.now() + Options.SloNs : 0;
    Tickets.push_back(Submit(I, Deadline));
  }
  Result.Offered = Options.Requests;

  for (SubmitTicket &T : Tickets) {
    ServeResponse R = T.Response.get();
    tally(Result, R);
    if (Responses)
      Responses->push_back(std::move(R));
  }
  finish(Result, Start);
  return Result;
}

OpenLoopResult primsel::serve::runOpenLoop(
    Server &Srv, const std::vector<Tensor3D> &Inputs,
    const OpenLoopOptions &Options, std::vector<unsigned> *InputIndex,
    std::vector<ServeResponse> *Responses) {
  assert(!Inputs.empty() && "open loop needs at least one input tensor");
  if (InputIndex)
    InputIndex->clear();
  return runOpenLoop(
      Srv.clock(),
      [&](unsigned I, TimeNs Deadline) {
        unsigned Idx = I % static_cast<unsigned>(Inputs.size());
        if (InputIndex)
          InputIndex->push_back(Idx);
        return Srv.submit(Inputs[Idx], Deadline);
      },
      Options, Responses);
}

OpenLoopResult primsel::serve::runClosedLoop(Server &Srv,
                                             const Tensor3D &Input,
                                             unsigned Clients,
                                             unsigned Requests) {
  Clients = std::max(1u, Clients);
  OpenLoopResult Result;
  Result.Offered = Requests;
  Result.LatenciesMs.reserve(Requests);
  std::mutex ResultMutex;

  SteadyTime Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      unsigned Share = Requests / Clients + (C < Requests % Clients ? 1 : 0);
      for (unsigned I = 0; I < Share; ++I) {
        ServeResponse R = Srv.submit(Input).Response.get();
        std::lock_guard<std::mutex> G(ResultMutex);
        tally(Result, R);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  finish(Result, Start);
  return Result;
}
