//===- serve/OpenLoop.h - Poisson open-loop load generator ------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two load generators that drive a serve::Server.
///
/// Open loop: requests arrive on a Poisson process at a configured rate,
/// independent of how fast the server completes them (arrivals are never
/// gated on responses). This is the arrival model that actually exercises
/// the dynamic batcher -- queues grow under saturation, the batching
/// window fills, and backpressure/deadline rejections become observable.
/// Inter-arrival gaps are sampled from the exponential distribution with
/// a deterministic Rng, so a given (rate, requests, seed) triple offers
/// the same arrival schedule every run; only the service side varies. One
/// function samples the schedule for every open-loop user: a Server, the
/// fleet (serve/Fleet.h), or a caller that submits its own way per
/// arrival.
///
/// Closed loop: a fixed number of clients each keep one request in flight
/// -- submit, wait for the response, submit the next -- so load tracks the
/// server's speed. This is the paper's measurement shape (§5: one forward
/// pass per request) run through the serving stack.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SERVE_OPENLOOP_H
#define PRIMSEL_SERVE_OPENLOOP_H

#include "serve/Server.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace primsel {
namespace serve {

struct OpenLoopOptions {
  /// Offered load: mean arrivals per second of the Poisson process.
  double RatePerSec = 100.0;
  /// Total requests to offer.
  unsigned Requests = 100;
  /// Relative SLO per request (0 = no deadline): each request's absolute
  /// deadline is its submit time plus this.
  TimeNs SloNs = 0;
  /// Seed for the exponential inter-arrival sampler.
  uint64_t Seed = 1;
};

/// What one open- or closed-loop run observed.
struct OpenLoopResult {
  unsigned Offered = 0;   ///< requests submitted
  unsigned Completed = 0; ///< resolved Ok
  unsigned Rejected = 0;  ///< any non-Ok terminal status
  unsigned DeadlineMisses = 0; ///< completed Ok but past the deadline
  /// End-to-end latency (submit -> response) of each Ok request, in
  /// milliseconds, in completion-collection order.
  std::vector<double> LatenciesMs;
  double WallMillis = 0.0;      ///< first submit -> last response collected
  double OfferedPerSec = 0.0;   ///< Offered / wall time
  double SustainedPerSec = 0.0; ///< Completed / wall time
};

/// Submits arrival \p I (0-based, in schedule order) with absolute
/// deadline \p DeadlineNs (0 = none) and returns its ticket.
using ArrivalFn = std::function<SubmitTicket(unsigned I, TimeNs DeadlineNs)>;

/// The Poisson schedule: sleep to each arrival, stamp it with \p Clk, and
/// hand it to \p Submit on this thread (time \p Submit spends makes the
/// next arrivals late; rejections surface as statuses). Futures are
/// collected after the schedule finishes; when \p Responses is non-null
/// it receives every terminal response in arrival order.
OpenLoopResult runOpenLoop(Clock &Clk, const ArrivalFn &Submit,
                           const OpenLoopOptions &Options,
                           std::vector<ServeResponse> *Responses = nullptr);

/// Drive \p Srv with Poisson arrivals cycling through \p Inputs. When
/// \p InputIndex is non-null it receives, per offered request, the index
/// into \p Inputs that was submitted; with \p Responses (same order) this
/// lets callers verify outputs bit-identically against a reference
/// executor.
OpenLoopResult runOpenLoop(Server &Srv, const std::vector<Tensor3D> &Inputs,
                           const OpenLoopOptions &Options,
                           std::vector<unsigned> *InputIndex = nullptr,
                           std::vector<ServeResponse> *Responses = nullptr);

/// Drive \p Srv with a closed loop: \p Clients threads each submit
/// \p Input, wait for the response and submit again, \p Requests in total
/// (split evenly). Latency is submit -> response. Size the server's
/// MaxQueue to at least \p Clients so no submit is refused.
OpenLoopResult runClosedLoop(Server &Srv, const Tensor3D &Input,
                             unsigned Clients, unsigned Requests);

} // namespace serve
} // namespace primsel

#endif // PRIMSEL_SERVE_OPENLOOP_H
