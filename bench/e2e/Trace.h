//===- bench/e2e/Trace.h - In-memory spans, Chrome trace output -*- C++ -*-===//
//
// Part of primsel. See bench/e2e/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer of the
/// program, kept in memory and written once, at the end of a traced run, in
/// Chrome's trace-event format (load the file in chrome://tracing or
/// Perfetto). Request spans are async events whose id is the request's
/// index, so one request's scheduled/submit/queue/exec spans group together.
/// A disabled tracer records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_BENCH_E2E_TRACE_H
#define PRIMSEL_BENCH_E2E_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Microseconds on the benchmark's own steady clock since process start.
inline double nowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

/// One JSON string literal (names here are plain ASCII identifiers, model
/// and primitive names; quotes and backslashes are escaped regardless).
inline std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

/// A number as JSON with every significant digit.
inline std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Builds the `{"k": v, ...}` argument object of a span.
class Args {
public:
  Args &add(const std::string &Key, double V) {
    return raw(Key, jsonNumber(V));
  }
  Args &add(const std::string &Key, const std::string &V) {
    return raw(Key, jsonString(V));
  }
  std::string str() const { return "{" + Body + "}"; }

private:
  Args &raw(const std::string &Key, const std::string &V) {
    Body += (Body.empty() ? "" : ", ") + jsonString(Key) + ": " + V;
    return *this;
  }
  std::string Body;
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// A complete span [StartUs, EndUs] on the benchmark's timeline.
  void span(const std::string &Name, const char *Cat, double StartUs,
            double EndUs, const Args &A = Args()) {
    if (!Enabled)
      return;
    Events.push_back("{\"name\": " + jsonString(Name) + ", \"cat\": " +
                     jsonString(Cat) + ", \"ph\": \"X\", \"ts\": " +
                     jsonNumber(StartUs) + ", \"dur\": " +
                     jsonNumber(EndUs - StartUs) +
                     ", \"pid\": 1, \"tid\": 0, \"args\": " + A.str() +
                     "}");
  }

  /// One step of request \p Id: an async span sharing the request's id.
  void requestSpan(const std::string &Name, uint64_t Id, double StartUs,
                   double EndUs, const Args &A = Args()) {
    if (!Enabled)
      return;
    std::string Common = "\"name\": " + jsonString(Name) +
                         ", \"cat\": \"request\", \"id\": " +
                         std::to_string(Id) + ", \"pid\": 1, \"tid\": 1";
    Events.push_back("{" + Common + ", \"ph\": \"b\", \"ts\": " +
                     jsonNumber(StartUs) + ", \"args\": " + A.str() + "}");
    Events.push_back("{" + Common + ", \"ph\": \"e\", \"ts\": " +
                     jsonNumber(EndUs) + "}");
  }

  /// Counter values sampled now.
  void counter(const std::string &Name,
               const std::vector<std::pair<std::string, double>> &Values) {
    if (!Enabled)
      return;
    Args A;
    for (const auto &KV : Values)
      A.add(KV.first, KV.second);
    Events.push_back("{\"name\": " + jsonString(Name) +
                     ", \"ph\": \"C\", \"ts\": " + jsonNumber(nowUs()) +
                     ", \"pid\": 1, \"args\": " + A.str() + "}");
  }

  /// Write every recorded event to \p Path; false on I/O failure.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", F);
    for (size_t I = 0; I < Events.size(); ++I)
      std::fprintf(F, "%s%s\n", Events[I].c_str(),
                   I + 1 < Events.size() ? "," : "");
    std::fputs("]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  bool Enabled;
  std::vector<std::string> Events;
};

} // namespace e2e

#endif // PRIMSEL_BENCH_E2E_TRACE_H
