#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "expected.hpp"
#include "inputs.hpp"
#include "server/server.hpp"

/// \file runs.hpp
/// The untraced runs that produce the end-to-end metrics, plus the
/// server clients (open and closed loop) the traced server runs reuse.

namespace perfbench {

struct RunArgs {
  Workload workload = Workload::kCompileLarge;
  std::uint64_t seed = 1;
  double seconds = 10;
  const ExpectedMap* expected = nullptr;
};

/// Set-up is repeated at least this many times per run and its median
/// reported, so one slow construction does not move setup_s.
inline constexpr int kSetupRepeats = 3;

/// Runs one workload untraced, checks every output against the expected
/// objectives and emits every end-to-end metric.
Outcome run_untraced(const RunArgs& args);

/// The traced run (replay.cpp): replays the workload's inputs stage by
/// stage through the public library functions with a span per call,
/// beside the untraced entry-point call for the same input, checks both
/// against the expected objectives, emits every per-layer metric and
/// writes the spans to \p trace_path.
Outcome run_traced(const RunArgs& args, const std::string& trace_path);

/// Books one solved request against its expected objective.
void check_result(const lera::alloc::AllocationResult& r,
                  const lera::alloc::AllocationProblem& p, std::uint64_t key,
                  const ExpectedMap& expected, Outcome& out,
                  const std::string& what);

/// What the server itself reported over a run.
struct ServerSide {
  /// Server::metrics() window medians, sampled through the run.
  std::vector<double> window_hit_p50_ms;
  std::vector<double> window_solve_p50_ms;
  std::vector<double> window_queue_p50_ms;
  lera::server::MetricsSnapshot snapshot;  ///< At the end of the run.
  std::map<std::string, double> stats;     ///< STATS LERA_METRIC lines.
};

/// What one open-loop serve-repeat pass observed.
struct ServeObservation {
  std::vector<double> latency_ms;       ///< From due time, answered results.
  std::vector<double> miss_latency_ms;  ///< The same, cached=0 only.
  std::vector<double> transport_ms;     ///< Client round trip minus the
                                        ///< server's own latency_ms.
  std::vector<double> gen_late_ms;      ///< Send time minus due time.
  ServerSide server;
  double elapsed_s = 0;
  std::int64_t answered = 0;
  /// Jittered or cold requests answered cached=1 on their first
  /// occurrence in send order.
  std::int64_t first_occurrence_hits = 0;
};

/// Sends \p in.stream at kServeRate over two connections to \p server,
/// checks every answer and books failures into \p out.
ServeObservation drive_server(lera::server::Server& server,
                              const ServeInputs& in,
                              const ExpectedMap& expected, Outcome& out);

/// What a serve-hits closed loop observed.
struct LoopObservation {
  std::vector<double> latency_ms;    ///< From send, answered results.
  std::vector<double> transport_ms;  ///< Client round trip minus the
                                     ///< server's own latency_ms.
  std::int64_t answered = 0;
  std::int64_t hits = 0;  ///< Answers served from the cache.
  double elapsed_s = 0;
  /// One answer line per distinct problem, for the audit.
  std::map<std::uint64_t, std::pair<const ServeRequest*, std::string>>
      first_answer;
  ServerSide server;  ///< Filled when asked to observe the server.
};

/// Sends \p requests to \p server over two connections, each keeping
/// kHitsInFlight requests outstanding and sending its next request as
/// an answer arrives. With \p seconds > 0 the requests repeat until that
/// time is up; with 0 each is sent once. Checks every answer against
/// the expected objectives and books failures into \p out.
LoopObservation closed_loop(lera::server::Server& server,
                            const std::vector<ServeRequest>& requests,
                            double seconds, const ExpectedMap& expected,
                            Outcome& out, bool observe_server);

/// Audits every answer in \p obs.first_answer at full cost.
void audit_first_answers(const lera::server::Server& server,
                         const LoopObservation& obs, Outcome& out);

/// The run is invalid when the generator itself fell behind by more
/// than this at p99: latency would then describe the load generator.
inline constexpr double kMaxGenLateP99Ms = 20.0;

/// The generator sleeps until this long before a request is due and
/// spins for the rest, so its own wake-up delay (timer slack, scheduler)
/// does not count as server latency.
inline constexpr std::chrono::microseconds kSendSpin{250};

}  // namespace perfbench
