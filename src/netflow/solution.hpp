#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "netflow/cancel.hpp"
#include "netflow/types.hpp"

/// \file solution.hpp
/// Result types shared by all minimum-cost flow solvers.

namespace lera::netflow {

class Graph;
struct SolverWorkspace;

/// Outcome of a solve attempt.
enum class SolveStatus {
  kOptimal,         ///< An optimal feasible flow was found.
  kInfeasible,      ///< No flow satisfies the supplies / lower bounds.
  kBadInstance,     ///< The instance violates a precondition (for example
                    ///< unbalanced supplies); nothing was solved.
  kBudgetExceeded,  ///< An iteration or wall-time budget ran out first.
  kUncertified,     ///< Every solver in a robust fallback chain produced
                    ///< an answer that failed independent certification;
                    ///< the returned flow must not be trusted.
  kCancelled,       ///< A CancelToken fired: the caller withdrew the
                    ///< request (session cancel, engine shutdown); the
                    ///< run wound down cooperatively, nothing is wrong
                    ///< with the instance or the solver.
  kMemoryExceeded,  ///< A MemoryBudget refused the solve's predicted
                    ///< footprint, or an allocation actually failed
                    ///< (std::bad_alloc caught at the solve boundary);
                    ///< either way a typed verdict, never a crash.
};

/// Human-readable name of a status, for logs and test messages.
std::string to_string(SolveStatus status);

/// A (candidate) solution to a b-flow instance.
struct FlowSolution {
  SolveStatus status = SolveStatus::kInfeasible;
  /// Flow on every arc, indexed by ArcId of the input Graph. Empty when
  /// the instance is infeasible / rejected / out of budget.
  std::vector<Flow> arc_flow;
  /// Total cost sum_a cost(a)*flow(a) of the returned flow.
  Cost cost = 0;
  /// Diagnostic for kBadInstance / kBudgetExceeded outcomes ("" for the
  /// ordinary optimal and infeasible verdicts).
  std::string message;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// Cooperative budget for one solver run. Solvers call tick() once per
/// major iteration (SSP augmentation, simplex pivot, cycle cancellation)
/// and abandon the run with kBudgetExceeded when it returns false. Zero
/// limits mean "unlimited".
///
/// The wall clock (and the cancel token) is polled adaptively: the poll
/// stride starts at one iteration and doubles up to 256, and each poll
/// re-plans the next one from the measured per-iteration cost so that at
/// most ~half the remaining budget can elapse between polls. Fast
/// iterations therefore pay one clock read per 256 ticks in steady
/// state, while slow iterations (milliseconds each) get per-tick polling
/// near the budget — a 10 ms budget stops within a small multiple of
/// 10 ms either way, which the old fixed every-256-ticks poll could not
/// guarantee.
struct SolveGuard {
  std::int64_t max_iterations = 0;  ///< 0 = unlimited.
  double max_seconds = 0;           ///< 0 = unlimited (wall clock).
  /// Optional cooperative cancellation: when the token fires, tick()
  /// returns false at the next poll and `cancelled` is set, so every
  /// solver in the system is cancellable mid-run.
  CancelToken cancel;

  std::int64_t iterations = 0;  ///< Out: iterations consumed so far.
  bool exceeded = false;        ///< Out: true once a limit tripped.
  bool cancelled = false;       ///< Out: the cancel token (not a budget)
                                ///< stopped the run.
  bool time_exceeded = false;   ///< Out: the wall clock (not iterations)
                                ///< tripped the budget.

  /// Stamps the reference point for max_seconds. Called by solve().
  void start() {
    start_time_ = std::chrono::steady_clock::now();
    next_poll_ = 1;
    stride_ = 1;
  }

  /// Accounts one iteration; false once any budget is exhausted or the
  /// cancel token fired.
  bool tick() {
    if (exceeded) return false;
    ++iterations;
    if (max_iterations > 0 && iterations > max_iterations) {
      exceeded = true;
      return false;
    }
    if (iterations >= next_poll_) return poll();
    return true;
  }

 private:
  static constexpr std::int64_t kMaxStride = 256;

  /// Slow path of tick(): checks the token and the clock, then plans the
  /// next poll.
  bool poll() {
    if (cancel.cancelled()) {
      cancelled = true;
      exceeded = true;
      return false;
    }
    if (max_seconds <= 0) {
      // Nothing time-based to watch; keep a fixed stride for the token
      // (or stop polling entirely when there is no token either).
      next_poll_ = cancel.valid()
                       ? iterations + kMaxStride
                       : std::numeric_limits<std::int64_t>::max();
      return true;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time_)
            .count();
    const double remaining = max_seconds - elapsed;
    if (remaining <= 0) {
      time_exceeded = true;
      exceeded = true;
      return false;
    }
    // Exponential ramp bounded by the time-based estimate: never let
    // more than ~half the remaining budget pass before the next poll.
    stride_ = std::min(stride_ * 2, kMaxStride);
    if (elapsed > 0 && iterations > 0) {
      const double per_tick = elapsed / static_cast<double>(iterations);
      const double bound = remaining / (2.0 * per_tick);
      if (bound < static_cast<double>(stride_)) {
        stride_ = bound < 1.0 ? 1 : static_cast<std::int64_t>(bound);
      }
    }
    next_poll_ = iterations + stride_;
    return true;
  }

  std::chrono::steady_clock::time_point start_time_{
      std::chrono::steady_clock::now()};
  std::int64_t next_poll_ = 1;
  std::int64_t stride_ = 1;
};

/// Available algorithms. All produce identical (optimal) objective values;
/// they differ only in running time characteristics.
enum class SolverKind {
  kSuccessiveShortestPaths,  ///< Dijkstra-with-potentials augmentation.
  kCycleCanceling,           ///< Feasible flow + Bellman-Ford cycle cancel.
  kNetworkSimplex,           ///< Primal network simplex.
  /// Per-instance choice between SSP and the simplex by the flow value
  /// (select_solver in select.hpp). Keeps the value 4 it had beside a
  /// since-removed fourth backend: gtest prints a parameter's bytes
  /// into test names, so the `*/Auto` cases keep their names.
  kAuto = 4,
};

std::string to_string(SolverKind kind);

/// Solves the b-flow instance described by \p g (supplies, lower bounds,
/// capacities, costs) to optimality.
///
/// Unbalanced instances (g.total_supply() != 0) are rejected with
/// kBadInstance; arcs may carry negative costs and nonzero lower bounds.
/// An optional \p guard imposes iteration / wall-time budgets on the run
/// (kBudgetExceeded when they run out). An optional \p ws lends the
/// solver reusable scratch storage (see workspace.hpp); passing one
/// never changes the result, only allocation behavior.
FlowSolution solve(const Graph& g,
                   SolverKind kind = SolverKind::kSuccessiveShortestPaths,
                   SolveGuard* guard = nullptr, SolverWorkspace* ws = nullptr);

}  // namespace lera::netflow
