#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netflow/cancel.hpp"
#include "netflow/graph.hpp"
#include "netflow/membudget.hpp"
#include "netflow/solution.hpp"
#include "netflow/warm.hpp"
#include "netflow/workspace.hpp"

/// \file robust.hpp
/// The guarded solve path: validate the instance, run the primary solver
/// under an iteration/time budget, fall back through a configurable
/// solver chain on failure, and certify every accepted answer against
/// the independent checks in validate.hpp. Real min-cost-flow codes are
/// known to diverge on degenerate instances (Kiraly & Kovacs 2012), so
/// production callers (the allocator, the pipeline) go through
/// solve_robust instead of trusting any single algorithm.

namespace lera::netflow {

/// How much of validate.hpp to run on every accepted answer.
enum class CertifyLevel {
  kFeasible,  ///< check_feasible + exact cost recomputation.
  kOptimal,   ///< kFeasible plus the residual negative-cycle certificate.
};

std::string to_string(CertifyLevel level);

/// Options for solve_robust.
struct SolveOptions {
  /// Solvers to try, in order, each at most once: an answer that flunks
  /// certification falls through to the next entry, never to a re-run
  /// of the same deterministic backend. Empty selects the default chain
  /// network simplex -> successive shortest paths. Cycle canceling is
  /// the differential oracle and runs only when listed explicitly.
  /// A SolverKind::kAuto entry is expanded in place by the shape-based
  /// selector (select.hpp) before any attempt runs; the chosen backend
  /// and the driving instance features land in SolveDiagnostics.
  std::vector<SolverKind> chain;
  /// Per-attempt iteration budget (0 = unlimited); see SolveGuard.
  std::int64_t max_iterations_per_solver = 0;
  /// Certification applied to every optimal answer before accepting it.
  /// An infeasible verdict also needs a second solver's confirmation
  /// (when the chain has one): a buggy solver can report infeasible just
  /// as it can report a wrong optimum.
  CertifyLevel certify = CertifyLevel::kOptimal;

  /// Cooperative cancellation: observed between attempts and, through
  /// SolveGuard, inside every solver iteration. A fired token returns
  /// kCancelled (and is never degraded — the caller withdrew the
  /// request).
  CancelToken cancel;
  /// Absolute wall-clock deadline shared by all attempts of the robust
  /// solve (default: unlimited). Expiry surfaces as kBudgetExceeded
  /// with SolveDiagnostics::deadline_hit.
  Deadline deadline;
  /// Optional memory budget (membudget.hpp). Before each solver attempt
  /// the predicted footprint of that backend on this instance
  /// (estimate_solver_bytes) is charged against the budget; a refusal
  /// skips the attempt with a kMemoryExceeded verdict and falls through
  /// the chain exactly like a budget trip, so a cheaper backend can
  /// still answer. The charge is released when the attempt ends — the
  /// budget's used() returns to its pre-solve value on every path. A
  /// default-constructed (invalid) budget is inert. An std::bad_alloc
  /// escaping a solver is also mapped to kMemoryExceeded here.
  MemoryBudget memory_budget;

  /// Optional reusable scratch arena (workspace.hpp) lent to every
  /// solver attempt; also accumulates the perf counters reported in
  /// SolveDiagnostics::perf. Never owned; must not be shared with a
  /// concurrently running solve. Results are identical with or without.
  SolverWorkspace* workspace = nullptr;
  /// Optional warm-start cache (warm.hpp). When the cache holds a prior
  /// optimal flow for this topology, a warm resolve is attempted before
  /// the solver chain; its answer is certified like a cold one, and any
  /// failure falls back to the cold chain. Certified optimal answers —
  /// warm or cold — refresh the cache. Never owned; single solve stream
  /// at a time.
  WarmStartCache* warm_cache = nullptr;

  /// Test-only seam: invoked on every solver answer that claims
  /// optimality, before certification. The fault-injection harness uses
  /// it to prove the certification layer catches corrupted solutions.
  using SolutionHook = std::function<void(const Graph&, FlowSolution&)>;
  SolutionHook post_solve_hook;
};

/// Outcome of validate_instance: errors reject the instance outright,
/// warnings flag numerically suspicious (but solvable) data.
struct InstanceReport {
  std::vector<std::string> errors;
  std::vector<std::string> warnings;

  bool ok() const { return errors.empty(); }
};

/// Pre-solve sanity checks: supply balance, bound sanity
/// (0 <= lower <= upper <= kInfFlow), cost magnitudes within kInfCost,
/// and an overflow-checked worst-case |cost|*capacity sum.
InstanceReport validate_instance(const Graph& g);

/// One solver attempt inside solve_robust, for diagnostics.
struct SolveAttempt {
  SolverKind solver = SolverKind::kSuccessiveShortestPaths;
  SolveStatus status = SolveStatus::kInfeasible;
  std::int64_t iterations = 0;  ///< Guard ticks consumed.
  double seconds = 0;           ///< Wall time of this attempt.
  bool certified = false;       ///< Passed the configured certification.
  std::string note;             ///< Why the attempt was rejected, if it was.
};

/// Verdict of the certification layer over the whole robust solve.
enum class CertificationVerdict {
  kNotRun,  ///< No optimal answer to certify.
  kPassed,  ///< The returned answer passed every configured check.
  kFailed,  ///< Every solver's answer failed certification.
};

std::string to_string(CertificationVerdict verdict);

/// Everything solve_robust observed, for logs, reports and tests.
struct SolveDiagnostics {
  std::vector<std::string> instance_errors;
  std::vector<std::string> instance_warnings;
  std::vector<SolveAttempt> attempts;
  /// Solver whose answer was returned (valid when the returned status is
  /// kOptimal).
  SolverKind solver_used = SolverKind::kSuccessiveShortestPaths;
  /// Attempts beyond the first, certification re-solves included.
  int fallbacks_taken = 0;
  /// The cancel token stopped the solve (status kCancelled).
  bool cancelled = false;
  /// The wall clock — the deadline, not the iteration cap — ended the
  /// solve.
  bool deadline_hit = false;
  /// A MemoryBudget denial or a caught std::bad_alloc ended at least one
  /// attempt (see SolveOptions::memory_budget).
  bool memory_hit = false;
  /// Predicted peak footprint charged per attempt, in bytes (largest
  /// over the attempts; 0 when no budget was configured).
  std::int64_t memory_estimated_bytes = 0;
  CertificationVerdict certification = CertificationVerdict::kNotRun;
  /// A warm-start resolve actually ran (the cache matched the topology).
  bool warm_start_attempted = false;
  /// The returned answer came from the warm-start path.
  bool warm_start_hit = false;
  /// A certified optimal answer was offered to the warm-start cache
  /// (only when SolveOptions::warm_cache was configured).
  bool warm_store_attempted = false;
  /// Typed outcome of that store: anything but kStored means the cache
  /// kept its previous entry and stayed cold for this topology — the
  /// ineffectiveness used to be silent; now it is counted
  /// (PerfCounters::warm_store_rejects) and noted here.
  WarmStoreOutcome warm_store = WarmStoreOutcome::kStored;
  /// The chain contained SolverKind::kAuto and the shape-based selector
  /// expanded it.
  bool auto_selected = false;
  /// Backend the selector picked (valid when auto_selected).
  SolverKind auto_choice = SolverKind::kSuccessiveShortestPaths;
  /// Instance features that drove the choice (InstanceShape::summary()).
  std::string auto_features;
  /// Solver performance counters for THIS solve (heap traffic,
  /// augmentations, per-phase nanoseconds; see workspace.hpp glossary).
  PerfCounters perf;
  double wall_seconds = 0;        ///< Whole robust solve, validation included.
  std::int64_t iterations = 0;    ///< Guard ticks summed over all attempts.
  std::string message;            ///< One-line human-readable outcome.

  /// Compact "status solver=... fallbacks=N cert=..." line for reports.
  std::string summary() const;
};

/// Validated + budgeted + certified min-cost flow solve. Never throws
/// and never trips solver-internal asserts on malformed instances:
/// those come back as kBadInstance, budget exhaustion as
/// kBudgetExceeded, and a chain whose every answer flunks certification
/// as kUncertified. \p diagnostics (optional) receives the full story.
FlowSolution solve_robust(const Graph& g, const SolveOptions& options = {},
                          SolveDiagnostics* diagnostics = nullptr);

/// solve_st_flow through the robust path: adds +/-value at s/t on a
/// copy of \p g and calls solve_robust.
FlowSolution solve_st_flow_robust(const Graph& g, NodeId s, NodeId t,
                                  Flow value,
                                  const SolveOptions& options = {},
                                  SolveDiagnostics* diagnostics = nullptr);

}  // namespace lera::netflow
