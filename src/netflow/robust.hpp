#pragma once

#include <array>
#include <atomic>
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
  kNone,      ///< Trust the solver (fastest; test/bench only).
  kFeasible,  ///< check_feasible + exact cost recomputation.
  kOptimal,   ///< kFeasible plus the residual negative-cycle certificate.
};

std::string to_string(CertifyLevel level);

/// Per-SolverKind circuit breaker, shared by many solve_robust calls
/// (one lives in engine::Engine). A solver whose answers keep flunking
/// certification is producing garbage — transient faults are healed by
/// retry, but after `threshold` *consecutive* certification failures the
/// breaker opens and the solver is skipped on subsequent solves instead
/// of burning a full solve per request to rediscover the fault. A
/// certified answer resets the count. Thread-safe; opening is sticky
/// until reset().
class CircuitBreaker {
 public:
  explicit CircuitBreaker(int threshold = 3) : threshold_(threshold) {}

  /// False once the breaker for \p kind is open (solver must be skipped).
  bool allow(SolverKind kind) const { return !open(kind); }

  bool open(SolverKind kind) const {
    return threshold_ > 0 && failures(kind) >= threshold_;
  }

  void record_failure(SolverKind kind) {
    slot(kind).fetch_add(1, std::memory_order_acq_rel);
  }

  void record_success(SolverKind kind) {
    slot(kind).store(0, std::memory_order_release);
  }

  int failures(SolverKind kind) const {
    return slot(kind).load(std::memory_order_acquire);
  }

  int threshold() const { return threshold_; }

  /// Closes every breaker (new run, new luck).
  void reset() {
    for (auto& f : failures_) f.store(0, std::memory_order_release);
  }

  /// Solver kinds whose breaker is currently open, as display names.
  std::vector<std::string> open_solvers() const;

 private:
  // One slot per SolverKind enumerator (kAuto included, so a kAuto key
  // can never alias a concrete solver's failure count).
  static constexpr int kNumKinds = 5;

  std::atomic<int>& slot(SolverKind kind) {
    return failures_[static_cast<std::size_t>(kind) % kNumKinds];
  }
  const std::atomic<int>& slot(SolverKind kind) const {
    return failures_[static_cast<std::size_t>(kind) % kNumKinds];
  }

  int threshold_;
  std::array<std::atomic<int>, kNumKinds> failures_{};
};

/// Options for solve_robust.
struct SolveOptions {
  /// Solvers to try, in order. Empty selects the default chain
  /// network simplex -> successive shortest paths. Cycle canceling is
  /// the differential oracle and runs only when listed explicitly.
  /// A SolverKind::kAuto entry is expanded in place by the shape-based
  /// selector (select.hpp) before any attempt runs; the chosen backend
  /// and the driving instance features land in SolveDiagnostics.
  std::vector<SolverKind> chain;
  /// Per-attempt iteration budget (0 = unlimited); see SolveGuard.
  std::int64_t max_iterations_per_solver = 0;
  /// Wall-time budget shared by all attempts (0 = unlimited).
  double max_seconds_total = 0;
  /// Certification applied to every optimal answer before accepting it.
  CertifyLevel certify = CertifyLevel::kOptimal;
  /// Require a second solver to confirm an infeasible verdict (when the
  /// chain has one and certification is enabled): a buggy solver can
  /// report infeasible just as it can report a wrong optimum.
  bool cross_check_infeasible = true;

  /// Cooperative cancellation: observed between attempts and, through
  /// SolveGuard, inside every solver iteration. A fired token returns
  /// kCancelled (and is never retried or degraded — the caller withdrew
  /// the request).
  CancelToken cancel;
  /// Absolute wall-clock deadline for the whole robust solve, combined
  /// with max_seconds_total by taking whichever is tighter. Expiry
  /// surfaces as kBudgetExceeded with SolveDiagnostics::deadline_hit.
  Deadline deadline;
  /// Re-run a solver whose optimality claim flunked certification up to
  /// this many times before falling through the chain. Deterministic
  /// solvers cannot change an infeasible or budget verdict, so only
  /// certification failures — the transient-fault signature — retry.
  int max_retries_per_solver = 0;
  /// Base of the seeded, jittered exponential backoff slept between
  /// retries: sleep = base * 2^retry * U[0.5, 1), capped by the
  /// remaining time budget. 0 (default) retries immediately.
  double retry_backoff_seconds = 0;
  /// Seed of the backoff jitter (splitmix64; deterministic per solve).
  std::uint64_t retry_seed = 1;
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
  /// Optional shared circuit breaker consulted per chain entry; open
  /// solvers are skipped (recorded in SolveDiagnostics::breaker_skips)
  /// and certification outcomes are reported back to it. The breaker
  /// must outlive the solve; solve_robust never takes ownership.
  CircuitBreaker* breaker = nullptr;

  /// Optional reusable scratch arena (workspace.hpp) lent to every
  /// solver attempt; also accumulates the perf counters reported in
  /// SolveDiagnostics::perf. Never owned; must not be shared with a
  /// concurrently running solve. Results are identical with or without.
  SolverWorkspace* workspace = nullptr;
  /// Optional warm-start cache (warm.hpp). When the cache holds a prior
  /// optimal flow for this topology, a warm resolve is attempted before
  /// the solver chain; its answer is ALWAYS certified (at least
  /// kFeasible, even under CertifyLevel::kNone), and any failure falls
  /// back to the cold chain. Certified optimal answers — warm or cold —
  /// refresh the cache. Never owned; single solve stream at a time.
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
  int retry = 0;                ///< 0 = first run of this solver; N = Nth
                                ///< transient-failure re-run.
  std::string note;             ///< Why the attempt was rejected, if it was.
};

/// Verdict of the certification layer over the whole robust solve.
enum class CertificationVerdict {
  kNotRun,  ///< CertifyLevel::kNone, or no optimal answer to certify.
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
  /// Transient-failure re-runs taken (see SolveOptions::max_retries_per_solver).
  int retries = 0;
  /// The cancel token stopped the solve (status kCancelled).
  bool cancelled = false;
  /// The wall clock — max_seconds_total or the deadline, not the
  /// iteration cap — ended the solve.
  bool deadline_hit = false;
  /// A MemoryBudget denial or a caught std::bad_alloc ended at least one
  /// attempt (see SolveOptions::memory_budget).
  bool memory_hit = false;
  /// Predicted peak footprint charged per attempt, in bytes (largest
  /// over the attempts; 0 when no budget was configured).
  std::int64_t memory_estimated_bytes = 0;
  /// Solvers skipped because their circuit breaker was open, as display
  /// names, in chain order.
  std::vector<std::string> breaker_skips;
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
