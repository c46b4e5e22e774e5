#include "netflow/solution.hpp"

#include "netflow/graph.hpp"
#include "netflow/internal_solvers.hpp"
#include "netflow/lower_bounds.hpp"
#include "netflow/select.hpp"

namespace lera::netflow {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kBadInstance:
      return "bad-instance";
    case SolveStatus::kBudgetExceeded:
      return "budget-exceeded";
    case SolveStatus::kUncertified:
      return "uncertified";
    case SolveStatus::kCancelled:
      return "cancelled";
    case SolveStatus::kMemoryExceeded:
      return "memory-exceeded";
  }
  return "unknown";
}

std::string to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSuccessiveShortestPaths:
      return "successive-shortest-paths";
    case SolverKind::kCycleCanceling:
      return "cycle-canceling";
    case SolverKind::kNetworkSimplex:
      return "network-simplex";
    case SolverKind::kAuto:
      return "auto";
  }
  return "unknown";
}

namespace internal {

FlowSolution budget_exceeded(SolverKind kind) {
  FlowSolution out;
  out.status = SolveStatus::kBudgetExceeded;
  out.message = to_string(kind) + ": iteration/time budget exhausted";
  return out;
}

}  // namespace internal

namespace {

/// The canonical cooperatively-cancelled verdict.
FlowSolution cancelled_solution(SolverKind kind) {
  FlowSolution out;
  out.status = SolveStatus::kCancelled;
  out.message = to_string(kind) + ": cancelled by caller";
  return out;
}

/// The typed allocation-failure verdict: a std::bad_alloc that escaped
/// a solver run (real OOM or an injected failpoint) becomes a status,
/// never a crash.
FlowSolution memory_exceeded_solution(SolverKind kind) {
  FlowSolution out;
  out.status = SolveStatus::kMemoryExceeded;
  out.message = to_string(kind) + ": allocation failed (out of memory)";
  return out;
}

FlowSolution solve_impl(const Graph& g, SolverKind kind, SolveGuard* guard,
                        SolverWorkspace* ws);

}  // namespace

FlowSolution solve(const Graph& g, SolverKind kind, SolveGuard* guard,
                   SolverWorkspace* ws) {
  try {
    return solve_impl(g, kind, guard, ws);
  } catch (const std::bad_alloc&) {
    // The workspace may hold partially grown scratch; that is fine —
    // it is validity-stamped/re-prepared per solve and still released
    // by its owner. Nothing else escaped the failed run.
    return memory_exceeded_solution(kind);
  }
}

namespace {

FlowSolution solve_impl(const Graph& g, SolverKind kind, SolveGuard* guard,
                        SolverWorkspace* ws) {
  if (g.total_supply() != 0) {
    FlowSolution bad;
    bad.status = SolveStatus::kBadInstance;
    bad.message = "unbalanced instance: total supply is " +
                  std::to_string(g.total_supply()) +
                  ", a feasible b-flow requires 0";
    return bad;
  }
  if (kind == SolverKind::kAuto) {
    kind = select_solver(measure_shape(g));
    if (ws != nullptr) ++ws->counters.auto_selections;
  }
  FlowSolution (*backend)(const Graph&, SolveGuard*, SolverWorkspace&) =
      nullptr;
  switch (kind) {
    case SolverKind::kSuccessiveShortestPaths:
      backend = internal::run_ssp;
      break;
    case SolverKind::kCycleCanceling:
      backend = internal::run_cycle_canceling;
      break;
    case SolverKind::kNetworkSimplex:
      backend = internal::run_network_simplex;
      break;
    case SolverKind::kAuto:
      break;  // Resolved above.
  }
  if (backend == nullptr) {
    FlowSolution bad;
    bad.status = SolveStatus::kBadInstance;
    bad.message = "unknown solver kind " +
                  std::to_string(static_cast<int>(kind));
    return bad;
  }
  if (guard != nullptr) {
    guard->start();
    // Cheap pre-flight: an already-cancelled request never reaches a
    // solver (and never pays the lower-bound reduction below).
    if (guard->cancel.cancelled()) {
      guard->cancelled = true;
      guard->exceeded = true;
      return cancelled_solution(kind);
    }
  }

  // Solvers report any guard trip as kBudgetExceeded; rewrite the runs
  // the token stopped so callers can tell a withdrawn request from an
  // exhausted budget.
  auto relabel_cancelled = [&](FlowSolution sol) {
    if (guard != nullptr && guard->cancelled &&
        sol.status == SolveStatus::kBudgetExceeded) {
      return cancelled_solution(kind);
    }
    return sol;
  };

  // "No workspace" becomes a throwaway local arena here, so backends
  // never carry their own fallback plumbing.
  auto run = [&](const Graph& instance) {
    if (ws != nullptr) return relabel_cancelled(backend(instance, guard, *ws));
    SolverWorkspace local;
    return relabel_cancelled(backend(instance, guard, local));
  };

  if (!g.has_lower_bounds()) return run(g);

  const LowerBoundReduction red = remove_lower_bounds(g);
  FlowSolution sol = run(red.reduced);
  if (!sol.optimal()) return sol;
  sol.arc_flow = restore_lower_bounds(red, sol.arc_flow);
  sol.cost += red.fixed_cost;
  return sol;
}

}  // namespace

FlowSolution solve_st_flow(const Graph& g, NodeId s, NodeId t, Flow value,
                           SolverKind kind, SolveGuard* guard,
                           SolverWorkspace* ws) {
  Graph copy = g;
  copy.add_supply(s, value);
  copy.add_supply(t, -value);
  return solve(copy, kind, guard, ws);
}

}  // namespace lera::netflow
