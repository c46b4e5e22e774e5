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
    case SolverKind::kCostScaling:
      return "cost-scaling";
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

namespace {

constexpr SolverBackend kBackends[] = {
    {SolverKind::kSuccessiveShortestPaths, "ssp", run_ssp},
    {SolverKind::kCycleCanceling, "cycle-canceling", run_cycle_canceling},
    {SolverKind::kNetworkSimplex, "simplex", run_network_simplex},
    {SolverKind::kCostScaling, "cost-scaling", run_cost_scaling},
};

/// Resolves a null workspace to a throwaway local arena for solve().
FlowSolution run_backend(const SolverBackend& backend, const Graph& g,
                         SolveGuard* guard, SolverWorkspace* ws) {
  if (ws != nullptr) return backend.fn(g, guard, *ws);
  SolverWorkspace local;
  return backend.fn(g, guard, local);
}

}  // namespace

std::span<const SolverBackend> solver_backends() { return kBackends; }

const SolverBackend* find_backend(SolverKind kind) {
  for (const SolverBackend& b : kBackends) {
    if (b.kind == kind) return &b;
  }
  return nullptr;
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
  const internal::SolverBackend* backend = internal::find_backend(kind);
  if (backend == nullptr) {
    FlowSolution bad;
    bad.status = SolveStatus::kBadInstance;
    bad.message = "no registered backend for solver kind " +
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

  if (!g.has_lower_bounds()) {
    return relabel_cancelled(internal::run_backend(*backend, g, guard, ws));
  }

  const LowerBoundReduction red = remove_lower_bounds(g);
  FlowSolution sol =
      relabel_cancelled(internal::run_backend(*backend, red.reduced, guard, ws));
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
