#pragma once

#include <span>

#include "netflow/graph.hpp"
#include "netflow/solution.hpp"
#include "netflow/workspace.hpp"

/// \file internal_solvers.hpp
/// The solver-backend registry and the entry points of the individual
/// algorithms. All require an instance with zero lower bounds (use
/// remove_lower_bounds() first); the public solve() wrapper in
/// solution.hpp takes care of that, and of rejecting unbalanced
/// instances. Each backend honours an optional SolveGuard by ticking it
/// once per major iteration and returning kBudgetExceeded when it
/// trips, and reuses the scratch arrays of the SolverWorkspace it is
/// handed instead of allocating (results are identical either way).

namespace lera::netflow::internal {

/// Returns the canonical budget-exhausted verdict.
FlowSolution budget_exceeded(SolverKind kind);

/// One registered algorithm. The workspace reference is mandatory at
/// this layer: "no workspace" has already been resolved to a throwaway
/// local arena by solve(), so backends never carry their own fallback
/// plumbing. Everything that runs a solver — solve()'s dispatch,
/// solve_robust's fallback chain and the kAuto selector — routes
/// through this table.
struct SolverBackend {
  SolverKind kind;
  /// Stable short name for flags and logs ("ssp", "simplex", ...).
  const char* name;
  FlowSolution (*fn)(const Graph& g, SolveGuard* guard, SolverWorkspace& ws);
};

/// Every concrete backend, in SolverKind declaration order. kAuto is a
/// selection policy, not an algorithm, and never appears here.
std::span<const SolverBackend> solver_backends();

/// Registry lookup; nullptr for kAuto (resolve it first via
/// select_solver) and for out-of-range kinds.
const SolverBackend* find_backend(SolverKind kind);

/// Successive shortest paths with node potentials. Negative-cost arcs
/// are pre-saturated so Dijkstra applies throughout.
FlowSolution run_ssp(const Graph& g, SolveGuard* guard, SolverWorkspace& ws);

/// Establishes any feasible flow with Dinic, then cancels Bellman-Ford
/// negative cycles until optimal. Slow; used as a cross-check.
FlowSolution run_cycle_canceling(const Graph& g, SolveGuard* guard,
                                 SolverWorkspace& ws);

/// Primal network simplex with an artificial root, strongly feasible
/// pivoting, and a candidate-list block-search pivot rule.
FlowSolution run_network_simplex(const Graph& g, SolveGuard* guard,
                                 SolverWorkspace& ws);

/// Cost-scaling push-relabel with partial augment-relabel and a price
/// refinement pass between scaling phases.
FlowSolution run_cost_scaling(const Graph& g, SolveGuard* guard,
                              SolverWorkspace& ws);

/// Drains every positive excess in \p res to a deficit node via
/// successive shortest augmenting paths over reduced costs. Shared by
/// run_ssp and the warm-start resolve. On entry ws.ssp.excess holds
/// the node imbalances and ws.ssp.pi valid potentials (all residual
/// reduced costs non-negative); ws.ssp.prepare() must have run for
/// res.num_nodes(). Returns kOptimal once balanced, kInfeasible when an
/// excess cannot reach a deficit, or kBudgetExceeded.
///
/// \p max_sinks_per_round caps how many settled deficit nodes a single
/// Dijkstra round augments to (from one shortest-path forest, potentials
/// stay valid throughout). 1 is the canonical early-exit-at-nearest
/// order the differential tests pin down; the warm-start resolve passes
/// more because its saturation repair scatters many small excesses whose
/// deficits cluster inside one search radius. Values > 1 may legally
/// pick a different equal-cost optimum.
SolveStatus ssp_drain(Residual& res, SolveGuard* guard, SolverWorkspace& ws,
                      int max_sinks_per_round = 1);

}  // namespace lera::netflow::internal
