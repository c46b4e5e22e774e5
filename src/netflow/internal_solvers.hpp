#pragma once

#include "netflow/graph.hpp"
#include "netflow/solution.hpp"
#include "netflow/workspace.hpp"

/// \file internal_solvers.hpp
/// The entry points of the individual algorithms, which solve() in
/// solution.cpp dispatches to with one switch over SolverKind. All
/// require an instance with zero lower bounds (use remove_lower_bounds()
/// first); solve() takes care of that, of rejecting unbalanced
/// instances, and of resolving "no workspace" to a throwaway local
/// arena, so the workspace reference is mandatory here. Each backend
/// honours an optional SolveGuard by ticking it once per major iteration
/// and returning kBudgetExceeded when it trips, and reuses the scratch
/// arrays of the SolverWorkspace it is handed instead of allocating
/// (results are identical either way).

namespace lera::netflow::internal {

/// Returns the canonical budget-exhausted verdict.
FlowSolution budget_exceeded(SolverKind kind);

/// Successive shortest paths with node potentials. Negative-cost arcs
/// are pre-saturated so Dijkstra applies throughout.
FlowSolution run_ssp(const Graph& g, SolveGuard* guard, SolverWorkspace& ws);

/// Establishes any feasible flow with Dinic, then cancels Bellman-Ford
/// negative cycles until optimal. Slow; used as a cross-check.
FlowSolution run_cycle_canceling(const Graph& g, SolveGuard* guard,
                                 SolverWorkspace& ws);

/// Primal network simplex on Király–Kovács spanning-tree arrays (parent,
/// pred, thread, succ_num, last_succ), strongly feasible pivoting and a
/// candidate-list pivot rule. It starts from an artificial root with
/// zero-cost arcs from the non-deficit nodes, big-M arcs to the deficit
/// nodes, and the negative arcs saturated when simplex_saturated_start
/// says so. Refuses with kBadInstance when big-M would leave kInfCost.
FlowSolution run_network_simplex(const Graph& g, SolveGuard* guard,
                                 SolverWorkspace& ws);

/// The simplex's start test. Saturating every finite-capacity
/// negative-cost arc turns the supplies b into balances b' at the price
/// of U, those arcs' total capacity; it is kept when sum|b'| - sum|b| <=
/// U, that is when at least half of the imbalance it could create
/// cancels out. Writes the start balances (b' when kept, b otherwise)
/// into \p balance and returns whether any arc starts saturated.
bool simplex_saturated_start(const Graph& g, std::vector<Flow>& balance);

/// Test hook: run_network_simplex that checks the spanning tree at the
/// start and after every pivot. The thread must be a preorder of the
/// parent tree, succ_num and last_succ must agree with it, every tree
/// arc must be tight and every non-tree arc at its bound, and the tree
/// must be strongly feasible. Returns the first violation, or "" when
/// every tree held; \p sol receives the solve's answer.
std::string check_simplex_tree(const Graph& g, SolverWorkspace& ws,
                               FlowSolution& sol);

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
