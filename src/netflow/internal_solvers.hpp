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
/// candidate-list pivot rule. Where the negative-cost arcs chain and the
/// instance has one source and one sink, it starts from a greedy path
/// packing, a feasible flow whose free arcs form the start tree;
/// otherwise, or when the packing gets stuck or its free arcs close a
/// cycle, from an artificial root with zero-cost arcs from the
/// non-deficit nodes, big-M arcs to the deficit nodes, and the negative
/// arcs saturated when they chain. Refuses with kBadInstance when big-M
/// would leave kInfCost.
FlowSolution run_network_simplex(const Graph& g, SolveGuard* guard,
                                 SolverWorkspace& ws);

/// The simplex's three starts.
enum class SimplexStart {
  /// Every real arc at zero; the supplies ride the artificial arcs.
  kArtificial,
  /// Every finite-capacity negative-cost arc at its capacity, the
  /// remaining imbalance on the artificial arcs.
  kSaturated,
  /// A greedy path packing: a feasible flow, no artificial arc carries
  /// any, and the arcs strictly between their bounds form the tree.
  kPacked,
};

/// Test hook: the start run_network_simplex takes on \p g (an instance
/// without lower bounds), built in \p ws without pivoting. An instance
/// the simplex refuses reads kArtificial.
SimplexStart simplex_start(const Graph& g, SolverWorkspace& ws);

/// Test hook: run_network_simplex that checks the spanning tree at the
/// start and after every pivot. The thread must be a preorder of the
/// parent tree, succ_num and last_succ must agree with it, every tree
/// arc must be tight and every non-tree arc at its bound, and the tree
/// must be strongly feasible. Returns the first violation, or "" when
/// every tree held; \p sol receives the solve's answer.
std::string check_simplex_tree(const Graph& g, SolverWorkspace& ws,
                               FlowSolution& sol);

/// Depth-first reverse postorder of \p g's nodes over its arcs with
/// positive capacity, searching from every unvisited node in id order;
/// \p cursor and \p stack are the search's scratch. Returns whether the
/// search met no back arc, in which case the order is topological. SSP's
/// start potentials relax in this order and the simplex's path packing
/// routes along it.
bool dfs_reverse_postorder(const Graph& g, std::vector<int>& cursor,
                           std::vector<NodeId>& stack,
                           std::vector<NodeId>& order);

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
