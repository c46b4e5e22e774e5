#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "alloc/flow_graph.hpp"
#include "netflow/internal_solvers.hpp"
#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

// Backend suite: network simplex (candidate-list pivoting on a
// thread-indexed spanning tree) is differential-tested against SSP over
// 200 random seeds and over 1500 instances that cover both of its starts
// and infeasibility, its tree is checked after every pivot, every
// backend is checked for cold-vs-shared-workspace bit-identity, and the
// SolverKind::kAuto selection policy is pinned on canonical shapes and
// exercised end-to-end through solve() and solve_robust().

namespace lera::netflow {
namespace {

/// Same three-size instance mix the CSR differential suite uses, so the
/// backends face the exact instances the SSP reference is known-good on.
workloads::RandomFlowOptions options_for(std::uint64_t seed) {
  workloads::RandomFlowOptions opts;
  switch (seed % 3) {
    case 0:
      break;  // Defaults: 12 nodes / 30 arcs.
    case 1:
      opts.num_nodes = 20;
      opts.num_arcs = 60;
      opts.supply = 6;
      break;
    default:
      opts.num_nodes = 40;
      opts.num_arcs = 120;
      opts.supply = 10;
      break;
  }
  return opts;
}

// The simplex must agree with SSP on feasibility and on the optimal
// objective (equal-cost optima may differ arc-by-arc), and every optimal
// answer must carry a certificate: feasible b-flow, exact cost, no
// negative residual cycle. Zero tolerated mismatches across 200 seeds.
TEST(BackendDifferential, TwoHundredSeedsMatchSspObjective) {
  SolverWorkspace shared;
  int optimal = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Graph g = workloads::random_flow_problem(seed, options_for(seed));
    const FlowSolution ssp =
        solve(g, SolverKind::kSuccessiveShortestPaths, nullptr, &shared);
    const FlowSolution simplex =
        solve(g, SolverKind::kNetworkSimplex, nullptr, &shared);

    ASSERT_EQ(simplex.status, ssp.status) << "seed " << seed;
    if (ssp.status != SolveStatus::kOptimal) continue;
    ++optimal;
    EXPECT_EQ(simplex.cost, ssp.cost) << "seed " << seed;
    for (const FlowSolution* sol : {&ssp, &simplex}) {
      ASSERT_TRUE(check_feasible(g, sol->arc_flow).ok) << "seed " << seed;
      ASSERT_TRUE(certify_optimal(g, sol->arc_flow)) << "seed " << seed;
      Cost recomputed = 0;
      ASSERT_TRUE(checked_flow_cost(g, sol->arc_flow, recomputed));
      EXPECT_EQ(recomputed, sol->cost) << "seed " << seed;
    }
  }
  // The mix is built to be mostly feasible; an all-infeasible run would
  // mean the sweep tested nothing.
  EXPECT_GT(optimal, 150);
}

/// A random balanced instance: 4-23 nodes, 1-6 arcs per node with
/// costs in [-20, 40] and capacities in [1, 8], a fifth of them with a
/// lower bound, and 1-3 supply/demand pairs. Two seeds in three add a
/// ring of wide non-negative arcs through every node, which makes most
/// of them feasible; without it most are infeasible. Sparse draws leave
/// the saturated arcs' imbalance uncancelled and dense ones cancel it, so
/// the simplex's start test goes both ways.
Graph random_instance(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const auto n = static_cast<NodeId>(draw(4, 23));
  Graph g(n);
  if (seed % 3 != 0) {
    for (NodeId v = 0; v < n; ++v) g.add_arc(v, (v + 1) % n, 40, draw(0, 40));
  }
  const std::int64_t arcs = n * draw(1, 6);
  for (std::int64_t a = 0; a < arcs; ++a) {
    const auto tail = static_cast<NodeId>(draw(0, n - 1));
    const auto head = static_cast<NodeId>(draw(0, n - 1));
    if (tail == head) continue;
    const Flow upper = draw(1, 8);
    const Flow lower = draw(0, 4) == 0 ? draw(0, upper) : 0;
    g.add_arc(tail, head, upper, draw(-20, 40), lower);
  }
  for (std::int64_t k = draw(1, 3); k > 0; --k) {
    const Flow units = draw(1, 6);
    g.add_supply(static_cast<NodeId>(draw(0, n - 1)), units);
    g.add_supply(static_cast<NodeId>(draw(0, n - 1)), -units);
  }
  return g;
}

/// A random s–t instance: random_instance's arcs without lower bounds,
/// the ring in two seeds of three, and 1-12 units from node 0 to node
/// n-1. Node 0 heads the depth-first order the simplex's packing start
/// routes along, so most of those whose negative arcs chain take it.
Graph st_instance(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const auto n = static_cast<NodeId>(draw(4, 23));
  Graph g(n);
  if (seed % 3 != 0) {
    for (NodeId v = 0; v < n; ++v) g.add_arc(v, (v + 1) % n, 40, draw(0, 40));
  }
  const std::int64_t arcs = n * draw(1, 6);
  for (std::int64_t a = 0; a < arcs; ++a) {
    const auto tail = static_cast<NodeId>(draw(0, n - 1));
    const auto head = static_cast<NodeId>(draw(0, n - 1));
    if (tail == head) continue;
    g.add_arc(tail, head, draw(1, 8), draw(-20, 40));
  }
  const Flow units = draw(1, 12);
  g.add_supply(0, units);
  g.add_supply(n - 1, -units);
  return g;
}

/// The instance the simplex itself runs on: solve() removes lower
/// bounds first.
Graph without_lower_bounds(const Graph& g) {
  return g.has_lower_bounds() ? remove_lower_bounds(g).reduced : g;
}

// The simplex against SSP on instances of four kinds: those that start
// from a path packing, those whose saturated start the start test keeps,
// those where it drops it, and infeasible ones, where flow left on an
// artificial arc must read as kInfeasible. Lower bounds ride along.
// Statuses must agree, and every optimum must match SSP's objective and
// be certified.
TEST(BackendDifferential, SimplexMatchesSspUnderBothStartsAndOnInfeasible) {
  SolverWorkspace shared;
  int packed = 0;
  int kept = 0;
  int dropped = 0;
  int infeasible = 0;
  int with_lower_bounds = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const Graph g =
        seed <= 1500 ? random_instance(seed) : st_instance(seed);
    bool negative_arcs = false;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      negative_arcs = negative_arcs || g.arc(a).cost < 0;
    }
    const internal::SimplexStart start =
        internal::simplex_start(without_lower_bounds(g), shared);
    const FlowSolution ssp =
        solve(g, SolverKind::kSuccessiveShortestPaths, nullptr, &shared);
    const FlowSolution simplex =
        solve(g, SolverKind::kNetworkSimplex, nullptr, &shared);
    ASSERT_EQ(simplex.status, ssp.status) << "seed " << seed;
    if (!ssp.optimal()) {
      ASSERT_EQ(ssp.status, SolveStatus::kInfeasible) << "seed " << seed;
      // A packing is a feasible flow.
      ASSERT_NE(start, internal::SimplexStart::kPacked) << "seed " << seed;
      ++infeasible;
      continue;
    }
    if (negative_arcs) {
      switch (start) {
        case internal::SimplexStart::kPacked:
          ++packed;
          break;
        case internal::SimplexStart::kSaturated:
          ++kept;
          break;
        case internal::SimplexStart::kArtificial:
          ++dropped;
          break;
      }
    }
    if (g.has_lower_bounds()) ++with_lower_bounds;
    EXPECT_EQ(simplex.cost, ssp.cost) << "seed " << seed;
    ASSERT_TRUE(check_feasible(g, simplex.arc_flow).ok) << "seed " << seed;
    ASSERT_TRUE(certify_optimal(g, simplex.arc_flow)) << "seed " << seed;
    Cost recomputed = 0;
    ASSERT_TRUE(checked_flow_cost(g, simplex.arc_flow, recomputed));
    EXPECT_EQ(recomputed, simplex.cost) << "seed " << seed;
  }
  EXPECT_GT(packed, 150);
  EXPECT_GT(kept, 300);
  EXPECT_GT(dropped, 300);
  EXPECT_GT(infeasible, 300);
  EXPECT_GT(with_lower_bounds, 300);
}

/// A static-model allocation graph, which takes the sparse encoding:
/// 8-40 random variables at R = 1-8, under both graph styles, with the
/// flow value R at s and t.
Graph sparse_allocation_graph(std::uint64_t seed) {
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 8 + static_cast<int>(seed % 33);
  lopts.num_steps = lopts.num_vars / 2 + 2;
  const int registers = 1 + static_cast<int>(seed % 8);
  const alloc::AllocationProblem p = alloc::make_problem(
      workloads::random_lifetimes(seed, lopts), lopts.num_steps, registers,
      energy::EnergyParams{},
      energy::ActivityMatrix(static_cast<std::size_t>(lopts.num_vars)));
  const alloc::FlowGraphSpec spec = alloc::build_flow_graph(
      p, seed % 2 == 0 ? alloc::GraphStyle::kDensityRegions
                       : alloc::GraphStyle::kAllPairs);
  Graph g = spec.graph;
  g.add_supply(spec.s, registers);
  g.add_supply(spec.t, -registers);
  return g;
}

/// Checks the simplex tree at the start and after every pivot on \p g,
/// and that the checked run answers exactly as the production one; adds
/// the pivots taken to \p pivots.
void expect_tree_invariants(const Graph& g, SolverWorkspace& checked_ws,
                            SolverWorkspace& plain_ws, std::int64_t& pivots,
                            const std::string& label) {
  const std::int64_t before = checked_ws.counters.simplex_pivots;
  FlowSolution checked;
  const std::string violation =
      internal::check_simplex_tree(g, checked_ws, checked);
  ASSERT_EQ(violation, "") << label;
  pivots += checked_ws.counters.simplex_pivots - before;
  const FlowSolution plain =
      solve(g, SolverKind::kNetworkSimplex, nullptr, &plain_ws);
  ASSERT_EQ(checked.status, plain.status) << label;
  EXPECT_EQ(checked.cost, plain.cost) << label;
  EXPECT_EQ(checked.arc_flow, plain.arc_flow) << label;
  if (plain.optimal()) {
    EXPECT_TRUE(certify_optimal(g, plain.arc_flow)) << label;
  }
}

// The spanning tree after every pivot, on small instances of both
// random families and on sparse allocation graphs, which start from a
// path packing, so the start tree itself is checked: thread a preorder
// of the parent tree, succ_num and last_succ in agreement with it, pred
// naming the tree arc, every tree arc tight, every non-tree arc at its
// bound, and the tree strongly feasible. Two s–t instances whose
// packing the start must drop ride along. The checked run must also
// answer exactly as the production one.
TEST(NetworkSimplexTree, InvariantsHoldAfterEveryPivot) {
  SolverWorkspace checked_ws;
  SolverWorkspace plain_ws;
  std::int64_t pivots = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const Graph g = without_lower_bounds(
        seed % 2 == 0
            ? random_instance(seed)
            : workloads::random_flow_problem(seed, options_for(seed)));
    expect_tree_invariants(g, checked_ws, plain_ws, pivots,
                           "seed " + std::to_string(seed));
  }
  EXPECT_GT(pivots, 10000);

  int packed = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Graph g = without_lower_bounds(sparse_allocation_graph(seed));
    if (internal::simplex_start(g, checked_ws) ==
        internal::SimplexStart::kPacked) {
      ++packed;
    }
    expect_tree_invariants(g, checked_ws, plain_ws, pivots,
                           "allocation seed " + std::to_string(seed));
  }
  EXPECT_GT(packed, 150);

  // Three units from 0 to 1. The packing routes one along 0 -> 3 -> 2
  // -> 1 (-24, the cheap 0 -> 3 arc saturates), one along 0 -> 2 -> 1
  // (-18, 2 -> 1 saturates) and the last along 0 -> 3 -> 1 over the dear
  // 0 -> 3 arc (14). That leaves 0 -> 3 (dear), 3 -> 2 and 0 -> 2
  // strictly between their bounds: a cycle, so the start falls back.
  Graph cycle(4);
  cycle.add_arc(3, 2, 5, -8);
  cycle.add_arc(0, 3, 4, 8);
  cycle.add_arc(2, 1, 2, -9);
  cycle.add_arc(3, 1, 1, 6);
  cycle.add_arc(0, 3, 1, -7);
  cycle.add_arc(0, 2, 2, -9);
  cycle.add_supply(0, 3);
  cycle.add_supply(1, -3);
  // The sink, node 0, heads the depth-first order, so the only s–t arc
  // runs backward in it and the packing gets stuck.
  Graph stuck(2);
  stuck.add_arc(0, 1, 1, 5);
  stuck.add_arc(1, 0, 1, -3);
  stuck.add_supply(1, 1);
  stuck.add_supply(0, -1);
  for (const Graph* g : {&cycle, &stuck}) {
    EXPECT_EQ(internal::simplex_start(*g, checked_ws),
              internal::SimplexStart::kSaturated);
    expect_tree_invariants(*g, checked_ws, plain_ws, pivots,
                           g == &cycle ? "cycle" : "stuck");
    EXPECT_EQ(solve(*g, SolverKind::kNetworkSimplex).cost,
              solve(*g, SolverKind::kSuccessiveShortestPaths).cost);
  }
}

// Every backend is a deterministic scratch-arena algorithm: a cold solve
// (fresh allocations) and a shared-workspace solve must pick the SAME
// equal-cost optimum, bit for bit, even after the workspace has been
// dirtied by another backend and by other instances.
TEST(BackendDeterminism, ColdAndSharedWorkspaceBitIdentical) {
  for (const SolverKind kind :
       {SolverKind::kSuccessiveShortestPaths, SolverKind::kNetworkSimplex,
        SolverKind::kCycleCanceling}) {
    const SolverKind other = kind == SolverKind::kNetworkSimplex
                                 ? SolverKind::kSuccessiveShortestPaths
                                 : SolverKind::kNetworkSimplex;
    SolverWorkspace shared;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const Graph g =
          workloads::random_flow_problem(seed, options_for(seed));
      // Dirty the arena with a different backend first.
      (void)solve(g, other, nullptr, &shared);
      const FlowSolution cold = solve(g, kind);
      const FlowSolution warm = solve(g, kind, nullptr, &shared);
      ASSERT_EQ(cold.status, warm.status)
          << to_string(kind) << " seed " << seed;
      ASSERT_EQ(cold.cost, warm.cost) << to_string(kind) << " seed " << seed;
      ASSERT_EQ(cold.arc_flow, warm.arc_flow)
          << to_string(kind) << " seed " << seed;
    }
    EXPECT_GT(shared.counters.solves, 0);
  }
}

// The selection policy is part of the public contract: pin it on
// canonical shapes so a recalibration shows up as an explicit test edit,
// not a silent behavior change.
TEST(AutoSelection, PolicyPinsOnCanonicalShapes) {
  InstanceShape shape;

  // A small flow value (a kernel's R = 4): SSP's one search per unit is
  // cheap, whatever the graph size.
  shape.nodes = 64;
  shape.arcs = 200;
  shape.supply_volume = 4;
  EXPECT_EQ(select_solver(shape), SolverKind::kSuccessiveShortestPaths);
  shape.nodes = 40000;
  shape.arcs = 190000;
  shape.supply_volume = 1;
  EXPECT_EQ(select_solver(shape), SolverKind::kSuccessiveShortestPaths);

  // The threshold: SSP through R = 12, network simplex from R = 13.
  shape.supply_volume = 12;
  EXPECT_EQ(select_solver(shape), SolverKind::kSuccessiveShortestPaths);
  shape.supply_volume = 13;
  EXPECT_EQ(select_solver(shape), SolverKind::kNetworkSimplex);

  // A compile-large block (R = 128) and a tiny graph with a large flow
  // value: the simplex, whose pivots do not grow with R.
  shape.nodes = 7960;
  shape.arcs = 7436;
  shape.supply_volume = 128;
  EXPECT_EQ(select_solver(shape), SolverKind::kNetworkSimplex);
  shape.nodes = 12;
  shape.arcs = 30;
  shape.supply_volume = 40;
  EXPECT_EQ(select_solver(shape), SolverKind::kNetworkSimplex);

  // A matching warm cache overrides everything: stay on SSP machinery.
  shape.warm_cache_match = true;
  EXPECT_EQ(select_solver(shape), SolverKind::kSuccessiveShortestPaths);
  shape.warm_cache_match = false;

  // The selector never returns kAuto, whatever the shape.
  for (Flow supply : {0, 1, 12, 13, 1000000}) {
    shape.supply_volume = supply;
    EXPECT_NE(select_solver(shape), SolverKind::kAuto);
  }
}

TEST(AutoSelection, MeasureShapeReadsTheInstance) {
  Graph g;
  g.add_nodes(4);
  g.add_arc(0, 1, 5, -3);
  g.add_arc(1, 2, 5, 2);
  g.add_arc(2, 3, 5, 2);
  g.set_supply(0, 4);
  g.set_supply(3, -4);
  const InstanceShape shape = measure_shape(g);
  EXPECT_EQ(shape.nodes, 4);
  EXPECT_EQ(shape.arcs, 3);
  EXPECT_EQ(shape.supply_volume, 4);
  EXPECT_FALSE(shape.warm_cache_match);  // Callers opt in.
  EXPECT_NE(shape.summary().find("nodes=4"), std::string::npos);
  EXPECT_NE(shape.summary().find("supply_volume=4"), std::string::npos);
}

/// First seed at/after \p start whose instance is feasible (the random
/// mix is mostly feasible, so this terminates almost immediately).
Graph solvable_instance(std::uint64_t start) {
  for (std::uint64_t seed = start;; ++seed) {
    Graph g = workloads::random_flow_problem(seed, options_for(seed));
    if (solve(g, SolverKind::kSuccessiveShortestPaths).optimal()) return g;
  }
}

// kAuto through the plain solve() entry: resolves to a concrete backend,
// returns the same objective as that backend, and counts the selection.
TEST(AutoSelection, SolveResolvesAutoToConcreteBackend) {
  const Graph g = solvable_instance(11);
  SolverWorkspace ws;
  const FlowSolution direct = solve(g, SolverKind::kAuto, nullptr, &ws);
  const SolverKind expected = select_solver(measure_shape(g));
  const FlowSolution fixed = solve(g, expected);
  ASSERT_EQ(direct.status, fixed.status);
  EXPECT_EQ(direct.cost, fixed.cost);
  EXPECT_EQ(direct.arc_flow, fixed.arc_flow);
  EXPECT_EQ(ws.counters.auto_selections, 1);
}

// kAuto through solve_robust: the chain entry is expanded before any
// attempt runs, the decision lands in the diagnostics (chosen backend +
// driving features), and the answer is certified as usual.
TEST(AutoSelection, SolveRobustExpandsAutoAndRecordsWhy) {
  const Graph g = solvable_instance(5);
  SolverWorkspace ws;
  SolveOptions options;
  options.chain = {SolverKind::kAuto, SolverKind::kCycleCanceling};
  options.workspace = &ws;
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, options, &diag);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal) << diag.summary();

  EXPECT_TRUE(diag.auto_selected);
  EXPECT_NE(diag.auto_choice, SolverKind::kAuto);
  EXPECT_EQ(diag.auto_choice, select_solver(measure_shape(g)));
  EXPECT_EQ(diag.solver_used, diag.auto_choice);
  EXPECT_NE(diag.auto_features.find("nodes="), std::string::npos);
  EXPECT_NE(diag.summary().find("[auto: "), std::string::npos);
  EXPECT_EQ(diag.certification, CertificationVerdict::kPassed);
  EXPECT_EQ(diag.perf.auto_selections, 1);
}

// A fixed chain without kAuto must not report or count any selection —
// the feature is strictly opt-in and defaults are unchanged.
TEST(AutoSelection, FixedChainsNeverAutoSelect) {
  const Graph g = solvable_instance(5);
  SolverWorkspace ws;
  SolveOptions options;
  options.workspace = &ws;  // Default chain.
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, options, &diag);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_FALSE(diag.auto_selected);
  EXPECT_TRUE(diag.auto_features.empty());
  EXPECT_EQ(diag.perf.auto_selections, 0);
  EXPECT_EQ(diag.summary().find("[auto:"), std::string::npos);
}

// A matching warm cache flips the shape's warm_cache_match bit, so a
// kAuto chain re-solve sticks to SSP even on shapes that would
// otherwise route elsewhere (here: supply 16 > 12 => simplex without
// the cache).
TEST(AutoSelection, WarmCacheBiasesSelectionTowardSsp) {
  workloads::RandomFlowOptions opts = options_for(2);
  opts.supply = 16;
  Graph g;
  for (std::uint64_t seed = 9;; ++seed) {
    g = workloads::random_flow_problem(seed, opts);
    if (solve(g, SolverKind::kSuccessiveShortestPaths).optimal()) break;
  }
  WarmStartCache cache;
  SolveOptions options;
  options.chain = {SolverKind::kAuto};
  options.warm_cache = &cache;

  SolveDiagnostics first;
  const FlowSolution cold = solve_robust(g, options, &first);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_TRUE(first.auto_selected);
  EXPECT_EQ(first.auto_choice, SolverKind::kNetworkSimplex);
  EXPECT_NE(first.auto_features.find("warm_cache_match=0"),
            std::string::npos);

  // Cache now primed for this topology: the warm resolve path answers,
  // and the selector (consulted while expanding the chain) leans SSP.
  SolveDiagnostics second;
  const FlowSolution warm = solve_robust(g, options, &second);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_TRUE(second.warm_start_attempted);
  ASSERT_TRUE(second.auto_selected);
  EXPECT_EQ(second.auto_choice, SolverKind::kSuccessiveShortestPaths);
  EXPECT_NE(second.auto_features.find("warm_cache_match=1"),
            std::string::npos);
}

}  // namespace
}  // namespace lera::netflow
