#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netflow/internal_solvers.hpp"
#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

// PR 7 backend suite: the upgraded cost-scaling (push-relabel with
// partial augment-relabel + price refinement) and network simplex
// (candidate-list pivoting + incremental tree maintenance) are
// differential-tested against SSP over 200 random seeds, checked for
// cold-vs-shared-workspace bit-identity, and the SolverKind::kAuto
// shape-based selection policy is pinned on canonical shapes and
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

// Every backend must agree with SSP on feasibility and on the optimal
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
    const FlowSolution scaling =
        solve(g, SolverKind::kCostScaling, nullptr, &shared);

    ASSERT_EQ(simplex.status, ssp.status) << "seed " << seed;
    ASSERT_EQ(scaling.status, ssp.status) << "seed " << seed;
    if (ssp.status != SolveStatus::kOptimal) continue;
    ++optimal;
    EXPECT_EQ(simplex.cost, ssp.cost) << "seed " << seed;
    EXPECT_EQ(scaling.cost, ssp.cost) << "seed " << seed;
    for (const FlowSolution* sol : {&ssp, &simplex, &scaling}) {
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

// Both upgraded backends are deterministic scratch-arena algorithms: a
// cold solve (fresh allocations) and a shared-workspace solve must pick
// the SAME equal-cost optimum, bit for bit, even after the workspace
// has been dirtied by other backends and other instances.
TEST(BackendDeterminism, ColdAndSharedWorkspaceBitIdentical) {
  for (const SolverKind kind :
       {SolverKind::kNetworkSimplex, SolverKind::kCostScaling}) {
    SolverWorkspace shared;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const Graph g =
          workloads::random_flow_problem(seed, options_for(seed));
      // Dirty the arena with a different backend first.
      (void)solve(g, SolverKind::kSuccessiveShortestPaths, nullptr, &shared);
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

// The registry is the single dispatch point: every concrete kind
// resolves to a backend whose kind matches, and kAuto resolves to none
// (it is expanded before dispatch).
TEST(BackendRegistry, FindsEveryConcreteKindAndNoAuto) {
  for (const SolverKind kind :
       {SolverKind::kSuccessiveShortestPaths, SolverKind::kCycleCanceling,
        SolverKind::kNetworkSimplex, SolverKind::kCostScaling}) {
    const internal::SolverBackend* backend = internal::find_backend(kind);
    ASSERT_NE(backend, nullptr) << to_string(kind);
    EXPECT_EQ(backend->kind, kind);
    EXPECT_NE(backend->fn, nullptr);
  }
  EXPECT_EQ(internal::find_backend(SolverKind::kAuto), nullptr);
  EXPECT_EQ(internal::solver_backends().size(), 4u);
}

// The new counters must flow: cost-scaling fills its phase/push/relabel
// counters, simplex still counts pivots, and both survive delta_since.
TEST(BackendCounters, CostScalingAndSimplexCountWork) {
  const Graph g = solvable_instance(2);
  SolverWorkspace ws;
  const PerfCounters base = ws.counters;
  const FlowSolution scaling =
      solve(g, SolverKind::kCostScaling, nullptr, &ws);
  ASSERT_EQ(scaling.status, SolveStatus::kOptimal);
  const PerfCounters after_scaling = ws.counters.delta_since(base);
  EXPECT_GT(after_scaling.cs_phases, 0);
  EXPECT_GT(after_scaling.cs_pushes, 0);
  EXPECT_GT(after_scaling.cs_relabels, 0);

  const PerfCounters mid = ws.counters;
  const FlowSolution simplex =
      solve(g, SolverKind::kNetworkSimplex, nullptr, &ws);
  ASSERT_EQ(simplex.status, SolveStatus::kOptimal);
  const PerfCounters after_simplex = ws.counters.delta_since(mid);
  EXPECT_GT(after_simplex.simplex_pivots, 0);
  EXPECT_EQ(after_simplex.cs_pushes, 0);

  const std::string line = ws.counters.summary();
  EXPECT_NE(line.find("cs_phases="), std::string::npos);
  EXPECT_NE(line.find("price_refinements="), std::string::npos);
  EXPECT_NE(line.find("auto_selections="), std::string::npos);
}

}  // namespace
}  // namespace lera::netflow
