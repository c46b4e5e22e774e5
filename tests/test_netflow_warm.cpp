#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

// Warm-start resolve: re-solving a same-topology instance from the
// previous optimal flow must reach the same objective as a cold solve —
// always certified — and fall back to the cold chain the moment the
// topology changes or the repair gives up. The warm path may pick a
// different equal-cost optimum than the cold path, so these tests
// compare objectives and certificates, never a warm flow vector with a
// cold one. An edited instance's cache is carried over with
// WarmStartCache::remapped, which must change nothing under the
// identity map and still reach the cold optimum across an edit.

namespace lera::netflow {
namespace {

/// A same-topology cost/capacity perturbation, deterministic in seed.
Graph perturb(const Graph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Cost> dcost(-5, 5);
  std::uniform_int_distribution<int> dcap(0, 4);
  Graph out = g;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    Cost cost = arc.cost + dcost(rng);
    Flow cap = arc.upper;
    if (dcap(rng) == 0 && cap > 1) cap -= 1;  // Occasionally tighten.
    out.set_arc_cost(a, cost);
    out.set_arc_capacity(a, cap);
  }
  return out;
}

workloads::RandomFlowOptions warm_options() {
  workloads::RandomFlowOptions opts;
  opts.num_nodes = 16;
  opts.num_arcs = 48;
  opts.supply = 6;
  return opts;
}

TEST(WarmStart, CacheMatchesTopologyNotCosts) {
  const Graph g = workloads::random_flow_problem(1, warm_options());
  const FlowSolution cold = solve(g);
  ASSERT_TRUE(cold.optimal());

  WarmStartCache cache;
  EXPECT_FALSE(cache.has_entry());
  EXPECT_FALSE(cache.matches(g));
  cache.store(g, cold.arc_flow);
  EXPECT_TRUE(cache.has_entry());
  EXPECT_TRUE(cache.matches(g));
  EXPECT_TRUE(cache.matches(perturb(g, 99)));  // Same topology.

  Graph grown = g;
  grown.add_arc(0, 1, 1, 0);
  EXPECT_FALSE(cache.matches(grown));  // Arc count changed.

  Graph resupplied = g;
  resupplied.add_supply(0, 1);
  resupplied.add_supply(1, -1);
  EXPECT_FALSE(cache.matches(resupplied));  // Supplies changed.
}

TEST(WarmStart, FiftySeedPerturbationSweepMatchesColdObjective) {
  int warm_optimal = 0;
  SolverWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Graph base = workloads::random_flow_problem(seed, warm_options());
    const FlowSolution cold_base = solve(base);
    if (!cold_base.optimal()) continue;  // Rare; nothing to warm from.

    WarmStartCache cache;
    cache.store(base, cold_base.arc_flow);

    const Graph next = perturb(base, seed * 7919);
    ASSERT_TRUE(cache.matches(next)) << "seed " << seed;
    const FlowSolution cold = solve(next);
    const FlowSolution warm = resolve_warm(next, cache, nullptr, &ws);

    if (!warm.optimal()) {
      // The repair bailed (kMaxCancellations, infeasible after a
      // capacity cut, ...): the contract is only that the caller falls
      // back to cold, which must agree with the cold verdict.
      EXPECT_EQ(warm.status == SolveStatus::kInfeasible,
                cold.status == SolveStatus::kInfeasible)
          << "seed " << seed;
      continue;
    }
    ++warm_optimal;
    ASSERT_TRUE(cold.optimal()) << "seed " << seed;
    // Equal objective, both independently certified.
    EXPECT_EQ(warm.cost, cold.cost) << "seed " << seed;
    EXPECT_TRUE(check_feasible(next, warm.arc_flow).ok) << "seed " << seed;
    EXPECT_TRUE(check_feasible(next, cold.arc_flow).ok) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(next, warm.arc_flow)) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(next, cold.arc_flow)) << "seed " << seed;
  }
  // The sweep must exercise the warm path for real, not fall back on
  // every seed.
  EXPECT_GT(warm_optimal, 30);
}

TEST(WarmStart, RobustSolveUsesAndRefreshesTheCache) {
  const Graph base = workloads::random_flow_problem(11, warm_options());

  SolverWorkspace ws;
  WarmStartCache cache;
  SolveOptions opts;
  opts.workspace = &ws;
  opts.warm_cache = &cache;

  // First solve: cold (cache empty), but it must seed the cache.
  SolveDiagnostics d1;
  const FlowSolution first = solve_robust(base, opts, &d1);
  ASSERT_TRUE(first.optimal());
  EXPECT_FALSE(d1.warm_start_attempted);
  EXPECT_FALSE(d1.warm_start_hit);
  EXPECT_TRUE(cache.has_entry());
  EXPECT_EQ(ws.counters.warm_start_misses, 1);

  // Same-topology resubmission: warm path, still certified optimal.
  const Graph next = perturb(base, 1234);
  SolveDiagnostics d2;
  const FlowSolution second = solve_robust(next, opts, &d2);
  ASSERT_TRUE(second.optimal());
  EXPECT_TRUE(d2.warm_start_attempted);
  EXPECT_TRUE(d2.warm_start_hit);
  EXPECT_EQ(d2.certification, CertificationVerdict::kPassed);
  EXPECT_TRUE(certify_optimal(next, second.arc_flow));
  const FlowSolution cold = solve(next);
  ASSERT_TRUE(cold.optimal());
  EXPECT_EQ(second.cost, cold.cost);
  EXPECT_EQ(ws.counters.warm_start_hits, 1);

  // Topology change: the cache must not match; solve falls back cold
  // and re-seeds the cache for the new topology.
  Graph grown = next;
  grown.add_arc(2, 3, 2, 1);
  SolveDiagnostics d3;
  const FlowSolution third = solve_robust(grown, opts, &d3);
  ASSERT_TRUE(third.optimal());
  EXPECT_FALSE(d3.warm_start_attempted);
  EXPECT_FALSE(d3.warm_start_hit);
  EXPECT_TRUE(cache.matches(grown));  // Refreshed by the cold optimum.

  // Workspace reuse is counted across all three solves.
  EXPECT_GE(ws.counters.workspace_reuse_hits, 2);
}

TEST(WarmStart, WarmAnswersAreCertifiedAtFeasible) {
  const Graph base = workloads::random_flow_problem(21, warm_options());

  WarmStartCache cache;
  SolveOptions opts;
  opts.warm_cache = &cache;
  opts.certify = CertifyLevel::kFeasible;

  SolveDiagnostics d1;
  ASSERT_TRUE(solve_robust(base, opts, &d1).optimal());
  ASSERT_TRUE(cache.has_entry());

  // Corrupt every warm answer through the test seam: the cheapest
  // certification level must still catch it and fall back to the cold
  // chain.
  const Graph next = perturb(base, 777);
  SolveOptions bad = opts;
  bad.post_solve_hook = [](const Graph&, FlowSolution& s) {
    if (!s.arc_flow.empty()) s.arc_flow[0] += 1;
  };
  SolveDiagnostics d2;
  const FlowSolution out = solve_robust(next, bad, &d2);
  EXPECT_TRUE(d2.warm_start_attempted);
  EXPECT_FALSE(d2.warm_start_hit);
  ASSERT_FALSE(d2.attempts.empty());
  EXPECT_NE(d2.attempts.front().note.find("warm-start rejected"),
            std::string::npos);
  // The hook corrupts the cold chain's answers too, and those are caught
  // as well: nothing certified is left to return.
  EXPECT_EQ(out.status, SolveStatus::kUncertified);
  EXPECT_EQ(d2.certification, CertificationVerdict::kFailed);
  EXPECT_FALSE(d2.warm_store_attempted);  // No corrupted flow is cached.
}

TEST(WarmStart, BudgetExceededSurfacesFromWarmPath) {
  const Graph base = workloads::random_flow_problem(31, warm_options());
  const FlowSolution cold = solve(base);
  ASSERT_TRUE(cold.optimal());
  WarmStartCache cache;
  cache.store(base, cold.arc_flow);

  const Graph next = perturb(base, 4242);
  SolveGuard guard;
  guard.max_iterations = 1;
  guard.start();
  const FlowSolution warm = resolve_warm(next, cache, &guard, nullptr);
  EXPECT_TRUE(warm.status == SolveStatus::kBudgetExceeded ||
              warm.optimal());
}

/// A correspondence that maps every arc and node of \p g onto itself.
WarmCorrespondence identity_map(const Graph& g) {
  WarmCorrespondence map;
  for (ArcId a = 0; a < g.num_arcs(); ++a) map.arc_from.push_back(a);
  for (NodeId v = 0; v < g.num_nodes(); ++v) map.node_from.push_back(v);
  return map;
}

TEST(WarmStart, IdentityRemapIsTheSameCache) {
  const Graph base = workloads::random_flow_problem(5, warm_options());
  const FlowSolution cold = solve(base);
  ASSERT_TRUE(cold.optimal());
  WarmStartCache cache;
  ASSERT_EQ(cache.store(base, cold.arc_flow), WarmStoreOutcome::kStored);

  const WarmStartCache same = cache.remapped(base, identity_map(base));
  ASSERT_TRUE(same.has_entry());
  EXPECT_TRUE(same.matches(base));
  EXPECT_EQ(same.flow(), cache.flow());
  EXPECT_EQ(same.potentials(), cache.potentials());

  // Same seed, same resolve: bit-identical answers.
  const Graph next = perturb(base, 55);
  const FlowSolution a = resolve_warm(next, cache);
  const FlowSolution b = resolve_warm(next, same);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.arc_flow, b.arc_flow);
}

TEST(WarmStart, RemapAcrossAnEditResolvesToTheColdOptimum) {
  int resolved = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph base = workloads::random_flow_problem(seed, warm_options());
    const FlowSolution base_sol = solve(base);
    if (!base_sol.optimal()) continue;
    WarmStartCache cache;
    ASSERT_EQ(cache.store(base, base_sol.arc_flow), WarmStoreOutcome::kStored);

    // The edit: drop the first arc carrying flow and reroute it through
    // a new node at one unit more cost, so the old optimum is stale.
    ArcId dropped = 0;
    while (base_sol.arc_flow[static_cast<std::size_t>(dropped)] == 0) {
      ++dropped;
    }
    Graph edited(base.num_nodes());
    WarmCorrespondence map;
    for (NodeId v = 0; v < base.num_nodes(); ++v) {
      edited.set_supply(v, base.supply(v));
      map.node_from.push_back(v);
    }
    for (ArcId a = 0; a < base.num_arcs(); ++a) {
      if (a == dropped) continue;
      const Arc& arc = base.arc(a);
      edited.add_arc(arc.tail, arc.head, arc.upper, arc.cost);
      map.arc_from.push_back(a);
    }
    const Arc& gone = base.arc(dropped);
    const NodeId via = edited.add_node();
    map.node_from.push_back(-1);
    edited.add_arc(gone.tail, via, gone.upper, gone.cost + 1);
    edited.add_arc(via, gone.head, gone.upper, 0);
    map.arc_from.push_back(-1);
    map.arc_from.push_back(-1);

    const WarmStartCache seeded = cache.remapped(edited, map);
    ASSERT_TRUE(seeded.matches(edited)) << "seed " << seed;
    const FlowSolution warm = resolve_warm(edited, seeded);
    const FlowSolution cold =
        solve(edited, SolverKind::kSuccessiveShortestPaths);
    ASSERT_EQ(warm.status, cold.status) << "seed " << seed;
    if (!cold.optimal()) continue;
    ++resolved;
    EXPECT_EQ(warm.cost, cold.cost) << "seed " << seed;
    EXPECT_TRUE(check_feasible(edited, warm.arc_flow).ok) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(edited, warm.arc_flow)) << "seed " << seed;
  }
  EXPECT_GT(resolved, 10);
}

TEST(WarmStart, RemapOfAnEmptyCacheOrAMisfitMapIsEmpty) {
  const Graph g = workloads::random_flow_problem(9, warm_options());
  EXPECT_FALSE(WarmStartCache{}.remapped(g, identity_map(g)).has_entry());

  const FlowSolution cold = solve(g);
  ASSERT_TRUE(cold.optimal());
  WarmStartCache cache;
  ASSERT_EQ(cache.store(g, cold.arc_flow), WarmStoreOutcome::kStored);
  WarmCorrespondence short_arcs = identity_map(g);
  short_arcs.arc_from.pop_back();
  EXPECT_FALSE(cache.remapped(g, short_arcs).has_entry());
  WarmCorrespondence short_nodes = identity_map(g);
  short_nodes.node_from.pop_back();
  EXPECT_FALSE(cache.remapped(g, short_nodes).has_entry());
}

}  // namespace
}  // namespace lera::netflow
