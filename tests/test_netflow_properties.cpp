#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

/// Property-based cross-checks: on random instances all three solvers
/// must agree on feasibility and optimal cost, every returned flow must
/// be feasible, and every returned flow must pass the residual-cycle
/// optimality certificate.

namespace lera::netflow {
namespace {

using workloads::RandomFlowOptions;
using workloads::random_flow_problem;

struct PropertyCase {
  std::uint64_t seed;
  RandomFlowOptions opts;
};

class RandomInstanceTest : public ::testing::TestWithParam<std::uint64_t> {};

void check_all_solvers_agree(const Graph& g) {
  const FlowSolution ssp = solve(g, SolverKind::kSuccessiveShortestPaths);
  const FlowSolution cc = solve(g, SolverKind::kCycleCanceling);
  const FlowSolution ns = solve(g, SolverKind::kNetworkSimplex);

  ASSERT_EQ(ssp.status, cc.status);
  ASSERT_EQ(ssp.status, ns.status);
  if (!ssp.optimal()) return;

  EXPECT_EQ(ssp.cost, cc.cost);
  EXPECT_EQ(ssp.cost, ns.cost);
  for (const FlowSolution* sol : {&ssp, &cc, &ns}) {
    const CheckResult feasible = check_feasible(g, sol->arc_flow);
    EXPECT_TRUE(feasible.ok) << feasible.message;
    EXPECT_TRUE(certify_optimal(g, sol->arc_flow));
    EXPECT_EQ(flow_cost(g, sol->arc_flow), sol->cost);
  }
}

TEST_P(RandomInstanceTest, PlainTransportProblems) {
  RandomFlowOptions opts;
  opts.min_cost = 0;  // Non-negative costs.
  check_all_solvers_agree(random_flow_problem(GetParam(), opts));
}

TEST_P(RandomInstanceTest, NegativeCosts) {
  RandomFlowOptions opts;
  opts.min_cost = -30;
  check_all_solvers_agree(random_flow_problem(GetParam(), opts));
}

TEST_P(RandomInstanceTest, PureCirculations) {
  RandomFlowOptions opts;
  opts.supply = 0;
  opts.min_cost = -30;
  check_all_solvers_agree(random_flow_problem(GetParam(), opts));
}

TEST_P(RandomInstanceTest, WithLowerBounds) {
  RandomFlowOptions opts;
  opts.lower_bound_prob = 0.4;
  opts.min_cost = -15;
  check_all_solvers_agree(random_flow_problem(GetParam(), opts));
}

TEST_P(RandomInstanceTest, DenseSmallGraphs) {
  RandomFlowOptions opts;
  opts.num_nodes = 6;
  opts.num_arcs = 40;
  opts.min_cost = -25;
  opts.lower_bound_prob = 0.2;
  check_all_solvers_agree(random_flow_problem(GetParam(), opts));
}

TEST_P(RandomInstanceTest, LargerSparseGraphs) {
  RandomFlowOptions opts;
  opts.num_nodes = 40;
  opts.num_arcs = 120;
  opts.supply = 9;
  opts.min_cost = -10;
  check_all_solvers_agree(random_flow_problem(GetParam(), opts));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Range<std::uint64_t>(1, 26));

// Larger stress sweep for the two fast solvers only (cycle canceling is
// O(instance) slower; the suite above already pins it to the others).
TEST(RandomInstanceStress, SspMatchesNetworkSimplex) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    RandomFlowOptions opts;
    opts.num_nodes = 60;
    opts.num_arcs = 240;
    opts.min_cost = -20;
    opts.supply = 12;
    opts.lower_bound_prob = 0.1;
    const Graph g = random_flow_problem(seed, opts);
    const FlowSolution ssp = solve(g, SolverKind::kSuccessiveShortestPaths);
    const FlowSolution ns = solve(g, SolverKind::kNetworkSimplex);
    ASSERT_EQ(ssp.status, ns.status) << "seed " << seed;
    if (ssp.optimal()) {
      EXPECT_EQ(ssp.cost, ns.cost) << "seed " << seed;
      EXPECT_TRUE(certify_optimal(g, ssp.arc_flow)) << "seed " << seed;
      EXPECT_TRUE(certify_optimal(g, ns.arc_flow)) << "seed " << seed;
    }
  }
}

// Graphs whose cycles all cost more than 0 while single arcs may be
// negative, as the sparse allocation graph's hub -> cut -> hub cycles
// are: SSP's starting potentials come from repeated relaxation passes
// instead of one topological pass, and must reach the same optimum.
TEST(RandomInstanceStress, SspMatchesNetworkSimplexOnPositiveCycles) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const NodeId n = 20 + static_cast<NodeId>(seed % 30);
    // Arc costs phi(head) - phi(tail) + a positive margin: every cycle
    // costs the sum of its margins.
    std::vector<Cost> phi(static_cast<std::size_t>(n));
    for (Cost& x : phi) {
      x = std::uniform_int_distribution<Cost>(-60, 60)(rng);
    }
    const auto cost = [&](NodeId u, NodeId v) {
      return phi[static_cast<std::size_t>(v)] -
             phi[static_cast<std::size_t>(u)] +
             std::uniform_int_distribution<Cost>(1, 15)(rng);
    };
    Graph g(n);
    for (NodeId v = 0; v + 1 < n; ++v) g.add_arc(v, v + 1, 8, cost(v, v + 1));
    std::uniform_int_distribution<NodeId> node(0, n - 1);
    for (int a = 0; a < 4 * n; ++a) {
      const NodeId u = node(rng);
      const NodeId v = node(rng);
      if (u == v) continue;
      const Flow cap = 1 + static_cast<Flow>(rng() % 3);
      g.add_arc(u, v, cap, cost(u, v));
    }
    g.add_supply(0, 6);
    g.add_supply(n - 1, -6);
    ASSERT_TRUE(g.has_negative_costs());
    const FlowSolution ssp = solve(g, SolverKind::kSuccessiveShortestPaths);
    const FlowSolution ns = solve(g, SolverKind::kNetworkSimplex);
    ASSERT_TRUE(ssp.optimal()) << "seed " << seed;
    ASSERT_TRUE(ns.optimal()) << "seed " << seed;
    EXPECT_EQ(ssp.cost, ns.cost) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(g, ssp.arc_flow)) << "seed " << seed;
  }
}

// Fault-injection sweep: corrupt solver outputs on seeded random
// instances and require that the robust path either corrects the answer
// through its fallback chain (same optimal cost as the un-corrupted
// reference) or surfaces the failure as kUncertified — a corrupted flow
// must never come back labelled optimal.
class FaultInjectionSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph make_instance(std::uint64_t seed) const {
    RandomFlowOptions opts;
    opts.num_nodes = 8 + static_cast<int>(seed % 6);
    opts.num_arcs = 18 + static_cast<int>(seed % 12);
    opts.min_cost = -15;
    opts.supply = 2 + static_cast<Flow>(seed % 5);
    opts.lower_bound_prob = seed % 3 == 0 ? 0.3 : 0.0;
    return random_flow_problem(seed, opts);
  }
};

TEST_P(FaultInjectionSweep, SingleFaultIsCorrectedByTheFallbackChain) {
  const std::uint64_t seed = GetParam();
  const Graph g = make_instance(seed);
  const FlowSolution reference = solve(g);

  FaultInjector injector(seed * 2654435761u + 1);
  SolveOptions options;
  options.post_solve_hook = injector.hook();
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, options, &diag);

  if (!reference.optimal()) {
    EXPECT_EQ(sol.status, reference.status) << "seed " << seed;
    return;
  }
  ASSERT_TRUE(sol.optimal()) << "seed " << seed << ": " << diag.summary();
  EXPECT_EQ(sol.cost, reference.cost) << "seed " << seed;
  EXPECT_EQ(diag.certification, CertificationVerdict::kPassed);
  if (injector.faults_injected() > 0) {
    EXPECT_GE(diag.fallbacks_taken, 1) << "seed " << seed;
  }
  const CheckResult feasible = check_feasible(g, sol.arc_flow);
  EXPECT_TRUE(feasible.ok) << "seed " << seed << ": " << feasible.message;
}

TEST_P(FaultInjectionSweep, PersistentFaultsAreSurfacedNotReturned) {
  const std::uint64_t seed = GetParam();
  const Graph g = make_instance(seed);
  const FlowSolution reference = solve(g);

  FaultInjectorOptions fopts;
  fopts.max_faulty_attempts = 1 << 20;  // Corrupt every attempt.
  FaultInjector injector(seed * 0x9e3779b97f4a7c15ull + 3, fopts);
  SolveOptions options;
  options.post_solve_hook = injector.hook();
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, options, &diag);

  if (!reference.optimal()) {
    EXPECT_EQ(sol.status, reference.status) << "seed " << seed;
    return;
  }
  // Every solver's answer was corrupted, so nothing may certify: the
  // robust path must refuse to bless any of them.
  EXPECT_EQ(sol.status, SolveStatus::kUncertified)
      << "seed " << seed << ": " << diag.summary();
  EXPECT_EQ(diag.certification, CertificationVerdict::kFailed);
  EXPECT_EQ(injector.faults_injected(),
            static_cast<int>(diag.attempts.size()))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjectionSweep,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace lera::netflow
