#include <gtest/gtest.h>

#include "netflow/netflow.hpp"

/// Deterministic behavioural tests of the three min-cost flow solvers.
/// Every test runs against all solver kinds via the parameterised suite.

namespace lera::netflow {
namespace {

class SolverTest : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SolverTest, TrivialEmptyInstance) {
  Graph g(2);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.cost, 0);
}

TEST_P(SolverTest, SingleArcTransport) {
  Graph g(2);
  g.add_arc(0, 1, 5, 3);
  g.set_supply(0, 4);
  g.set_supply(1, -4);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.arc_flow, (std::vector<Flow>{4}));
  EXPECT_EQ(sol.cost, 12);
}

TEST_P(SolverTest, PrefersCheaperParallelArc) {
  Graph g(2);
  g.add_arc(0, 1, 3, 10);
  g.add_arc(0, 1, 3, 1);
  g.set_supply(0, 4);
  g.set_supply(1, -4);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.arc_flow[1], 3);  // Cheap arc saturated first.
  EXPECT_EQ(sol.arc_flow[0], 1);
  EXPECT_EQ(sol.cost, 13);
}

TEST_P(SolverTest, RoutesAroundSaturatedPath) {
  // 0 -> 1 -> 3 cheap but thin; 0 -> 2 -> 3 dear but wide.
  Graph g(4);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 3, 2, 1);
  g.add_arc(0, 2, 5, 3);
  g.add_arc(2, 3, 5, 3);
  g.set_supply(0, 5);
  g.set_supply(3, -5);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.cost, 2 * 2 + 3 * 6);
  EXPECT_TRUE(check_feasible(g, sol.arc_flow).ok);
  EXPECT_TRUE(certify_optimal(g, sol.arc_flow));
}

TEST_P(SolverTest, ExploitsNegativeArcEvenWithZeroSupply) {
  // A negative-cost cycle must be saturated in the optimal circulation.
  Graph g(3);
  g.add_arc(0, 1, 2, -5);
  g.add_arc(1, 2, 2, 1);
  g.add_arc(2, 0, 2, 1);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.cost, 2 * (-5 + 1 + 1));
  EXPECT_EQ(sol.arc_flow, (std::vector<Flow>{2, 2, 2}));
}

TEST_P(SolverTest, IgnoresUnprofitableCycle) {
  Graph g(3);
  g.add_arc(0, 1, 2, -1);
  g.add_arc(1, 2, 2, 1);
  g.add_arc(2, 0, 2, 1);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.cost, 0);
  EXPECT_EQ(sol.arc_flow, (std::vector<Flow>{0, 0, 0}));
}

TEST_P(SolverTest, NegativeArcsOnPath) {
  Graph g(3);
  g.add_arc(0, 1, 4, -7);
  g.add_arc(1, 2, 4, 2);
  g.set_supply(0, 3);
  g.set_supply(2, -3);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.cost, 3 * -5);
  EXPECT_TRUE(check_feasible(g, sol.arc_flow).ok);
}

TEST_P(SolverTest, InfeasibleWhenCutTooSmall) {
  Graph g(3);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 2, 2, 1);
  g.set_supply(0, 3);
  g.set_supply(2, -3);
  const FlowSolution sol = solve(g, GetParam());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST_P(SolverTest, BadInstanceWhenSuppliesDoNotBalance) {
  // No b-flow exists when supplies do not sum to zero; the instance is
  // rejected up front (kBadInstance) instead of reaching a solver that
  // might assert or loop on it.
  Graph g(2);
  g.add_arc(0, 1, 5, 1);
  g.set_supply(0, 2);
  const FlowSolution sol = solve(g, GetParam());
  EXPECT_EQ(sol.status, SolveStatus::kBadInstance);
  EXPECT_FALSE(sol.message.empty());
  EXPECT_NE(sol.message.find("supply"), std::string::npos);
}

TEST_P(SolverTest, HonoursLowerBounds) {
  // Forcing one unit through the dear arc despite a cheap alternative.
  Graph g(2);
  g.add_arc(0, 1, 3, 100, 1);
  g.add_arc(0, 1, 3, 1);
  g.set_supply(0, 2);
  g.set_supply(1, -2);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.arc_flow[0], 1);
  EXPECT_EQ(sol.arc_flow[1], 1);
  EXPECT_EQ(sol.cost, 101);
}

TEST_P(SolverTest, LowerBoundsCanBeInfeasible) {
  Graph g(2);
  g.add_arc(0, 1, 2, 1, 2);  // Must carry 2 ...
  // ... but nothing brings the units back to balance node supplies of 0.
  const FlowSolution sol = solve(g, GetParam());
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST_P(SolverTest, LowerBoundCirculationWithReturnPath) {
  Graph g(2);
  g.add_arc(0, 1, 2, 5, 2);
  g.add_arc(1, 0, 4, 1);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.arc_flow, (std::vector<Flow>{2, 2}));
  EXPECT_EQ(sol.cost, 12);
}

TEST_P(SolverTest, StFlowWrapper) {
  Graph g(3);
  g.add_arc(0, 1, 5, 2);
  g.add_arc(1, 2, 5, 2);
  const FlowSolution sol = solve_st_flow(g, 0, 2, 3, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.cost, 12);
  // The wrapper must not mutate the caller's graph.
  EXPECT_EQ(g.supply(0), 0);
}

TEST_P(SolverTest, DiamondWithMixedSigns) {
  Graph g(4);
  g.add_arc(0, 1, 3, 4);
  g.add_arc(0, 2, 3, -2);
  g.add_arc(1, 3, 3, 1);
  g.add_arc(2, 3, 3, 3);
  g.add_arc(1, 2, 2, -4);
  g.set_supply(0, 4);
  g.set_supply(3, -4);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_TRUE(check_feasible(g, sol.arc_flow).ok);
  EXPECT_TRUE(certify_optimal(g, sol.arc_flow));
}

TEST_P(SolverTest, MultipleSourcesAndSinks) {
  Graph g(5);
  g.add_arc(0, 2, 4, 1);
  g.add_arc(1, 2, 4, 2);
  g.add_arc(2, 3, 4, 1);
  g.add_arc(2, 4, 4, 5);
  g.set_supply(0, 2);
  g.set_supply(1, 2);
  g.set_supply(3, -3);
  g.set_supply(4, -1);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_TRUE(check_feasible(g, sol.arc_flow).ok);
  EXPECT_TRUE(certify_optimal(g, sol.arc_flow));
  EXPECT_EQ(sol.cost, 2 * 1 + 2 * 2 + 3 * 1 + 1 * 5);
}

TEST_P(SolverTest, ZeroCapacityArcsAreInert) {
  Graph g(2);
  g.add_arc(0, 1, 0, -100);
  g.add_arc(0, 1, 5, 2);
  g.set_supply(0, 1);
  g.set_supply(1, -1);
  const FlowSolution sol = solve(g, GetParam());
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.arc_flow[0], 0);
  EXPECT_EQ(sol.cost, 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, SolverTest,
    ::testing::Values(SolverKind::kSuccessiveShortestPaths,
                      SolverKind::kCycleCanceling,
                      SolverKind::kNetworkSimplex, SolverKind::kAuto),
    [](const ::testing::TestParamInfo<SolverKind>& info) {
      switch (info.param) {
        case SolverKind::kSuccessiveShortestPaths: return std::string("Ssp");
        case SolverKind::kCycleCanceling: return std::string("CycleCancel");
        case SolverKind::kNetworkSimplex: return std::string("NetSimplex");
        case SolverKind::kAuto: return std::string("Auto");
      }
      return std::string("Unknown");
    });

TEST(SolverNames, RoundTrip) {
  EXPECT_EQ(to_string(SolverKind::kNetworkSimplex), "network-simplex");
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
}

}  // namespace
}  // namespace lera::netflow
