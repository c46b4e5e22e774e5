#include <gtest/gtest.h>

#include "alloc/flow_graph.hpp"
#include "netflow/decompose.hpp"
#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

namespace lera::netflow {
namespace {

/// Recomposing the components must reproduce the arc flows exactly.
void expect_recomposition(const Graph& g, const std::vector<Flow>& flow,
                          const std::vector<FlowComponent>& components) {
  std::vector<Flow> rebuilt(flow.size(), 0);
  for (const FlowComponent& comp : components) {
    EXPECT_GT(comp.amount, 0);
    for (ArcId a : comp.arcs) {
      rebuilt[static_cast<std::size_t>(a)] += comp.amount;
    }
    // Arcs must chain head-to-tail.
    for (std::size_t i = 0; i + 1 < comp.arcs.size(); ++i) {
      EXPECT_EQ(g.arc(comp.arcs[i]).head, g.arc(comp.arcs[i + 1]).tail);
    }
    if (comp.is_cycle) {
      EXPECT_EQ(g.arc(comp.arcs.back()).head, g.arc(comp.arcs.front()).tail);
    }
  }
  EXPECT_EQ(rebuilt, flow);
  EXPECT_LE(components.size(), flow.size());  // At most m components.
}

TEST(Decompose, EmptyFlow) {
  Graph g(3);
  g.add_arc(0, 1, 5, 1);
  EXPECT_TRUE(decompose_flow(g, {0}).empty());
}

TEST(Decompose, SinglePath) {
  Graph g(3);
  g.add_arc(0, 1, 5, 1);
  g.add_arc(1, 2, 5, 1);
  const std::vector<Flow> flow = {3, 3};
  const auto comps = decompose_flow(g, flow);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_FALSE(comps[0].is_cycle);
  EXPECT_EQ(comps[0].amount, 3);
  EXPECT_EQ(comps[0].arcs, (std::vector<ArcId>{0, 1}));
  expect_recomposition(g, flow, comps);
}

TEST(Decompose, PureCycle) {
  Graph g(3);
  g.add_arc(0, 1, 5, 0);
  g.add_arc(1, 2, 5, 0);
  g.add_arc(2, 0, 5, 0);
  const std::vector<Flow> flow = {2, 2, 2};
  const auto comps = decompose_flow(g, flow);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_TRUE(comps[0].is_cycle);
  EXPECT_EQ(comps[0].amount, 2);
  expect_recomposition(g, flow, comps);
}

TEST(Decompose, PathPlusCycle) {
  Graph g(4);
  g.add_arc(0, 1, 5, 0);  // path
  g.add_arc(1, 3, 5, 0);  // path
  g.add_arc(1, 2, 5, 0);  // cycle
  g.add_arc(2, 1, 5, 0);  // cycle
  const std::vector<Flow> flow = {2, 2, 1, 1};
  const auto comps = decompose_flow(g, flow);
  expect_recomposition(g, flow, comps);
  int cycles = 0;
  int paths = 0;
  for (const auto& c : comps) (c.is_cycle ? cycles : paths)++;
  EXPECT_EQ(cycles, 1);
  EXPECT_EQ(paths, 1);
}

TEST(Decompose, UnevenParallelPaths) {
  Graph g(4);
  g.add_arc(0, 1, 9, 0);
  g.add_arc(0, 2, 9, 0);
  g.add_arc(1, 3, 9, 0);
  g.add_arc(2, 3, 9, 0);
  const std::vector<Flow> flow = {5, 2, 5, 2};
  const auto comps = decompose_flow(g, flow);
  expect_recomposition(g, flow, comps);
  EXPECT_EQ(comps.size(), 2u);
}

TEST(Decompose, SolverOutputsOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    workloads::RandomFlowOptions opts;
    opts.min_cost = -20;
    opts.supply = 6;
    opts.lower_bound_prob = 0.2;
    const Graph g = workloads::random_flow_problem(seed, opts);
    const FlowSolution sol = solve(g);
    if (!sol.optimal()) continue;
    expect_recomposition(g, sol.arc_flow, decompose_flow(g, sol.arc_flow));
  }
}

TEST(Decompose, AllocationFlowsAreRegisterChains) {
  // On an allocation graph every path component carries one unit (the
  // capacity-1 arcs) from s to t: exactly the register chains the
  // allocator extracts.
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 10;
  energy::EnergyParams params;
  const alloc::AllocationProblem p = alloc::make_problem(
      workloads::random_lifetimes(5, lopts), lopts.num_steps, 3, params,
      workloads::random_activity(5, 10));
  const alloc::FlowGraphSpec spec =
      alloc::build_flow_graph(p, alloc::GraphStyle::kDensityRegions);
  const FlowSolution sol =
      solve_st_flow_robust(spec.graph, spec.s, spec.t, p.num_registers);
  ASSERT_TRUE(sol.optimal());
  const auto comps = decompose_flow(spec.graph, sol.arc_flow);
  expect_recomposition(spec.graph, sol.arc_flow, comps);
  Flow total = 0;
  for (const auto& c : comps) {
    EXPECT_FALSE(c.is_cycle);
    EXPECT_EQ(spec.graph.arc(c.arcs.front()).tail, spec.s);
    EXPECT_EQ(spec.graph.arc(c.arcs.back()).head, spec.t);
    total += c.amount;
  }
  EXPECT_EQ(total, p.num_registers);
}

}  // namespace
}  // namespace lera::netflow
