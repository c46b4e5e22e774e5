#include <gtest/gtest.h>

#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

namespace lera::netflow {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_EQ(g.total_supply(), 0);
  EXPECT_FALSE(g.has_lower_bounds());
  EXPECT_FALSE(g.has_negative_costs());
}

TEST(Graph, AddNodesAndArcs) {
  Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.node_name(a), "a");

  const ArcId arc = g.add_arc(a, b, 5, 7);
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_EQ(g.arc(arc).tail, a);
  EXPECT_EQ(g.arc(arc).head, b);
  EXPECT_EQ(g.arc(arc).upper, 5);
  EXPECT_EQ(g.arc(arc).cost, 7);
  EXPECT_EQ(g.arc(arc).lower, 0);
}

TEST(Graph, BulkNodeCreation) {
  Graph g(4);
  EXPECT_EQ(g.num_nodes(), 4);
  const NodeId first = g.add_nodes(3);
  EXPECT_EQ(first, 4);
  EXPECT_EQ(g.num_nodes(), 7);
}

TEST(Graph, TracksLowerBoundsAndNegativeCosts) {
  Graph g(3);
  g.add_arc(0, 1, 4, 2);
  EXPECT_FALSE(g.has_lower_bounds());
  EXPECT_FALSE(g.has_negative_costs());
  g.add_arc(1, 2, 4, -3, 1);
  EXPECT_TRUE(g.has_lower_bounds());
  EXPECT_TRUE(g.has_negative_costs());
}

TEST(Graph, SupplyBookkeeping) {
  Graph g(3);
  g.set_supply(0, 5);
  g.set_supply(2, -5);
  EXPECT_EQ(g.supply(0), 5);
  EXPECT_EQ(g.total_supply(), 0);
  g.add_supply(1, 2);
  EXPECT_EQ(g.total_supply(), 2);
}

TEST(Graph, AdjacencyLists) {
  Graph g(3);
  const ArcId a01 = g.add_arc(0, 1, 1, 0);
  const ArcId a02 = g.add_arc(0, 2, 1, 0);
  const ArcId a12 = g.add_arc(1, 2, 1, 0);
  EXPECT_EQ(g.out_arcs(0).to_vector(), (std::vector<ArcId>{a01, a02}));
  EXPECT_EQ(g.in_arcs(2).to_vector(), (std::vector<ArcId>{a02, a12}));
  EXPECT_TRUE(g.out_arcs(2).empty());

  // Adjacency refreshes after mutation.
  const ArcId a20 = g.add_arc(2, 0, 1, 0);
  EXPECT_EQ(g.out_arcs(2).to_vector(), (std::vector<ArcId>{a20}));
  EXPECT_EQ(g.out_arcs(0).size(), 2u);
  EXPECT_EQ(g.out_arcs(0)[1], a02);

  // Nodes added after the adjacency is built start with no arcs, and
  // arcs touching them are visible at the next query.
  const NodeId v3 = g.add_nodes(1);
  EXPECT_TRUE(g.out_arcs(v3).empty());
  const ArcId a30 = g.add_arc(v3, 0, 1, 0);
  EXPECT_EQ(g.out_arcs(v3).to_vector(), (std::vector<ArcId>{a30}));
  EXPECT_EQ(g.in_arcs(0).to_vector(), (std::vector<ArcId>{a20, a30}));
}

TEST(Residual, MirrorsArcsWithTwins) {
  Graph g(2);
  g.add_arc(0, 1, 5, 3);
  Residual res(g);
  EXPECT_EQ(res.num_edges(), 2);
  EXPECT_EQ(res.edge(0).head, 1);
  EXPECT_EQ(res.edge(0).cap, 5);
  EXPECT_EQ(res.edge(0).cost, 3);
  EXPECT_EQ(res.edge(1).head, 0);
  EXPECT_EQ(res.edge(1).cap, 0);
  EXPECT_EQ(res.edge(1).cost, -3);
  EXPECT_EQ(res.tail(0), 0);
  EXPECT_EQ(res.tail(1), 1);
}

TEST(Residual, PushMovesCapacityToTwin) {
  Graph g(2);
  g.add_arc(0, 1, 5, 3);
  Residual res(g);
  res.push(0, 2);
  EXPECT_EQ(res.edge(0).cap, 3);
  EXPECT_EQ(res.edge(1).cap, 2);
  EXPECT_EQ(res.flow_of(0), 2);
  res.push(1, 1);  // Cancel one unit.
  EXPECT_EQ(res.flow_of(0), 1);
  EXPECT_EQ(res.arc_flows(), (std::vector<Flow>{1}));
}

TEST(LowerBounds, ReductionShiftsSuppliesAndCost) {
  Graph g(2);
  g.add_arc(0, 1, 5, 4, 2);  // lower bound 2, cost 4
  const LowerBoundReduction red = remove_lower_bounds(g);
  EXPECT_FALSE(red.reduced.has_lower_bounds());
  EXPECT_EQ(red.reduced.arc(0).upper, 3);
  EXPECT_EQ(red.reduced.supply(0), -2);
  EXPECT_EQ(red.reduced.supply(1), 2);
  EXPECT_EQ(red.fixed_cost, 8);

  const std::vector<Flow> restored = restore_lower_bounds(red, {1});
  EXPECT_EQ(restored, (std::vector<Flow>{3}));
}

TEST(Validate, DetectsBoundViolation) {
  Graph g(2);
  g.add_arc(0, 1, 2, 1);
  const CheckResult bad = check_feasible(g, {3});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.message.find("outside"), std::string::npos);
}

TEST(Validate, DetectsImbalance) {
  Graph g(2);
  g.add_arc(0, 1, 2, 1);
  // No supplies set, yet one unit flows: node 0 pushes out 1.
  const CheckResult bad = check_feasible(g, {1});
  EXPECT_FALSE(bad.ok);
}

TEST(Validate, AcceptsBalancedFlow) {
  Graph g(2);
  g.set_supply(0, 2);
  g.set_supply(1, -2);
  g.add_arc(0, 1, 3, 1);
  EXPECT_TRUE(check_feasible(g, {2}).ok);
  EXPECT_EQ(flow_cost(g, {2}), 2);
}

TEST(Validate, CertifiesOptimalityViaResidualCycles) {
  // Two parallel arcs: cheap (cost 1) and dear (cost 5). Routing on the
  // dear one leaves a negative residual cycle; routing cheap does not.
  Graph g(2);
  g.add_arc(0, 1, 2, 1);
  g.add_arc(0, 1, 2, 5);
  g.set_supply(0, 2);
  g.set_supply(1, -2);
  EXPECT_TRUE(certify_optimal(g, {2, 0}));
  EXPECT_FALSE(certify_optimal(g, {0, 2}));
}

TEST(MaxFlow, SimpleBottleneck) {
  Graph g(4);
  g.add_arc(0, 1, 3, 0);
  g.add_arc(0, 2, 2, 0);
  g.add_arc(1, 3, 2, 0);
  g.add_arc(2, 3, 3, 0);
  Residual res(g);
  EXPECT_EQ(dinic_max_flow(res, 0, 3), 4);
}

TEST(MaxFlow, DisconnectedIsZero) {
  Graph g(3);
  g.add_arc(0, 1, 3, 0);
  Residual res(g);
  EXPECT_EQ(dinic_max_flow(res, 0, 2), 0);
}

TEST(MaxFlow, RespectsBackEdges) {
  // Classic case where augmenting must undo a greedy path.
  Graph g(4);
  g.add_arc(0, 1, 1, 0);
  g.add_arc(0, 2, 1, 0);
  g.add_arc(1, 2, 1, 0);
  g.add_arc(1, 3, 1, 0);
  g.add_arc(2, 3, 1, 0);
  Residual res(g);
  EXPECT_EQ(dinic_max_flow(res, 0, 3), 2);
}

TEST(MinCut, MatchesMaxFlowValue) {
  Graph g(4);
  g.add_arc(0, 1, 3, 0);
  g.add_arc(0, 2, 2, 0);
  g.add_arc(1, 3, 2, 0);
  g.add_arc(2, 3, 3, 0);
  Residual res(g);
  const Flow value = dinic_max_flow(res, 0, 3);
  const std::vector<bool> side = min_cut_side(res, 0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[3]);
  // Capacity of the arcs crossing s-side -> t-side equals the flow.
  Flow cut = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    if (side[static_cast<std::size_t>(arc.tail)] &&
        !side[static_cast<std::size_t>(arc.head)]) {
      cut += arc.upper;
    }
  }
  EXPECT_EQ(cut, value);
}

TEST(MinCut, RandomInstancesSatisfyTheTheorem) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    workloads::RandomFlowOptions opts;
    opts.num_nodes = 14;
    opts.num_arcs = 40;
    opts.min_cost = 0;
    opts.supply = 0;
    const Graph g = workloads::random_flow_problem(seed, opts);
    Residual res(g);
    const NodeId s = 0;
    const NodeId t = g.num_nodes() - 1;
    const Flow value = dinic_max_flow(res, s, t);
    const std::vector<bool> side = min_cut_side(res, s);
    ASSERT_TRUE(side[static_cast<std::size_t>(s)]);
    ASSERT_FALSE(side[static_cast<std::size_t>(t)]) << "seed " << seed;
    Flow cut = 0;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const Arc& arc = g.arc(a);
      if (side[static_cast<std::size_t>(arc.tail)] &&
          !side[static_cast<std::size_t>(arc.head)]) {
        cut += arc.upper;
      }
    }
    EXPECT_EQ(cut, value) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lera::netflow
