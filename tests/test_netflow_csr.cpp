#include <gtest/gtest.h>

#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "netflow/netflow.hpp"
#include "workloads/random_gen.hpp"

// Differential test for the CSR solver core: the production SSP (CSR
// residual, lazy 4-ary heap, round-stamped workspace) must return
// BIT-IDENTICAL arc flows to a deliberately naive reference solver built
// on adjacency lists and a lazy-deletion binary priority queue. Both
// order the Dijkstra settle sequence by (distance, then HIGHER node id),
// both relax residual edges in the same per-node order (forward edge
// before twin, arcs in insertion order), and both update parents only on
// strict improvement — so they agree not just on the optimal cost but on
// which equal-cost optimum they pick, on every instance.

namespace lera::netflow {
namespace {

/// Reference residual edge; edge ids mirror the production layout
/// (forward 2a, twin 2a+1, twin(e) = e^1).
struct RefEdge {
  NodeId head = 0;
  Flow cap = 0;
  Cost cost = 0;
};

struct RefSolution {
  SolveStatus status = SolveStatus::kInfeasible;
  std::vector<Flow> arc_flow;
  Cost cost = 0;
};

/// Textbook successive-shortest-paths on vector-of-vectors adjacency.
/// Kept intentionally simple and allocation-happy: it re-fills every
/// per-round array and pushes duplicate heap entries, trusting the
/// (dist, node) key and a settled check to discard stale ones.
RefSolution reference_ssp(const Graph& g) {
  RefSolution out;
  if (g.total_supply() != 0) return out;
  const NodeId n = g.num_nodes();
  const auto un = static_cast<std::size_t>(n);

  std::vector<RefEdge> edges;
  std::vector<NodeId> tails;
  std::vector<std::vector<int>> adj(un);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    adj[static_cast<std::size_t>(arc.tail)].push_back(
        static_cast<int>(edges.size()));
    edges.push_back({arc.head, arc.upper, arc.cost});
    tails.push_back(arc.tail);
    adj[static_cast<std::size_t>(arc.head)].push_back(
        static_cast<int>(edges.size()));
    edges.push_back({arc.tail, 0, -arc.cost});
    tails.push_back(arc.head);
  }
  const auto push = [&](int e, Flow amount) {
    edges[static_cast<std::size_t>(e)].cap -= amount;
    edges[static_cast<std::size_t>(e ^ 1)].cap += amount;
  };

  std::vector<Flow> excess(un, 0);
  for (NodeId v = 0; v < n; ++v) {
    excess[static_cast<std::size_t>(v)] = g.supply(v);
  }

  // Same negative-cost strategy as the production solver: exact initial
  // potentials when the positive-capacity arcs form no negative cycle,
  // otherwise saturate every negative arc.
  std::vector<Cost> pi(un, 0);
  if (g.has_negative_costs()) {
    bool has_negative_cycle = false;
    for (NodeId round = 0; round <= n; ++round) {
      bool changed = false;
      for (ArcId a = 0; a < g.num_arcs(); ++a) {
        const Arc& arc = g.arc(a);
        if (arc.upper <= 0) continue;
        if (pi[static_cast<std::size_t>(arc.tail)] + arc.cost <
            pi[static_cast<std::size_t>(arc.head)]) {
          if (round == n) {
            has_negative_cycle = true;
            break;
          }
          pi[static_cast<std::size_t>(arc.head)] =
              pi[static_cast<std::size_t>(arc.tail)] + arc.cost;
          changed = true;
        }
      }
      if (has_negative_cycle || !changed) break;
    }
    if (has_negative_cycle) {
      std::fill(pi.begin(), pi.end(), 0);
      for (ArcId a = 0; a < g.num_arcs(); ++a) {
        const Arc& arc = g.arc(a);
        if (arc.cost < 0 && arc.upper > 0) {
          push(2 * static_cast<int>(a), arc.upper);
          excess[static_cast<std::size_t>(arc.tail)] -= arc.upper;
          excess[static_cast<std::size_t>(arc.head)] += arc.upper;
        }
      }
    }
  }

  for (;;) {
    bool any_excess = false;
    for (NodeId v = 0; v < n; ++v) {
      if (excess[static_cast<std::size_t>(v)] > 0) {
        any_excess = true;
        break;
      }
    }
    if (!any_excess) break;

    // Multi-source Dijkstra on reduced costs, (dist, node) keyed lazy
    // PQ, early exit at the first settled deficit. Distance ties pop the
    // higher node id first, matching the production heap order.
    std::vector<Cost> dist(un, kInfCost);
    std::vector<int> parent(un, -1);
    std::vector<bool> settled(un, false);
    using Entry = std::pair<Cost, NodeId>;
    struct EntryAfter {
      bool operator()(const Entry& a, const Entry& b) const {
        return a.first > b.first ||
               (a.first == b.first && a.second < b.second);
      }
    };
    std::priority_queue<Entry, std::vector<Entry>, EntryAfter> pq;
    for (NodeId v = 0; v < n; ++v) {
      if (excess[static_cast<std::size_t>(v)] > 0) {
        dist[static_cast<std::size_t>(v)] = 0;
        pq.push({0, v});
      }
    }
    NodeId sink = kInvalidNode;
    while (!pq.empty()) {
      const auto [du, u] = pq.top();
      pq.pop();
      const auto su = static_cast<std::size_t>(u);
      if (settled[su] || du != dist[su]) continue;  // Stale entry.
      settled[su] = true;
      if (excess[su] < 0) {
        sink = u;
        break;
      }
      for (int e : adj[su]) {
        const RefEdge& edge = edges[static_cast<std::size_t>(e)];
        if (edge.cap <= 0) continue;
        const Cost rc =
            edge.cost + pi[su] - pi[static_cast<std::size_t>(edge.head)];
        const Cost nd = du + rc;
        const auto h = static_cast<std::size_t>(edge.head);
        if (nd < dist[h]) {
          dist[h] = nd;
          parent[h] = e;
          pq.push({nd, edge.head});
        }
      }
    }
    if (sink == kInvalidNode) return out;  // kInfeasible.

    const Cost dt = dist[static_cast<std::size_t>(sink)];
    for (NodeId v = 0; v < n; ++v) {
      pi[static_cast<std::size_t>(v)] +=
          std::min(dist[static_cast<std::size_t>(v)], dt);
    }

    Flow delta = -excess[static_cast<std::size_t>(sink)];
    NodeId v = sink;
    while (parent[static_cast<std::size_t>(v)] >= 0) {
      const int e = parent[static_cast<std::size_t>(v)];
      delta = std::min(delta, edges[static_cast<std::size_t>(e)].cap);
      v = tails[static_cast<std::size_t>(e)];
    }
    delta = std::min(delta, excess[static_cast<std::size_t>(v)]);
    excess[static_cast<std::size_t>(v)] -= delta;
    excess[static_cast<std::size_t>(sink)] += delta;
    v = sink;
    while (parent[static_cast<std::size_t>(v)] >= 0) {
      const int e = parent[static_cast<std::size_t>(v)];
      push(e, delta);
      v = tails[static_cast<std::size_t>(e)];
    }
  }

  out.status = SolveStatus::kOptimal;
  out.arc_flow.resize(static_cast<std::size_t>(g.num_arcs()));
  out.cost = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Flow f = edges[static_cast<std::size_t>(2 * a + 1)].cap;
    out.arc_flow[static_cast<std::size_t>(a)] = f;
    out.cost += g.arc(a).cost * f;
  }
  return out;
}

/// Instance mix: cycles through three sizes so the 200 seeds cover
/// small/medium/denser graphs, all with negative costs in play.
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

TEST(CsrAdjacency, MatchesHandBuiltLists) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = workloads::random_flow_problem(seed, options_for(seed));
    std::vector<std::vector<ArcId>> out_ref(
        static_cast<std::size_t>(g.num_nodes()));
    std::vector<std::vector<ArcId>> in_ref(
        static_cast<std::size_t>(g.num_nodes()));
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      out_ref[static_cast<std::size_t>(g.arc(a).tail)].push_back(a);
      in_ref[static_cast<std::size_t>(g.arc(a).head)].push_back(a);
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(g.out_arcs(v).to_vector(),
                out_ref[static_cast<std::size_t>(v)])
          << "seed " << seed << " node " << v;
      EXPECT_EQ(g.in_arcs(v).to_vector(), in_ref[static_cast<std::size_t>(v)])
          << "seed " << seed << " node " << v;
    }
  }
}

TEST(CsrAdjacency, IncrementalAdditionsMatchFreshRebuild) {
  // Build, force the CSR cache, then keep mutating: every add must be
  // visible without invalidating unrelated nodes, and the result must
  // equal a from-scratch graph's adjacency.
  const Graph base = workloads::random_flow_problem(7, options_for(7));
  Graph g = base;
  (void)g.out_arcs(0);  // Materialise the CSR cache.
  Graph fresh = base;
  for (int i = 0; i < 200; ++i) {
    const NodeId tail = static_cast<NodeId>((i * 7) % g.num_nodes());
    const NodeId head = static_cast<NodeId>((i * 11 + 3) % g.num_nodes());
    g.add_arc(tail, head, 1 + i % 4, i % 9 - 4);
    fresh.add_arc(tail, head, 1 + i % 4, i % 9 - 4);
    if (i % 50 == 25) {
      const NodeId v = g.add_nodes(1);
      const NodeId fv = fresh.add_nodes(1);
      ASSERT_EQ(v, fv);
      g.add_arc(v, 0, 2, 1);
      fresh.add_arc(fv, 0, 2, 1);
    }
    if (i % 17 == 0) {
      // Interleave reads so the overflow path (not just the rebuild
      // path) is exercised.
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(g.out_arcs(v).to_vector(), fresh.out_arcs(v).to_vector())
            << "iteration " << i << " node " << v;
        ASSERT_EQ(g.in_arcs(v).to_vector(), fresh.in_arcs(v).to_vector())
            << "iteration " << i << " node " << v;
      }
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.out_arcs(v).to_vector(), fresh.out_arcs(v).to_vector());
    EXPECT_EQ(g.in_arcs(v).to_vector(), fresh.in_arcs(v).to_vector());
  }
}

TEST(CsrSolver, TwoHundredSeedsBitIdenticalToReference) {
  SolverWorkspace shared;  // Reused across every seed, like the Engine.
  int optimal = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Graph g = workloads::random_flow_problem(seed, options_for(seed));
    const RefSolution ref = reference_ssp(g);

    // Once cold (fresh allocations), once through the shared workspace:
    // both must match the reference exactly.
    const FlowSolution cold = solve(g, SolverKind::kSuccessiveShortestPaths);
    const FlowSolution warm =
        solve(g, SolverKind::kSuccessiveShortestPaths, nullptr, &shared);

    ASSERT_EQ(cold.status, ref.status) << "seed " << seed;
    ASSERT_EQ(warm.status, ref.status) << "seed " << seed;
    if (ref.status != SolveStatus::kOptimal) {
      ++infeasible;
      continue;
    }
    ++optimal;
    EXPECT_EQ(cold.cost, ref.cost) << "seed " << seed;
    EXPECT_EQ(warm.cost, ref.cost) << "seed " << seed;
    ASSERT_EQ(cold.arc_flow, ref.arc_flow) << "seed " << seed;
    ASSERT_EQ(warm.arc_flow, ref.arc_flow) << "seed " << seed;

    // Certification verdicts must agree too: both flows are feasible
    // and leave no negative residual cycle.
    EXPECT_TRUE(check_feasible(g, ref.arc_flow).ok) << "seed " << seed;
    EXPECT_TRUE(check_feasible(g, cold.arc_flow).ok) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(g, ref.arc_flow)) << "seed " << seed;
    EXPECT_TRUE(certify_optimal(g, cold.arc_flow)) << "seed " << seed;
    Cost cold_total = 0;
    Cost ref_total = 0;
    ASSERT_TRUE(checked_flow_cost(g, cold.arc_flow, cold_total));
    ASSERT_TRUE(checked_flow_cost(g, ref.arc_flow, ref_total));
    EXPECT_EQ(cold_total, ref_total) << "seed " << seed;
  }
  // The generator keeps most instances feasible; make sure the run
  // actually exercised the solver rather than short-circuiting.
  EXPECT_GT(optimal, 150);
  EXPECT_EQ(optimal + infeasible, 200);
  EXPECT_EQ(shared.counters.solves, 200);
  EXPECT_GT(shared.counters.augmentations, 0);
  EXPECT_GT(shared.counters.heap_pushes, 0);
  EXPECT_GE(shared.counters.heap_pushes, shared.counters.heap_pops);
}

TEST(CsrSolver, PerfCountersAccumulateAcrossSolves) {
  SolverWorkspace ws;
  const Graph g = workloads::random_flow_problem(3, options_for(3));
  (void)solve(g, SolverKind::kSuccessiveShortestPaths, nullptr, &ws);
  const PerfCounters first = ws.counters;
  ASSERT_EQ(first.solves, 1);
  (void)solve(g, SolverKind::kSuccessiveShortestPaths, nullptr, &ws);
  EXPECT_EQ(ws.counters.solves, 2);
  const PerfCounters delta = ws.counters.delta_since(first);
  EXPECT_EQ(delta.solves, 1);
  // The same instance through the same (deterministic) solver does the
  // same work both times.
  EXPECT_EQ(delta.augmentations, first.augmentations);
  EXPECT_EQ(delta.heap_pops, first.heap_pops);
  // The LERA_PERF key list is an output format: pin every key, in order.
  std::vector<std::string> keys;
  std::istringstream fields(ws.counters.summary());
  for (std::string field; fields >> field;) {
    keys.push_back(field.substr(0, field.find('=')));
  }
  const std::vector<std::string> expected = {
      "solves", "augmentations", "settles", "heap_pushes", "heap_pops",
      "pivots", "auto_selections", "workspace_reuse", "warm_hits",
      "warm_misses", "warm_store_rejects", "cache_hits", "cache_misses",
      "cache_evictions", "cache_audit_samples", "cache_bytes", "validate_ns",
      "solve_ns", "certify_ns", "mem_charged_bytes", "mem_denials",
      "mem_peak_bytes"};
  EXPECT_EQ(keys, expected);
}

TEST(CsrSolver, NetworkSimplexSharesTheWorkspace) {
  SolverWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = workloads::random_flow_problem(seed, options_for(seed));
    const FlowSolution a = solve(g, SolverKind::kNetworkSimplex);
    const FlowSolution b =
        solve(g, SolverKind::kNetworkSimplex, nullptr, &ws);
    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    EXPECT_EQ(a.cost, b.cost) << "seed " << seed;
    EXPECT_EQ(a.arc_flow, b.arc_flow) << "seed " << seed;
  }
  EXPECT_EQ(ws.counters.solves, 20);
  EXPECT_GT(ws.counters.simplex_pivots, 0);
}

}  // namespace
}  // namespace lera::netflow
