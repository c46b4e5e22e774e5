#include "netflow/validate.hpp"

#include <sstream>
#include <vector>

namespace lera::netflow {

CheckResult check_feasible(const Graph& g, const std::vector<Flow>& flow) {
  if (flow.size() != static_cast<std::size_t>(g.num_arcs())) {
    return {false, "flow vector size mismatch"};
  }
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    const Flow x = flow[static_cast<std::size_t>(a)];
    if (x < arc.lower || x > arc.upper) {
      std::ostringstream os;
      os << "arc " << a << " flow " << x << " outside [" << arc.lower << ","
         << arc.upper << "]";
      return {false, os.str()};
    }
  }
  std::vector<Flow> balance(static_cast<std::size_t>(g.num_nodes()), 0);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    balance[static_cast<std::size_t>(arc.tail)] +=
        flow[static_cast<std::size_t>(a)];
    balance[static_cast<std::size_t>(arc.head)] -=
        flow[static_cast<std::size_t>(a)];
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (balance[static_cast<std::size_t>(v)] != g.supply(v)) {
      std::ostringstream os;
      os << "node " << v;
      if (!g.node_name(v).empty()) os << " (" << g.node_name(v) << ")";
      os << " imbalance: outflow-inflow="
         << balance[static_cast<std::size_t>(v)] << " supply="
         << g.supply(v);
      return {false, os.str()};
    }
  }
  return {};
}

Cost flow_cost(const Graph& g, const std::vector<Flow>& flow) {
  if (flow.size() != static_cast<std::size_t>(g.num_arcs())) return 0;
  Cost total = 0;
  if (checked_flow_cost(g, flow, total)) return total;
  // Saturate towards the sign of the first overflowing partial sum.
  Cost running = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    Cost term = 0;
    if (!checked_mul(g.arc(a).cost, flow[static_cast<std::size_t>(a)],
                     term) ||
        !checked_add(running, term, running)) {
      const bool negative =
          (g.arc(a).cost < 0) != (flow[static_cast<std::size_t>(a)] < 0);
      return negative ? -kInfCost : kInfCost;
    }
  }
  return saturate_cost(running);
}

bool checked_flow_cost(const Graph& g, const std::vector<Flow>& flow,
                       Cost& total) {
  if (flow.size() != static_cast<std::size_t>(g.num_arcs())) return false;
  Cost running = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    Cost term = 0;
    if (!checked_mul(g.arc(a).cost, flow[static_cast<std::size_t>(a)],
                     term) ||
        !checked_add(running, term, running)) {
      return false;
    }
  }
  total = running;
  return true;
}

bool certify_optimal(const Graph& g, const std::vector<Flow>& flow) {
  // Residual edges: forward where flow < upper, backward where flow > lower.
  struct REdge {
    NodeId tail;
    NodeId head;
    Cost cost;
  };
  std::vector<REdge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_arcs()) * 2);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    const Flow x = flow[static_cast<std::size_t>(a)];
    if (x < arc.upper) edges.push_back({arc.tail, arc.head, arc.cost});
    if (x > arc.lower) edges.push_back({arc.head, arc.tail, -arc.cost});
  }

  // Bellman-Ford from a virtual source (dist 0 everywhere): a relaxation
  // in round n proves a negative residual cycle, i.e. non-optimality.
  const NodeId n = g.num_nodes();
  std::vector<Cost> dist(static_cast<std::size_t>(n), 0);
  for (NodeId round = 0; round <= n; ++round) {
    bool changed = false;
    for (const REdge& e : edges) {
      if (dist[static_cast<std::size_t>(e.tail)] + e.cost <
          dist[static_cast<std::size_t>(e.head)]) {
        dist[static_cast<std::size_t>(e.head)] =
            dist[static_cast<std::size_t>(e.tail)] + e.cost;
        changed = true;
        if (round == n) return false;
      }
    }
    if (!changed) return true;
  }
  return true;
}

}  // namespace lera::netflow
