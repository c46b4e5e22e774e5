#include "netflow/select.hpp"

#include "netflow/graph.hpp"

namespace lera::netflow {

namespace {

/// Largest flow value SSP takes. Calibrated on 458 allocation graphs
/// (compile-large blocks, the DSP kernel suite, serve-hits' pool and
/// random static and activity blocks of 8-2,048 variables with R from 1
/// to the peak; Release, best of 3 through solve_st_flow_robust). SSP
/// won every graph at R = 4 and 36 of 40 serve graphs at R <= 12; the
/// simplex won every compile-large block (R = 16-128) and all 19 serve
/// graphs at R >= 13. The random blocks cross over at R = 8-30. Under
/// this rule the geometric-mean regret against the faster of the two is
/// 1.008. Cost scaling was fastest on 27 of the 458 graphs, all at or
/// near the peak density, which the shape cannot see.
constexpr Flow kSspMaxSupply = 12;

}  // namespace

std::string InstanceShape::summary() const {
  std::string out = "nodes=" + std::to_string(nodes);
  out += " arcs=" + std::to_string(arcs);
  out += " supply_volume=" + std::to_string(supply_volume);
  out += warm_cache_match ? " warm_cache_match=1" : " warm_cache_match=0";
  return out;
}

InstanceShape measure_shape(const Graph& g) {
  InstanceShape shape;
  shape.nodes = g.num_nodes();
  shape.arcs = g.num_arcs();
  for (NodeId v = 0; v < shape.nodes; ++v) {
    if (g.supply(v) > 0) shape.supply_volume += g.supply(v);
  }
  return shape;
}

SolverKind select_solver(const InstanceShape& shape) {
  // A matching warm-cache entry means the resolve path (SSP's drain on
  // repaired potentials) is primed; keep the cold fallback on the same
  // machinery so its scratch and its equal-cost tie-breaks line up.
  if (shape.warm_cache_match) return SolverKind::kSuccessiveShortestPaths;
  // One Dijkstra search per unit of flow is cheap while R is small.
  if (shape.supply_volume <= kSspMaxSupply) {
    return SolverKind::kSuccessiveShortestPaths;
  }
  return SolverKind::kNetworkSimplex;
}

}  // namespace lera::netflow
