#pragma once

#include <cstdint>
#include <string>

#include "netflow/solution.hpp"
#include "netflow/types.hpp"

/// \file select.hpp
/// Backend selection for SolverKind::kAuto, the allocator's default.
///
/// No single min-cost-flow algorithm dominates (Kiraly & Kovacs 2012
/// measure crossovers spanning orders of magnitude), so kAuto is
/// calibrated on the instance family it serves: allocation flow graphs.
/// There one observable input, the flow value (the register count R),
/// separates the two winners. SSP pays one shortest-path search per unit
/// of flow; the simplex starts from a big-M artificial basis, so its
/// pivot stream grows with the graph and not with R. `bench_solvers
/// --smoke` gates the regret of this policy on allocation graphs.
/// Selection is deterministic: the same instance always maps to the same
/// backend.

namespace lera::netflow {

class Graph;

/// The instance features kAuto and the footprint estimators
/// (membudget.hpp) read. Cheap to measure: one O(n) pass over the
/// supplies plus O(1) counts.
struct InstanceShape {
  NodeId nodes = 0;
  std::int64_t arcs = 0;
  /// Total positive supply (the flow value R of an s-t instance). SSP's
  /// augmentation count is bounded by it, which makes SSP
  /// output-sensitive where the simplex is not.
  Flow supply_volume = 0;
  /// A warm-start cache entry matches this topology (solve_robust sets
  /// this; the warm resolve shares SSP's drain machinery, so a warm
  /// context selects SSP).
  bool warm_cache_match = false;

  /// Compact "nodes=... arcs=..." rendering for diagnostics and logs.
  std::string summary() const;
};

/// Measures \p g. warm_cache_match is left false; callers with a cache
/// set it themselves.
InstanceShape measure_shape(const Graph& g);

/// The calibrated policy: maps a shape to a concrete backend, never
/// kAuto. See select.cpp for the measured crossover behind the
/// threshold.
SolverKind select_solver(const InstanceShape& shape);

}  // namespace lera::netflow
