#pragma once

#include <string>
#include <vector>

#include "netflow/graph.hpp"
#include "netflow/solution.hpp"

/// \file warm.hpp
/// Warm-start resolve: reuse the optimal flow of a previous solve when a
/// re-submitted instance shares its topology (same nodes, arcs and
/// supplies) and differs only in arc costs and/or capacities — the
/// explore-schedules and voltage-sweep pattern.
///
/// The cache stores the prior optimal flow *and* a set of potentials
/// valid for it (computed once at store() time). The warm path clamps
/// the cached flow to the new capacities (creating excesses where
/// capacity shrank), then saturates every residual edge whose reduced
/// cost went negative under the new costs — after which the cached
/// potentials are valid again — and repairs the accumulated imbalance
/// with ordinary SSP augmentations. Small perturbations violate few
/// edges, so the repair is a handful of short Dijkstra runs instead of
/// a full solve. The result satisfies the same optimality invariant as
/// a cold SSP solve; callers are expected to certify it regardless
/// (solve_robust always does), so a wrong warm start fails loudly,
/// never silently.
///
/// An edited instance (a variable added, removed or shifted) has a
/// different topology, so its cache entry is first carried onto the new
/// graph with WarmStartCache::remapped; the same resolve then repairs it.

namespace lera::netflow {

struct SolverWorkspace;

/// Why a WarmStartCache::store() call did or did not record its flow.
/// A rejection is not an error — the cache simply stays on its previous
/// entry — but it used to be *invisible*, which made an ineffective
/// cache indistinguishable from a healthy one. Callers (solve_robust)
/// now count rejections (PerfCounters::warm_store_rejects) and note the
/// outcome in SolveDiagnostics.
enum class WarmStoreOutcome {
  kStored,        ///< The flow and its potentials were recorded.
  kLowerBounds,   ///< Graph has lower bounds; the reduction would change
                  ///< the topology underneath the cache.
  kSizeMismatch,  ///< flow.size() != num_arcs: not a flow of this graph.
  kNotOptimal,    ///< The flow's residual graph has a negative cycle, so
                  ///< potentials proving optimality do not exist.
};

std::string to_string(WarmStoreOutcome outcome);

/// Arc/node correspondence between a *new* graph and the graph a
/// WarmStartCache was stored against, for incremental-edit repair: the
/// new graph may have arcs and nodes the cached one lacks (an added
/// variable's segment arcs) and lack arcs the cached one has (a removed
/// variable's — their cached flow is simply not carried over, and the
/// drain repairs the imbalance). Built by the caller from semantic arc
/// keys (alloc::FlowGraphSpec::arc_info), never from raw indices.
struct WarmCorrespondence {
  /// arc_from[a] = arc id in the cached graph that new arc \p a
  /// corresponds to, or -1 for a genuinely new arc (starts at 0 flow).
  std::vector<int> arc_from;
  /// node_from[v] = node id in the cached graph that new node \p v
  /// corresponds to, or -1 for a new node (falls back to potential 0;
  /// the saturation pass restores the optimality invariant around it).
  std::vector<int> node_from;

  /// Arcs of the new graph with a cached counterpart — the warm mass
  /// actually carried over. Callers skip the warm path when this is too
  /// small a fraction to beat a cold solve.
  std::size_t mapped_arcs() const;
};

/// Topology-keyed snapshot of the last certified-optimal solve. Not
/// thread-safe: like a SolverWorkspace, a cache belongs to one
/// sequential solve stream at a time.
class WarmStartCache {
 public:
  /// True once store() has recorded a solve.
  bool has_entry() const { return valid_; }

  /// True when \p g has the cached topology: identical node/arc counts,
  /// arc endpoints and supplies. Costs and capacities may differ.
  /// Instances with lower bounds never match (the reduction would
  /// change the topology underneath the cache).
  bool matches(const Graph& g) const;

  /// Records \p flow (an optimal feasible flow of \p g) as the seed for
  /// future warm resolves, together with potentials proving its
  /// optimality (label-corrected here, once, so every later resolve can
  /// skip that work). Returns the typed outcome: anything but kStored
  /// means the cache kept its previous entry (graphs with lower bounds,
  /// size mismatches, and flows whose residual graph has a negative
  /// cycle are all refused).
  WarmStoreOutcome store(const Graph& g, const std::vector<Flow>& flow);

  /// This entry carried onto the edited graph \p g through \p map: a
  /// cache that matches(g), seeded with the cached flow on the mapped
  /// arcs (0 on new ones) and the cached potentials on the mapped nodes
  /// (0 on new ones). The seed is neither feasible nor provably optimal
  /// for \p g; resolve_warm's saturate-and-drain repairs both, exactly
  /// as it repairs a re-costed instance. Empty (!has_entry()) when this
  /// cache is empty, \p g has lower bounds, or \p map is not sized for
  /// \p g.
  WarmStartCache remapped(const Graph& g, const WarmCorrespondence& map) const;

  void clear();

  const std::vector<Flow>& flow() const { return flow_; }
  const std::vector<Cost>& potentials() const { return pi_; }

 private:
  bool valid_ = false;
  std::vector<NodeId> tails_;
  std::vector<NodeId> heads_;
  std::vector<Flow> supplies_;
  std::vector<Flow> flow_;
  std::vector<Cost> pi_;

  /// Keys the entry to \p g's topology (arc endpoints and supplies).
  void key_to(const Graph& g);
};

/// Re-solves \p g starting from the cached flow. Requires
/// cache.matches(g). Returns kOptimal with the repaired flow on
/// success; any other status (kInfeasible, kBudgetExceeded, or an
/// internal bail-out) means the caller must fall back to a cold solve.
FlowSolution resolve_warm(const Graph& g, const WarmStartCache& cache,
                          SolveGuard* guard = nullptr,
                          SolverWorkspace* ws = nullptr);

}  // namespace lera::netflow
