#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netflow/types.hpp"

/// \file graph.hpp
/// Directed graph with per-arc lower bound, capacity and cost, plus
/// per-node supply, describing a *b-flow* (transshipment) instance:
///
///   minimise   sum_a cost(a) * x(a)
///   subject to sum_{a out of v} x(a) - sum_{a into v} x(a) = supply(v)
///              lower(a) <= x(a) <= upper(a)
///
/// The classic s-t fixed-flow problem of the paper (flow value F = number
/// of registers R) is expressed by supply(s) = +F, supply(t) = -F.

namespace lera::netflow {

/// One directed arc. Plain data; invariants are enforced by Graph.
struct Arc {
  NodeId tail = kInvalidNode;  ///< Arc leaves this node.
  NodeId head = kInvalidNode;  ///< Arc enters this node.
  Flow lower = 0;              ///< Minimum flow on the arc.
  Flow upper = 0;              ///< Maximum flow on the arc.
  Cost cost = 0;               ///< Cost per unit of flow.
};

/// Mutable builder + storage for a b-flow instance.
///
/// Nodes are created with add_node() and optionally carry a debug name;
/// names live in a lazily grown side table so graphs built on the hot
/// path (unnamed nodes) never touch string storage. Arcs keep insertion
/// order, so solution vectors index by ArcId.
///
/// Adjacency is a flat CSR (compressed sparse row) cache built lazily on
/// first query: `out_ids_[first_out_[v] .. first_out_[v+1])` holds the
/// outgoing arc ids of `v` in insertion order (same for `in_`). Every
/// topology change (add_node, add_nodes, add_arc) drops the cache, and
/// the next query rebuilds it in O(V+E).
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with \p n unnamed nodes.
  explicit Graph(NodeId n) { add_nodes(n); }

  /// Pre-sizes node storage for \p n total nodes.
  void reserve_nodes(NodeId n);
  /// Pre-sizes arc storage for \p m total arcs.
  void reserve_arcs(ArcId m);

  /// Adds one node and returns its id.
  NodeId add_node(std::string name = {});

  /// Adds \p n unnamed nodes; returns the id of the first.
  NodeId add_nodes(NodeId n);

  /// Adds an arc tail->head with bounds [lower, upper] and unit cost.
  /// Requires 0 <= lower <= upper and valid endpoint ids.
  ArcId add_arc(NodeId tail, NodeId head, Flow upper, Cost cost,
                Flow lower = 0);

  NodeId num_nodes() const { return static_cast<NodeId>(supply_.size()); }
  ArcId num_arcs() const { return static_cast<ArcId>(arcs_.size()); }

  const Arc& arc(ArcId a) const {
    assert(a >= 0 && a < num_arcs());
    return arcs_[static_cast<std::size_t>(a)];
  }
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Re-prices an existing arc. Topology (and therefore the adjacency
  /// cache and any WarmStartCache match) is untouched. The
  /// has_negative_costs() flag only ever widens — it may stay
  /// conservatively true after the last negative arc is re-priced
  /// positive, which costs one potentials pass, never correctness.
  void set_arc_cost(ArcId a, Cost cost) {
    assert(a >= 0 && a < num_arcs());
    arcs_[static_cast<std::size_t>(a)].cost = cost;
    if (cost < 0) has_negative_costs_ = true;
  }

  /// Re-sizes an existing arc's capacity. Requires upper >= lower.
  void set_arc_capacity(ArcId a, Flow upper) {
    assert(a >= 0 && a < num_arcs());
    assert(upper >= arcs_[static_cast<std::size_t>(a)].lower);
    arcs_[static_cast<std::size_t>(a)].upper = upper;
  }

  /// Node supply: positive = source of flow, negative = sink.
  Flow supply(NodeId v) const {
    assert(v >= 0 && v < num_nodes());
    return supply_[static_cast<std::size_t>(v)];
  }
  void set_supply(NodeId v, Flow b) {
    assert(v >= 0 && v < num_nodes());
    supply_[static_cast<std::size_t>(v)] = b;
  }
  void add_supply(NodeId v, Flow b) {
    assert(v >= 0 && v < num_nodes());
    supply_[static_cast<std::size_t>(v)] += b;
  }

  /// Sum of all node supplies. A feasible instance requires 0.
  Flow total_supply() const;

  /// True if any arc has a nonzero lower bound.
  bool has_lower_bounds() const { return has_lower_bounds_; }

  /// True if any arc has a negative cost.
  bool has_negative_costs() const { return has_negative_costs_; }

  /// Debug name of a node ("" if unnamed).
  const std::string& node_name(NodeId v) const;
  void set_node_name(NodeId v, std::string name);

  /// Read-only view over a node's adjacency: one contiguous CSR
  /// segment, ids in arc insertion order. Valid until the next topology
  /// change.
  class ArcRange {
   public:
    ArcRange(const ArcId* first, std::size_t size)
        : first_(first), size_(size) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    ArcId operator[](std::size_t i) const {
      assert(i < size_);
      return first_[i];
    }
    const ArcId* begin() const { return first_; }
    const ArcId* end() const { return first_ + size_; }

    std::vector<ArcId> to_vector() const {
      return std::vector<ArcId>(begin(), end());
    }

   private:
    const ArcId* first_;
    std::size_t size_;
  };

  /// Outgoing arc ids of \p v in insertion order (CSR cache, built
  /// lazily).
  ArcRange out_arcs(NodeId v) const;
  /// Incoming arc ids of \p v in insertion order (see out_arcs).
  ArcRange in_arcs(NodeId v) const;

 private:
  void ensure_adjacency() const;

  std::vector<Arc> arcs_;
  std::vector<Flow> supply_;
  /// Debug-name side table, grown only when a node is actually named;
  /// shorter than num_nodes() when trailing nodes are unnamed.
  std::vector<std::string> names_;
  bool has_lower_bounds_ = false;
  bool has_negative_costs_ = false;

  // Lazily built CSR adjacency; mutable because it is a cache.
  mutable bool adjacency_valid_ = false;
  mutable std::vector<ArcId> first_out_;
  mutable std::vector<ArcId> out_ids_;
  mutable std::vector<ArcId> first_in_;
  mutable std::vector<ArcId> in_ids_;
};

}  // namespace lera::netflow
