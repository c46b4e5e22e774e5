#include "netflow/graph.hpp"

#include <numeric>

#include "netflow/membudget.hpp"

namespace lera::netflow {

void Graph::reserve_nodes(NodeId n) {
  assert(n >= 0);
  supply_.reserve(static_cast<std::size_t>(n));
}

void Graph::reserve_arcs(ArcId m) {
  assert(m >= 0);
  arcs_.reserve(static_cast<std::size_t>(m));
}

NodeId Graph::add_node(std::string name) {
  supply_.push_back(0);
  adjacency_valid_ = false;
  const NodeId id = num_nodes() - 1;
  if (!name.empty()) set_node_name(id, std::move(name));
  return id;
}

NodeId Graph::add_nodes(NodeId n) {
  assert(n >= 0);
  const NodeId first = num_nodes();
  supply_.resize(supply_.size() + static_cast<std::size_t>(n), 0);
  adjacency_valid_ = false;
  return first;
}

ArcId Graph::add_arc(NodeId tail, NodeId head, Flow upper, Cost cost,
                     Flow lower) {
  assert(tail >= 0 && tail < num_nodes());
  assert(head >= 0 && head < num_nodes());
  assert(lower >= 0 && lower <= upper);
  arcs_.push_back(Arc{tail, head, lower, upper, cost});
  has_lower_bounds_ = has_lower_bounds_ || lower > 0;
  has_negative_costs_ = has_negative_costs_ || cost < 0;
  adjacency_valid_ = false;
  return num_arcs() - 1;
}

const std::string& Graph::node_name(NodeId v) const {
  assert(v >= 0 && v < num_nodes());
  static const std::string kUnnamed;
  const auto i = static_cast<std::size_t>(v);
  return i < names_.size() ? names_[i] : kUnnamed;
}

void Graph::set_node_name(NodeId v, std::string name) {
  assert(v >= 0 && v < num_nodes());
  const auto i = static_cast<std::size_t>(v);
  if (i >= names_.size()) {
    if (name.empty()) return;
    names_.resize(i + 1);
  }
  names_[i] = std::move(name);
}

Flow Graph::total_supply() const {
  return std::accumulate(supply_.begin(), supply_.end(), Flow{0});
}

void Graph::ensure_adjacency() const {
  if (adjacency_valid_) return;
  const auto n = static_cast<std::size_t>(num_nodes());
  const auto m = static_cast<std::size_t>(num_arcs());
  detail::alloc_tick(
      static_cast<std::int64_t>((2 * (n + 1) + 4 * m) * sizeof(ArcId)));
  // Two-pass counting build: degree histogram, prefix sums, then a fill
  // pass in arc order so each node's ids keep insertion order.
  first_out_.assign(n + 1, 0);
  first_in_.assign(n + 1, 0);
  for (const Arc& arc : arcs_) {
    ++first_out_[static_cast<std::size_t>(arc.tail) + 1];
    ++first_in_[static_cast<std::size_t>(arc.head) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    first_out_[v + 1] += first_out_[v];
    first_in_[v + 1] += first_in_[v];
  }
  out_ids_.resize(m);
  in_ids_.resize(m);
  std::vector<ArcId> out_cursor(first_out_.begin(), first_out_.end() - 1);
  std::vector<ArcId> in_cursor(first_in_.begin(), first_in_.end() - 1);
  for (ArcId a = 0; a < num_arcs(); ++a) {
    const Arc& arc = arcs_[static_cast<std::size_t>(a)];
    out_ids_[static_cast<std::size_t>(
        out_cursor[static_cast<std::size_t>(arc.tail)]++)] = a;
    in_ids_[static_cast<std::size_t>(
        in_cursor[static_cast<std::size_t>(arc.head)]++)] = a;
  }
  adjacency_valid_ = true;
}

Graph::ArcRange Graph::out_arcs(NodeId v) const {
  assert(v >= 0 && v < num_nodes());
  ensure_adjacency();
  const auto i = static_cast<std::size_t>(v);
  return ArcRange(out_ids_.data() + first_out_[i],
                  static_cast<std::size_t>(first_out_[i + 1] - first_out_[i]));
}

Graph::ArcRange Graph::in_arcs(NodeId v) const {
  assert(v >= 0 && v < num_nodes());
  ensure_adjacency();
  const auto i = static_cast<std::size_t>(v);
  return ArcRange(in_ids_.data() + first_in_[i],
                  static_cast<std::size_t>(first_in_[i + 1] - first_in_[i]));
}

}  // namespace lera::netflow
