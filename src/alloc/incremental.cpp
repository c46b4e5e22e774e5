#include "alloc/incremental.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

namespace lera::alloc {

namespace {

/// Semantic key of one arc: kind + its two endpoints, each a segment (in
/// the OLD problem's segment numbering) for w/r nodes, an event time for
/// hub nodes and -1 for s and t; packed for hashing. The kind says which
/// endpoint is which. Segment ids and times fit in 24 bits for any
/// instance the footprint estimator admits; anything wider is masked, so
/// it can at worst collide, and a colliding key only weakens the seed,
/// which the certified repair tolerates.
std::uint64_t arc_key(ArcKind kind, int from, int to) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 25) - 1;
  return (static_cast<std::uint64_t>(kind) << 50) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(from + 1)) &
           kMask)
          << 25) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(to + 1)) &
          kMask);
}

/// Node -> hub event time for the hubs of \p spec, -1 elsewhere (s, t,
/// w/r nodes, and every node of a dense graph). Hubs are keyed by time,
/// which an edit preserves wherever it does not move an event.
std::vector<int> hub_times(const FlowGraphSpec& spec) {
  std::vector<int> time(static_cast<std::size_t>(spec.graph.num_nodes()), -1);
  for (std::size_t k = 0; k < spec.hub_node.size(); ++k) {
    time[static_cast<std::size_t>(spec.hub_node[k])] = spec.hub_time[k];
  }
  return time;
}

/// Derives the variable correspondence new -> old between two problems:
/// by unique nonempty name when both sides have them, positionally when
/// the counts match, empty (no correspondence) otherwise. new_to_old[v]
/// is the old variable index or -1.
std::vector<int> match_variables(const AllocationProblem& old_p,
                                 const AllocationProblem& new_p) {
  const std::size_t n_old = old_p.lifetimes.size();
  const std::size_t n_new = new_p.lifetimes.size();

  // Name-based matching: requires every name nonempty and unique on
  // both sides, so an edit can add/remove/shift variables anywhere.
  bool names_ok = true;
  std::unordered_map<std::string, int> by_name;
  by_name.reserve(n_old);
  for (std::size_t v = 0; v < n_old && names_ok; ++v) {
    const std::string& name = old_p.lifetimes[v].name;
    if (name.empty() || !by_name.emplace(name, static_cast<int>(v)).second) {
      names_ok = false;
    }
  }
  if (names_ok) {
    std::vector<int> map(n_new, -1);
    std::vector<bool> used(n_old, false);
    for (std::size_t v = 0; v < n_new; ++v) {
      const std::string& name = new_p.lifetimes[v].name;
      if (name.empty()) {
        names_ok = false;
        break;
      }
      const auto it = by_name.find(name);
      if (it == by_name.end()) continue;  // Added variable: no counterpart.
      if (used[static_cast<std::size_t>(it->second)]) {
        names_ok = false;  // Duplicate name on the new side.
        break;
      }
      used[static_cast<std::size_t>(it->second)] = true;
      map[v] = it->second;
    }
    if (names_ok) return map;
  }

  // Positional fallback: only meaningful when nothing was added or
  // removed.
  if (n_old == n_new) {
    std::vector<int> map(n_new);
    for (std::size_t v = 0; v < n_new; ++v) map[v] = static_cast<int>(v);
    return map;
  }
  return {};
}

/// Builds the arc/node correspondence between \p new_spec and
/// \p old_spec from semantic arc keys, given the variable match.
netflow::WarmCorrespondence derive_correspondence(
    const AllocationProblem& old_p, const FlowGraphSpec& old_spec,
    const AllocationProblem& new_p, const FlowGraphSpec& new_spec,
    const std::vector<int>& var_new_to_old) {
  netflow::WarmCorrespondence map;
  if (var_new_to_old.size() != new_p.lifetimes.size()) return map;

  // Segment correspondence: a matched variable's segments pair up by
  // index (both sides are sorted (var, index), so a variable's segments
  // are contiguous). Index overruns — a shift changed the segment count
  // — leave the extra segments unmatched, which the repair tolerates.
  const std::vector<int> old_first = old_p.first_segment_of_var();
  const std::vector<int> old_counts =
      lifetime::segments_per_var(old_p.segments, old_p.lifetimes.size());
  std::vector<int> seg_new_to_old(new_p.segments.size(), -1);
  for (std::size_t s = 0; s < new_p.segments.size(); ++s) {
    const lifetime::Segment& seg = new_p.segments[s];
    const int ov = var_new_to_old[static_cast<std::size_t>(seg.var)];
    if (ov < 0) continue;
    if (seg.index >= old_counts[static_cast<std::size_t>(ov)] ||
        old_first[static_cast<std::size_t>(ov)] < 0) {
      continue;
    }
    seg_new_to_old[s] = old_first[static_cast<std::size_t>(ov)] + seg.index;
  }

  // Arc correspondence via semantic keys over the OLD numbering. An
  // endpoint that is no segment is a hub (keyed by its time) or s/t.
  const auto endpoints = [](const FlowGraphSpec& spec,
                            const std::vector<int>& time, std::size_t a) {
    const FlowGraphSpec::ArcInfo& info = spec.arc_info[a];
    const netflow::Arc& arc = spec.graph.arc(static_cast<netflow::ArcId>(a));
    return std::pair<int, int>{
        info.from_seg >= 0 ? info.from_seg
                           : time[static_cast<std::size_t>(arc.tail)],
        info.to_seg >= 0 ? info.to_seg
                         : time[static_cast<std::size_t>(arc.head)]};
  };
  const std::vector<int> old_time = hub_times(old_spec);
  const std::vector<int> new_time = hub_times(new_spec);
  std::unordered_map<std::uint64_t, int> old_arcs;
  old_arcs.reserve(old_spec.arc_info.size());
  for (std::size_t a = 0; a < old_spec.arc_info.size(); ++a) {
    const auto [from, to] = endpoints(old_spec, old_time, a);
    old_arcs.emplace(arc_key(old_spec.arc_info[a].kind, from, to),
                     static_cast<int>(a));
  }
  map.arc_from.assign(new_spec.arc_info.size(), -1);
  for (std::size_t a = 0; a < new_spec.arc_info.size(); ++a) {
    const FlowGraphSpec::ArcInfo& info = new_spec.arc_info[a];
    auto [from, to] = endpoints(new_spec, new_time, a);
    if (info.from_seg >= 0) {
      from = seg_new_to_old[static_cast<std::size_t>(from)];
      if (from < 0) continue;
    }
    if (info.to_seg >= 0) {
      to = seg_new_to_old[static_cast<std::size_t>(to)];
      if (to < 0) continue;
    }
    const auto it = old_arcs.find(arc_key(info.kind, from, to));
    if (it != old_arcs.end()) {
      map.arc_from[a] = it->second;
    }
  }

  // Node correspondence: s, t, the matched segments' w/r pairs, and the
  // hubs whose event time the old graph has too.
  map.node_from.assign(
      static_cast<std::size_t>(new_spec.graph.num_nodes()), -1);
  map.node_from[static_cast<std::size_t>(new_spec.s)] = old_spec.s;
  map.node_from[static_cast<std::size_t>(new_spec.t)] = old_spec.t;
  for (std::size_t s = 0; s < seg_new_to_old.size(); ++s) {
    const int os = seg_new_to_old[s];
    if (os < 0) continue;
    map.node_from[static_cast<std::size_t>(new_spec.w_node[s])] =
        old_spec.w_node[static_cast<std::size_t>(os)];
    map.node_from[static_cast<std::size_t>(new_spec.r_node[s])] =
        old_spec.r_node[static_cast<std::size_t>(os)];
  }
  for (std::size_t k = 0; k < new_spec.hub_node.size(); ++k) {
    const auto it = std::lower_bound(old_spec.hub_time.begin(),
                                     old_spec.hub_time.end(),
                                     new_spec.hub_time[k]);
    if (it != old_spec.hub_time.end() && *it == new_spec.hub_time[k]) {
      map.node_from[static_cast<std::size_t>(new_spec.hub_node[k])] =
          old_spec.hub_node[static_cast<std::size_t>(
              it - old_spec.hub_time.begin())];
    }
  }
  return map;
}

}  // namespace

IncrementalAllocator::IncrementalAllocator(AllocatorOptions options,
                                           double min_mapped_fraction)
    : options_(std::move(options)),
      min_mapped_fraction_(min_mapped_fraction) {}

void IncrementalAllocator::reset() { warm_.clear(); }

netflow::WarmStartCache IncrementalAllocator::seed(
    const AllocationProblem& p, const FlowGraphSpec& spec) const {
  // Arc keys mean different things in the two encodings, so a repair
  // only runs between graphs of the same one.
  if (!warm_.has_entry() || spec.graph.has_lower_bounds() ||
      p.num_registers != base_problem_.num_registers ||
      spec.hub_node.empty() != base_spec_.hub_node.empty()) {
    return {};
  }
  const std::vector<int> var_map = match_variables(base_problem_, p);
  if (var_map.empty() && !p.lifetimes.empty()) return {};
  const netflow::WarmCorrespondence map =
      derive_correspondence(base_problem_, base_spec_, p, spec, var_map);
  if (map.arc_from.empty()) return {};
  const double mapped = static_cast<double>(map.mapped_arcs()) /
                        static_cast<double>(map.arc_from.size());
  if (mapped < min_mapped_fraction_) return {};
  // The seed must match the graph solve_robust sees: spec.graph with
  // +/-R at s/t, as solve_st_flow_robust builds it.
  netflow::Graph st = spec.graph;
  st.add_supply(spec.s, p.num_registers);
  st.add_supply(spec.t, -p.num_registers);
  return warm_.remapped(st, map);
}

AllocationResult IncrementalAllocator::solve(const AllocationProblem& p) {
  const std::string issues = p.verify();
  if (!issues.empty()) {
    AllocationResult invalid;
    invalid.message = "invalid problem: " + issues;
    return invalid;
  }
  FlowGraphSpec spec =
      build_flow_graph(p, options_.style, options_.quantizer);

  netflow::WarmStartCache warm = seed(p, spec);

  // Repairs are always certified: a repair that cannot prove itself
  // falls back to the cold chain inside solve_robust.
  AllocatorOptions options = options_;
  options.certify = true;
  options.solve.workspace = &workspace_;
  options.solve.warm_cache = &warm;
  AllocationResult result = allocate_with_spec(p, spec, options);

  const netflow::SolveDiagnostics& d = result.solve_diagnostics;
  if (d.warm_start_attempted) {
    ++stats_.repairs_attempted;
    ++(d.warm_start_hit ? stats_.repairs_succeeded : stats_.repair_fallbacks);
  }
  if (!d.warm_start_hit) ++stats_.cold_solves;
  // solve_robust stored the certified flow (warm or cold) into `warm`;
  // a refused store keeps the previous baseline.
  if (result.feasible && d.warm_store_attempted &&
      d.warm_store == netflow::WarmStoreOutcome::kStored) {
    warm_ = std::move(warm);
    base_problem_ = p;
    base_spec_ = std::move(spec);
  }
  return result;
}

}  // namespace lera::alloc
