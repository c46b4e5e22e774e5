#include "alloc/flow_graph.hpp"

#include <algorithm>
#include <limits>

#include "netflow/membudget.hpp"
#include "netflow/select.hpp"

namespace lera::alloc {

namespace {

using lifetime::CutKind;
using lifetime::Segment;

/// Energy terms charged when a register chain leaves segment \p seg's
/// r-node (the "v1 terms" of eqs. (6)-(10) plus the static-model register
/// read where a real read happens at the cut).
double leave_energy(const AllocationProblem& p, const Segment& seg) {
  const energy::EnergyParams& e = p.params;
  double cost = 0;
  switch (seg.end_kind) {
    case CutKind::kRead:
      // Interior read served from the register (saves the base-charged
      // memory read) but the variable lives on: write it back.
      cost += -e.e_mem_read() + e.e_mem_write();
      if (e.register_model == energy::RegisterModel::kStatic) {
        cost += e.e_reg_read();
      }
      break;
    case CutKind::kDeath:
      // Final read served from the register; no write-back needed.
      cost += -e.e_mem_read();
      if (e.register_model == energy::RegisterModel::kStatic) {
        cost += e.e_reg_read();
      }
      break;
    case CutKind::kBoundary:
      // No read occurs at an access-time cut; only the write-back.
      cost += e.e_mem_write();
      break;
    case CutKind::kDef:
      assert(false && "segment cannot end at a definition");
      break;
  }
  return cost;
}

/// Energy terms charged when a register chain enters segment \p seg's
/// w-node (the "v2 terms": what the register write costs/saves).
double enter_energy(const AllocationProblem& p, const Segment& seg) {
  const energy::EnergyParams& e = p.params;
  double cost = 0;
  switch (seg.start_kind) {
    case CutKind::kDef:
      // The definition is written to the register instead of memory.
      cost += -e.e_mem_write();
      break;
    case CutKind::kRead:
      // The base-charged memory read at this time doubles as the load.
      break;
    case CutKind::kBoundary:
      // Mid-life entry at an access time needs an explicit load.
      cost += e.e_mem_read();
      break;
    case CutKind::kDeath:
      assert(false && "segment cannot start at the final read");
      break;
  }
  if (e.register_model == energy::RegisterModel::kStatic) {
    cost += e.e_reg_write();
  }
  return cost;
}

/// Appends arcs with their metadata, energies quantised to costs.
struct ArcAdder {
  FlowGraphSpec& spec;
  const energy::Quantizer& quantizer;

  void operator()(netflow::NodeId tail, netflow::NodeId head,
                  double energy_cost, ArcKind kind, int from_seg, int to_seg,
                  netflow::Flow cap = 1, netflow::Flow lower = 0) const {
    spec.graph.add_arc(tail, head, cap, quantizer.quantize(energy_cost),
                       lower);
    spec.arc_info.push_back({kind, from_seg, to_seg});
  }
};

/// Prefix counts of maximum-density boundaries for O(1) idle checks: a
/// register may not sit idle across a boundary of maximum density in the
/// paper's graph (that is what pins memory usage to its minimum).
class PeakIndex {
 public:
  explicit PeakIndex(const AllocationProblem& p)
      : last_(p.num_steps + 1), max_prefix_(p.is_max_density.size() + 1, 0) {
    for (std::size_t b = 0; b < p.is_max_density.size(); ++b) {
      max_prefix_[b + 1] = max_prefix_[b] + (p.is_max_density[b] ? 1 : 0);
    }
  }

  /// True if any max-density boundary lies in [from, to) (clamped to the
  /// valid boundary range 0..num_steps).
  bool idle_crosses_peak(int from, int to) const {
    const int lo = std::clamp(from, 0, last_);
    const int hi = std::clamp(to, 0, last_);
    if (lo >= hi) return false;
    return max_prefix_[static_cast<std::size_t>(hi)] -
               max_prefix_[static_cast<std::size_t>(lo)] >
           0;
  }

 private:
  int last_;
  std::vector<int> max_prefix_;
};

/// Nodes both encodings share: s, t and a w/r pair per segment, with
/// room reserved for \p extra_nodes more. Nodes are unnamed;
/// report::write_dot labels them from the spec.
void add_segment_nodes(const AllocationProblem& p, FlowGraphSpec& spec,
                       std::size_t extra_nodes) {
  const std::size_t num_segs = p.segments.size();
  spec.graph.reserve_nodes(
      static_cast<netflow::NodeId>(2 + 2 * num_segs + extra_nodes));
  spec.s = spec.graph.add_node();
  spec.t = spec.graph.add_node();
  spec.w_node.resize(num_segs);
  spec.r_node.resize(num_segs);
  for (std::size_t i = 0; i < num_segs; ++i) {
    spec.w_node[i] = spec.graph.add_node();
    spec.r_node[i] = spec.graph.add_node();
  }
}

/// Announces \p arcs arcs of storage (graph arcs + per-arc metadata) to
/// the budget/failpoint seam, then reserves them.
void reserve_arcs(FlowGraphSpec& spec, std::size_t arcs) {
  netflow::detail::alloc_tick(
      static_cast<std::int64_t>(arcs) *
      static_cast<std::int64_t>(sizeof(netflow::Arc) +
                                sizeof(FlowGraphSpec::ArcInfo)));
  spec.graph.reserve_arcs(static_cast<netflow::ArcId>(arcs));
  spec.arc_info.reserve(arcs);
}

std::size_t count_chain_arcs(const AllocationProblem& p) {
  std::size_t chains = 0;
  for (std::size_t i = 0; i + 1 < p.segments.size(); ++i) {
    if (p.segments[i].var == p.segments[i + 1].var) ++chains;
  }
  return chains;
}

/// Segment and chain arcs, which both encodings share.
void add_segment_and_chain_arcs(const AllocationProblem& p,
                                const ArcAdder& add) {
  const FlowGraphSpec& spec = add.spec;
  const energy::EnergyParams& e = p.params;
  const bool activity_model =
      e.register_model == energy::RegisterModel::kActivity;
  const std::size_t num_segs = p.segments.size();

  // Segment arcs w_i(v) -> r_i(v): cost 0 (eq. 3), capacity 1, lower
  // bound 1 when the segment must sit in a register (§5.2) and capacity
  // 0 when it is barred from the register file (§7 port constraints).
  for (std::size_t i = 0; i < num_segs; ++i) {
    assert(!(p.segments[i].forced_register &&
             p.segments[i].forbidden_register));
    add(spec.w_node[i], spec.r_node[i], 0.0, ArcKind::kSegment,
        static_cast<int>(i), static_cast<int>(i),
        p.segments[i].forbidden_register ? 0 : 1,
        p.segments[i].forced_register ? 1 : 0);
  }

  // Chain arcs r_i(v) -> w_{i+1}(v) (eq. 9 generalised): the variable
  // keeps its register across the cut.
  for (std::size_t i = 0; i + 1 < num_segs; ++i) {
    const Segment& cur = p.segments[i];
    const Segment& next = p.segments[i + 1];
    if (cur.var != next.var) continue;
    double cost = 0;
    if (cur.end_kind == CutKind::kRead) {
      cost -= e.e_mem_read();  // Interior read served from the register.
      if (!activity_model) cost += e.e_reg_read();
    }
    add(spec.r_node[i], spec.w_node[i + 1], cost, ArcKind::kChain,
        static_cast<int>(i), static_cast<int>(i + 1));
  }
}

/// Base energy: every variable charged as if it lived in memory.
double base_energy(const AllocationProblem& p) {
  const energy::EnergyParams& e = p.params;
  double base = 0;
  for (const lifetime::Lifetime& lt : p.lifetimes) {
    base += e.e_mem_write() +
            static_cast<double>(lt.read_times.size()) * e.e_mem_read();
  }
  return base;
}

/// The hub encoding (see flow_graph.hpp); requires uses_sparse_encoding.
FlowGraphSpec build_sparse_flow_graph(const AllocationProblem& p,
                                      GraphStyle style,
                                      const energy::Quantizer& quantizer) {
  const std::size_t num_segs = p.segments.size();
  FlowGraphSpec spec;

  // One hub per distinct event time: 0, x+1 and every segment's ends.
  std::vector<int>& times = spec.hub_time;
  times.reserve(2 * num_segs + 2);
  times.push_back(0);
  times.push_back(p.num_steps + 1);
  for (const Segment& seg : p.segments) {
    times.push_back(seg.start);
    times.push_back(seg.end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  const std::size_t num_hubs = times.size();

  add_segment_nodes(p, spec, num_hubs);
  spec.hub_node.resize(num_hubs);
  for (std::size_t k = 0; k < num_hubs; ++k) {
    spec.hub_node[k] = spec.graph.add_node();
  }
  const auto hub = [&](int time) {
    return spec.hub_node[static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), time) - times.begin())];
  };

  // Idle arcs hub(t_k) -> hub(t_k+1); the paper's graph drops those
  // across a max-density boundary, so hub(a) reaches hub(b) exactly when
  // the dense graph's transition_allowed(a, b) holds.
  const PeakIndex peaks(p);
  std::vector<std::size_t> idle;
  idle.reserve(num_hubs);
  for (std::size_t k = 0; k + 1 < num_hubs; ++k) {
    if (style == GraphStyle::kAllPairs ||
        !peaks.idle_crosses_peak(times[k], times[k + 1])) {
      idle.push_back(k);
    }
  }

  // Exact arc count: segment, leave and enter arcs per segment, chains,
  // idle arcs, s -> hub(0), hub(x+1) -> t and the bypass.
  reserve_arcs(spec, 3 * num_segs + count_chain_arcs(p) + idle.size() + 2 +
                         (p.num_registers > 0 ? 1 : 0));
  const ArcAdder add{spec, quantizer};
  add_segment_and_chain_arcs(p, add);

  // r_i(v) -> hub(end_i) and hub(start_j) -> w_j(v): the two halves of
  // every dense transition, priced leave(i) and enter(j).
  for (std::size_t i = 0; i < num_segs; ++i) {
    const Segment& seg = p.segments[i];
    add(spec.r_node[i], hub(seg.end), leave_energy(p, seg), ArcKind::kLeave,
        static_cast<int>(i), -1);
  }
  for (std::size_t j = 0; j < num_segs; ++j) {
    const Segment& seg = p.segments[j];
    add(hub(seg.start), spec.w_node[j], enter_energy(p, seg),
        ArcKind::kEnter, -1, static_cast<int>(j));
  }

  // The idle chain, entered at time 0 and left at time x+1. Capacity R:
  // every register may idle at once.
  const netflow::Flow registers = p.num_registers;
  for (std::size_t k : idle) {
    add(spec.hub_node[k], spec.hub_node[k + 1], 0.0, ArcKind::kIdle, -1, -1,
        registers);
  }
  add(spec.s, hub(0), 0.0, ArcKind::kFromSource, -1, -1, registers);
  add(hub(p.num_steps + 1), spec.t, 0.0, ArcKind::kToSink, -1, -1,
      registers);

  // s -> t bypass for registers the optimum leaves unused.
  if (p.num_registers > 0) {
    add(spec.s, spec.t, 0.0, ArcKind::kBypass, -1, -1, p.num_registers);
  }
  spec.base_energy = base_energy(p);
  return spec;
}

}  // namespace

bool uses_sparse_encoding(const AllocationProblem& p,
                          const energy::Quantizer& quantizer) {
  const energy::EnergyParams& e = p.params;
  if (e.register_model != energy::RegisterModel::kStatic) return false;
  for (const Segment& seg : p.segments) {
    if (seg.forbidden_register || !(seg.start < seg.end)) return false;
  }
  // The exchange argument of DESIGN.md §4 turns every same-variable hop
  // through the hubs into dense arcs without raising the cost; it needs
  // both inequalities.
  if (!(e.e_reg_read() <= e.e_mem_read()) ||
      !(e.e_mem_write() + e.e_reg_write() > 0)) {
    return false;
  }
  // Every hub path must cost exactly what the dense arc it replaces does.
  for (CutKind end : {CutKind::kRead, CutKind::kDeath, CutKind::kBoundary}) {
    Segment from;
    from.end_kind = end;
    const double leave = leave_energy(p, from);
    for (CutKind start : {CutKind::kDef, CutKind::kRead, CutKind::kBoundary}) {
      Segment to;
      to.start_kind = start;
      const double enter = enter_energy(p, to);
      if (quantizer.quantize(leave + enter) !=
          quantizer.quantize(leave) + quantizer.quantize(enter)) {
        return false;
      }
    }
  }
  return true;
}

FlowGraphSpec build_flow_graph(const AllocationProblem& p, GraphStyle style,
                               const energy::Quantizer& quantizer) {
  assert(p.verify().empty());
  return uses_sparse_encoding(p, quantizer)
             ? build_sparse_flow_graph(p, style, quantizer)
             : build_dense_flow_graph(p, style, quantizer);
}

FlowGraphSpec build_dense_flow_graph(const AllocationProblem& p,
                                     GraphStyle style,
                                     const energy::Quantizer& quantizer) {
  assert(p.verify().empty());
  const energy::EnergyParams& e = p.params;
  const bool activity_model =
      e.register_model == energy::RegisterModel::kActivity;
  const std::size_t num_segs = p.segments.size();

  FlowGraphSpec spec;
  // Exactly s, t and a w/r pair per segment.
  add_segment_nodes(p, spec, 0);

  const PeakIndex peaks(p);
  auto transition_allowed = [&](int read_time, int write_time) {
    if (read_time > write_time) return false;
    if (style == GraphStyle::kAllPairs) return true;
    return !peaks.idle_crosses_peak(read_time, write_time);
  };

  // Counting prepass: reserve the exact arc capacity so the O(n^2)
  // transition fill below never reallocates. Mirrors the emission loops
  // exactly (same transition_allowed predicate).
  {
    std::size_t arcs = num_segs + count_chain_arcs(p);  // Segment, chain.
    for (std::size_t i = 0; i < num_segs; ++i) {
      for (std::size_t j = 0; j < num_segs; ++j) {
        if (p.segments[i].var == p.segments[j].var) continue;
        if (transition_allowed(p.segments[i].end, p.segments[j].start)) {
          ++arcs;  // Transition.
        }
      }
    }
    for (std::size_t j = 0; j < num_segs; ++j) {
      if (transition_allowed(0, p.segments[j].start)) ++arcs;  // Source.
    }
    for (std::size_t i = 0; i < num_segs; ++i) {
      if (transition_allowed(p.segments[i].end, p.num_steps + 1)) {
        ++arcs;  // Sink.
      }
    }
    if (p.num_registers > 0) ++arcs;  // Bypass.
    reserve_arcs(spec, arcs);
  }

  const ArcAdder add{spec, quantizer};
  add_segment_and_chain_arcs(p, add);

  // Transition arcs r_i(v1) -> w_j(v2), v1 != v2 (eqs. 4-8, 10).
  for (std::size_t i = 0; i < num_segs; ++i) {
    const Segment& from = p.segments[i];
    for (std::size_t j = 0; j < num_segs; ++j) {
      const Segment& to = p.segments[j];
      if (from.var == to.var) continue;
      if (!transition_allowed(from.end, to.start)) continue;
      double cost = leave_energy(p, from) + enter_energy(p, to);
      if (activity_model) {
        cost += e.e_reg_transition(
            p.activity.hamming(static_cast<std::size_t>(from.var),
                               static_cast<std::size_t>(to.var)));
      }
      add(spec.r_node[i], spec.w_node[j], cost, ArcKind::kTransition,
          static_cast<int>(i), static_cast<int>(j));
    }
  }

  // s -> w_j(v): a register that starts the block empty.
  for (std::size_t j = 0; j < num_segs; ++j) {
    const Segment& to = p.segments[j];
    if (!transition_allowed(0, to.start)) continue;
    double cost = enter_energy(p, to);
    if (activity_model) {
      cost += e.e_reg_transition(
          p.activity.initial(static_cast<std::size_t>(to.var)));
    }
    add(spec.s, spec.w_node[j], cost, ArcKind::kFromSource, -1,
        static_cast<int>(j));
  }

  // r_i(v) -> t: a register that idles to the end of the block.
  for (std::size_t i = 0; i < num_segs; ++i) {
    const Segment& from = p.segments[i];
    if (!transition_allowed(from.end, p.num_steps + 1)) continue;
    add(spec.r_node[i], spec.t, leave_energy(p, from), ArcKind::kToSink,
        static_cast<int>(i), -1);
  }

  // s -> t bypass for registers the optimum leaves unused.
  if (p.num_registers > 0) {
    add(spec.s, spec.t, 0.0, ArcKind::kBypass, -1, -1, p.num_registers);
  }
  spec.base_energy = base_energy(p);
  return spec;
}

std::int64_t estimate_problem_footprint(const AllocationProblem& p,
                                        const energy::Quantizer& quantizer) {
  const std::int64_t s = static_cast<std::int64_t>(p.segments.size());
  // Worst case over both graph styles. Sparse: s, t, a w/r pair per
  // segment and at most 2s + 2 hubs; s segment, s leave, s enter, at
  // most s - 1 chain and 2s + 1 idle arcs, s -> hub(0), hub(x+1) -> t
  // and the bypass. Dense: s segment arcs, s-1 chain arcs, s*(s-1)
  // transitions, s source + s sink arcs, one bypass. The closed forms
  // below upper-bound those sums for every s >= 0.
  const bool sparse = uses_sparse_encoding(p, quantizer);
  const std::int64_t nodes = sparse ? 4 * s + 4 : 2 + 2 * s;
  const std::int64_t arcs = sparse ? 6 * s + 4 : s * s + 4 * s + 2;

  netflow::InstanceShape shape;
  shape.nodes = static_cast<netflow::NodeId>(
      std::min<std::int64_t>(nodes, std::numeric_limits<netflow::NodeId>::max()));
  shape.arcs = arcs;
  // solve_st_flow adds +/-R at s/t: volume R.
  shape.supply_volume = p.num_registers;

  const std::int64_t spec_bytes =
      arcs * static_cast<std::int64_t>(sizeof(netflow::Arc) +
                                       sizeof(FlowGraphSpec::ArcInfo)) +
      nodes * static_cast<std::int64_t>(2 * sizeof(netflow::NodeId));
  return spec_bytes + netflow::estimate_footprint(shape);
}

}  // namespace lera::alloc
