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

/// Energy terms of keeping the register across the cut that ends
/// \p seg (eq. 9 generalised): an interior read is served from the
/// register, plus the static-model register read that serves it.
double chain_energy(const AllocationProblem& p, const Segment& seg) {
  const energy::EnergyParams& e = p.params;
  if (seg.end_kind != CutKind::kRead) return 0;
  double cost = -e.e_mem_read();
  if (e.register_model == energy::RegisterModel::kStatic) {
    cost += e.e_reg_read();
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
    priced(tail, head, quantizer.quantize(energy_cost), kind, from_seg,
           to_seg, cap, lower);
  }

  /// The same with a cost already quantised.
  void priced(netflow::NodeId tail, netflow::NodeId head, netflow::Cost cost,
              ArcKind kind, int from_seg, int to_seg, netflow::Flow cap = 1,
              netflow::Flow lower = 0) const {
    spec.graph.add_arc(tail, head, cap, cost, lower);
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

/// Cuts of \p p: places where two consecutive segments of one variable
/// meet.
std::size_t count_cuts(const AllocationProblem& p) {
  std::size_t cuts = 0;
  for (std::size_t i = 0; i + 1 < p.segments.size(); ++i) {
    if (p.segments[i].var == p.segments[i + 1].var) ++cuts;
  }
  return cuts;
}

/// True if segment \p i is the last of its variable.
bool is_last_segment(const AllocationProblem& p, std::size_t i) {
  return i + 1 == p.segments.size() ||
         p.segments[i + 1].var != p.segments[i].var;
}

/// The distinct event times of \p p in ascending order, one hub each: 0,
/// x+1, every segment start and every variable's death. Segments are
/// contiguous, so every other segment end is the next one's start.
std::vector<int> event_times(const AllocationProblem& p) {
  std::vector<int> times;
  times.reserve(p.segments.size() + p.lifetimes.size() + 2);
  times.push_back(0);
  times.push_back(p.num_steps + 1);
  for (std::size_t i = 0; i < p.segments.size(); ++i) {
    times.push_back(p.segments[i].start);
    if (is_last_segment(p, i)) times.push_back(p.segments[i].end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
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

/// The cut-node encoding (see flow_graph.hpp); requires
/// uses_sparse_encoding.
FlowGraphSpec build_sparse_flow_graph(const AllocationProblem& p,
                                      GraphStyle style,
                                      const energy::Quantizer& quantizer) {
  const std::size_t num_segs = p.segments.size();
  FlowGraphSpec spec;
  spec.hub_time = event_times(p);
  const std::vector<int>& times = spec.hub_time;
  const std::size_t num_hubs = times.size();

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

  const FlowGraphSize size = sparse_graph_size(
      static_cast<std::int64_t>(num_segs),
      static_cast<std::int64_t>(count_cuts(p)),
      static_cast<std::int64_t>(num_hubs),
      static_cast<std::int64_t>(idle.size()), p.num_registers > 0);
  spec.graph.reserve_nodes(static_cast<netflow::NodeId>(size.nodes));
  reserve_arcs(spec, static_cast<std::size_t>(size.arcs));

  // Nodes are unnamed; report::write_dot labels them from the spec.
  spec.s = spec.graph.add_node();
  spec.t = spec.graph.add_node();
  spec.hub_node.resize(num_hubs);
  for (std::size_t k = 0; k < num_hubs; ++k) {
    spec.hub_node[k] = spec.graph.add_node();
  }
  const auto hub = [&](int time) {
    return spec.hub_node[static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), time) - times.begin())];
  };

  // Segment i's arc runs w_node[i] -> r_node[i]. A variable's first
  // segment starts at hub(start) and its last ends at hub(end); two
  // consecutive segments share one cut node where they meet. Capacity 1,
  // lower bound 1 when the segment must sit in a register (§5.2). The
  // cost is what the dense graph charges along a register chain:
  // enter(i) on a variable's first segment, plus the chain cost (eq. 9)
  // of the cut it ends at, or leave(i) at the variable's death.
  const ArcAdder add{spec, quantizer};
  spec.w_node.resize(num_segs);
  spec.r_node.resize(num_segs);
  for (std::size_t i = 0; i < num_segs; ++i) {
    const Segment& seg = p.segments[i];
    const bool first = i == 0 || p.segments[i - 1].var != seg.var;
    const bool last = is_last_segment(p, i);
    spec.w_node[i] = first ? hub(seg.start) : spec.r_node[i - 1];
    spec.r_node[i] = last ? hub(seg.end) : spec.graph.add_node();
    const netflow::Cost cost =
        (first ? quantizer.quantize(enter_energy(p, seg)) : 0) +
        quantizer.quantize(last ? leave_energy(p, seg)
                                : chain_energy(p, seg));
    add.priced(spec.w_node[i], spec.r_node[i], netflow::saturate_cost(cost),
               ArcKind::kSegment, static_cast<int>(i), static_cast<int>(i),
               1, seg.forced_register ? 1 : 0);
  }

  // At the cut after segment i, whose hub is both hub(end_i) and
  // hub(start_i+1): cut -> hub releases the register at leave(i), less
  // the chain cost segment i's arc already paid, and hub -> cut takes it
  // for segment i+1 at enter(i+1).
  for (std::size_t i = 0; i < num_segs; ++i) {
    if (is_last_segment(p, i)) continue;
    const Segment& seg = p.segments[i];
    const netflow::NodeId at = hub(seg.end);
    add.priced(spec.r_node[i], at,
               netflow::saturate_cost(
                   quantizer.quantize(leave_energy(p, seg)) -
                   quantizer.quantize(chain_energy(p, seg))),
               ArcKind::kLeave, static_cast<int>(i), -1);
    add(at, spec.r_node[i], enter_energy(p, p.segments[i + 1]),
        ArcKind::kEnter, -1, static_cast<int>(i + 1));
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

FlowGraphSize sparse_graph_size(std::int64_t segments, std::int64_t cuts,
                                std::int64_t hubs, std::int64_t idle_arcs,
                                bool bypass) {
  return {2 + hubs + cuts,
          segments + 2 * cuts + idle_arcs + 2 + (bypass ? 1 : 0)};
}

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
  // The one path the cut nodes add, hub -> cut -> hub, spills and
  // reloads a variable at the same cut. Priced above 0, no optimum takes
  // it, so the flow stays a set of register chains.
  for (CutKind cut : {CutKind::kRead, CutKind::kBoundary}) {
    Segment before;
    before.end_kind = cut;
    Segment after;
    after.start_kind = cut;
    if (quantizer.quantize(leave_energy(p, before)) -
            quantizer.quantize(chain_energy(p, before)) +
            quantizer.quantize(enter_energy(p, after)) <=
        0) {
      return false;
    }
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
  // Exactly s, t and a w/r pair per segment. Nodes are unnamed;
  // report::write_dot labels them from the spec.
  spec.graph.reserve_nodes(static_cast<netflow::NodeId>(2 + 2 * num_segs));
  spec.s = spec.graph.add_node();
  spec.t = spec.graph.add_node();
  spec.w_node.resize(num_segs);
  spec.r_node.resize(num_segs);
  for (std::size_t i = 0; i < num_segs; ++i) {
    spec.w_node[i] = spec.graph.add_node();
    spec.r_node[i] = spec.graph.add_node();
  }

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
    std::size_t arcs = num_segs + count_cuts(p);  // Segment, chain.
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
  for (std::size_t i = 0; i < num_segs; ++i) {
    if (is_last_segment(p, i)) continue;
    add(spec.r_node[i], spec.w_node[i + 1], chain_energy(p, p.segments[i]),
        ArcKind::kChain, static_cast<int>(i), static_cast<int>(i + 1));
  }

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
  // Worst case over both graph styles. Sparse: the exact size with an
  // idle arc between every two consecutive hubs. Dense: s segment arcs,
  // s-1 chain arcs, s*(s-1) transitions, s source + s sink arcs, one
  // bypass; s^2 + 4s + 2 upper-bounds that sum for every s >= 0.
  FlowGraphSize size{2 + 2 * s, s * s + 4 * s + 2};
  if (uses_sparse_encoding(p, quantizer)) {
    const auto hubs = static_cast<std::int64_t>(event_times(p).size());
    size = sparse_graph_size(s, static_cast<std::int64_t>(count_cuts(p)),
                             hubs, hubs - 1, p.num_registers > 0);
  }

  netflow::InstanceShape shape;
  shape.nodes = static_cast<netflow::NodeId>(std::min<std::int64_t>(
      size.nodes, std::numeric_limits<netflow::NodeId>::max()));
  shape.arcs = size.arcs;
  // solve_st_flow_robust adds +/-R at s/t: volume R.
  shape.supply_volume = p.num_registers;

  const std::int64_t spec_bytes =
      size.arcs * static_cast<std::int64_t>(sizeof(netflow::Arc) +
                                            sizeof(FlowGraphSpec::ArcInfo)) +
      size.nodes * static_cast<std::int64_t>(2 * sizeof(netflow::NodeId));
  return spec_bytes + netflow::estimate_footprint(shape);
}

}  // namespace lera::alloc
