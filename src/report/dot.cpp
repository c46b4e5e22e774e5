#include "report/dot.hpp"

#include <ostream>
#include <string>
#include <vector>

namespace lera::report {

namespace {

/// One label per node of \p spec, which builds every node unnamed.
std::vector<std::string> node_labels(const alloc::AllocationProblem& p,
                                     const alloc::FlowGraphSpec& spec) {
  std::vector<std::string> labels(
      static_cast<std::size_t>(spec.graph.num_nodes()));
  const auto label = [&](netflow::NodeId v) -> std::string& {
    return labels[static_cast<std::size_t>(v)];
  };
  label(spec.s) = "s";
  label(spec.t) = "t";
  // A dense graph gives every segment a w/r pair. A sparse one shares
  // them: the node after segment k of a variable is the cut c<k> when
  // the variable lives on, and a hub otherwise.
  const bool sparse = !spec.hub_node.empty();
  for (std::size_t i = 0; i < p.segments.size(); ++i) {
    const lifetime::Segment& seg = p.segments[i];
    const std::string suffix =
        std::to_string(seg.index) + "(" +
        p.lifetimes[static_cast<std::size_t>(seg.var)].name + ")";
    if (!sparse) {
      label(spec.w_node[i]) = "w" + suffix;
      label(spec.r_node[i]) = "r" + suffix;
    } else if (i + 1 < p.segments.size() &&
               p.segments[i + 1].var == seg.var) {
      label(spec.r_node[i]) = "c" + suffix;
    }
  }
  for (std::size_t k = 0; k < spec.hub_node.size(); ++k) {
    label(spec.hub_node[k]) = "h" + std::to_string(spec.hub_time[k]);
  }
  return labels;
}

}  // namespace

void write_dot(std::ostream& os, const alloc::AllocationProblem& p,
               const alloc::FlowGraphSpec& spec,
               const netflow::FlowSolution* solution) {
  const netflow::Graph& g = spec.graph;
  const std::vector<std::string> labels = node_labels(p, spec);
  os << "digraph flow {\n  rankdir=TB;\n  node [shape=circle];\n";
  for (netflow::NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << " [label=\"" << labels[static_cast<std::size_t>(v)]
       << "\"];\n";
  }
  for (netflow::ArcId a = 0; a < g.num_arcs(); ++a) {
    const netflow::Arc& arc = g.arc(a);
    const alloc::FlowGraphSpec::ArcInfo& info =
        spec.arc_info[static_cast<std::size_t>(a)];
    os << "  n" << arc.tail << " -> n" << arc.head << " [";
    switch (info.kind) {
      case alloc::ArcKind::kSegment:
        os << (arc.lower > 0 ? "style=bold" : "style=solid");
        break;
      case alloc::ArcKind::kChain:
        os << "style=dotted";
        break;
      default:
        os << "style=dashed";
        break;
    }
    os << ", label=\"" << arc.cost;
    if (solution && solution->optimal() &&
        solution->arc_flow[static_cast<std::size_t>(a)] > 0) {
      os << " f=" << solution->arc_flow[static_cast<std::size_t>(a)];
      os << "\", color=red";
    } else {
      os << "\"";
    }
    os << "];\n";
  }
  os << "}\n";
}

}  // namespace lera::report
