#pragma once

#include <iosfwd>

#include "alloc/flow_graph.hpp"
#include "netflow/solution.hpp"

/// \file dot.hpp
/// Graphviz export of the allocation flow graph — the programmatic
/// equivalent of the paper's Figure 1b/1c drawings. Lifetime arcs render
/// solid (bold when forced), transition arcs dashed, with the solution's
/// flow highlighted when given.

namespace lera::report {

/// Writes \p spec, the flow graph of \p p, as a DOT digraph. Nodes are
/// labelled from the spec and \p p: s, t, w<k>(<var>) and r<k>(<var>)
/// for segment k of a variable, and h<time> for a sparse graph's hubs.
/// If \p solution is non-null, arcs carrying flow are coloured and
/// labelled with it.
void write_dot(std::ostream& os, const alloc::AllocationProblem& p,
               const alloc::FlowGraphSpec& spec,
               const netflow::FlowSolution* solution = nullptr);

}  // namespace lera::report
