#include "alloc/memory_layout.hpp"

#include <algorithm>

#include "alloc/evaluate.hpp"
#include "alloc/mem_runs.hpp"
#include "netflow/graph.hpp"
#include "netflow/robust.hpp"

namespace lera::alloc {

namespace {

/// Activity of an address's occupant sequence: initial write plus each
/// occupant replacing the previous one.
double sequence_activity(const AllocationProblem& p,
                         const std::vector<std::vector<int>>& occupants) {
  double activity = 0;
  for (const auto& sequence : occupants) {
    int prev = -1;
    for (int var : sequence) {
      activity += prev < 0
                      ? p.activity.initial(static_cast<std::size_t>(var))
                      : p.activity.hamming(static_cast<std::size_t>(prev),
                                           static_cast<std::size_t>(var));
      prev = var;
    }
  }
  return activity;
}

}  // namespace

MemoryLayout optimize_memory_layout(const AllocationProblem& p,
                                    const Assignment& a,
                                    const energy::Quantizer& quantizer,
                                    netflow::SolverKind solver) {
  MemoryLayout layout;
  layout.address.assign(p.segments.size(), -1);
  const std::vector<MemRun> runs = memory_runs(p, a);
  if (runs.empty()) {
    layout.feasible = true;
    return layout;
  }

  // Minimum address count = peak simultaneous residency.
  layout.locations = memory_locations(p, a);

  // Naive left-edge packing as the comparison point.
  {
    std::vector<int> free_at;
    std::vector<std::vector<int>> occupants;
    for (const MemRun& run : runs) {
      int chosen = -1;
      for (std::size_t loc = 0; loc < free_at.size(); ++loc) {
        if (free_at[loc] <= run.start) {
          chosen = static_cast<int>(loc);
          break;
        }
      }
      if (chosen < 0) {
        chosen = static_cast<int>(free_at.size());
        free_at.push_back(0);
        occupants.emplace_back();
      }
      free_at[static_cast<std::size_t>(chosen)] = run.end;
      occupants[static_cast<std::size_t>(chosen)].push_back(run.var);
    }
    layout.naive_activity = sequence_activity(p, occupants);
  }

  // Min-cost flow: one unit per address, chained through the runs.
  netflow::Graph g;
  const netflow::NodeId s = g.add_node();
  const netflow::NodeId t = g.add_node();
  std::vector<netflow::NodeId> w_node(runs.size());
  std::vector<netflow::NodeId> r_node(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    w_node[i] = g.add_node();
    r_node[i] = g.add_node();
    g.add_arc(w_node[i], r_node[i], 1, 0, /*lower=*/1);
  }
  struct TransArc {
    netflow::ArcId arc;
    std::size_t from;
    std::size_t to;
  };
  std::vector<TransArc> transitions;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = 0; j < runs.size(); ++j) {
      if (i == j || runs[i].end > runs[j].start) continue;
      const double h = p.activity.hamming(
          static_cast<std::size_t>(runs[i].var),
          static_cast<std::size_t>(runs[j].var));
      transitions.push_back(
          {g.add_arc(r_node[i], w_node[j], 1,
                     quantizer.quantize(p.params.e_mem_transition(h))),
           i, j});
    }
  }
  std::vector<netflow::ArcId> from_source(runs.size());
  for (std::size_t j = 0; j < runs.size(); ++j) {
    from_source[j] =
        g.add_arc(s, w_node[j], 1,
                  quantizer.quantize(p.params.e_mem_transition(
                      p.activity.initial(
                          static_cast<std::size_t>(runs[j].var)))));
    g.add_arc(r_node[j], t, 1, 0);
  }

  netflow::SolveOptions options;
  options.chain = netflow::fallback_chain(solver);
  options.certify = netflow::CertifyLevel::kFeasible;
  const netflow::FlowSolution sol = netflow::solve_st_flow_robust(
      g, s, t, layout.locations, options);
  if (!sol.optimal()) return layout;  // layout.feasible stays false

  // Extract occupant chains -> addresses.
  std::vector<int> run_address(runs.size(), -1);
  std::vector<int> next_of(runs.size(), -1);
  for (const TransArc& tr : transitions) {
    if (sol.arc_flow[static_cast<std::size_t>(tr.arc)] > 0) {
      next_of[tr.from] = static_cast<int>(tr.to);
    }
  }
  int next_address = 0;
  std::vector<std::vector<int>> occupants;
  for (std::size_t j = 0; j < runs.size(); ++j) {
    if (sol.arc_flow[static_cast<std::size_t>(from_source[j])] == 0) {
      continue;
    }
    const int addr = next_address++;
    occupants.emplace_back();
    for (int cur = static_cast<int>(j); cur >= 0;
         cur = next_of[static_cast<std::size_t>(cur)]) {
      run_address[static_cast<std::size_t>(cur)] = addr;
      occupants.back().push_back(runs[static_cast<std::size_t>(cur)].var);
      for (std::size_t seg = runs[static_cast<std::size_t>(cur)].first_seg;
           seg <= runs[static_cast<std::size_t>(cur)].last_seg; ++seg) {
        layout.address[seg] = addr;
      }
    }
  }

  layout.optimized_activity = sequence_activity(p, occupants);
  layout.optimized_energy =
      layout.optimized_activity * p.params.e_mem_transition(1.0);
  layout.naive_energy =
      layout.naive_activity * p.params.e_mem_transition(1.0);
  layout.feasible = true;
  return layout;
}

}  // namespace lera::alloc
