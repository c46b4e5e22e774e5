// Experiment FIG4 (DESIGN.md): reproduces the paper's Figure 4 — the
// graph of [8] (all non-overlapping lifetimes connected) versus the
// density-region graph, and the effect of splitting the long-lived f.
//
// Paper-reported observations:
//  (a) partitioning after register allocation on the [8] graph;
//  (b) simultaneous allocation on the [8] graph reaches the minimum
//      number of memory accesses but may use extra storage locations
//      (no minimum-address guarantee);
//  (c) the density-region graph with f split achieves minimum accesses
//      AND minimum locations, 1.35x better energy than (a).

#include <iostream>

#include "alloc/allocator.hpp"
#include "alloc/two_phase.hpp"
#include "report/table.hpp"
#include "workloads/paper_examples.hpp"

using namespace lera;

namespace {

void emit(report::Table& table, const std::string& name,
          const alloc::AllocationProblem& p,
          const alloc::AllocationResult& r) {
  table.add_row({name, report::Table::num(r.stats.mem_accesses()),
                 report::Table::num(r.stats.reg_accesses()),
                 report::Table::num(r.stats.mem_locations),
                 report::Table::num(r.static_energy.total()),
                 report::Table::num(r.activity_energy.total()),
                 report::Table::num(r.energy(p))});
}

void run_configuration(const char* title,
                       const energy::EnergyParams& params) {
  std::cout << "\n--- " << title << " ---\n";
  workloads::Figure4Options opts;
  opts.params = params;
  const alloc::AllocationProblem p = workloads::figure4_problem(opts);
  opts.split_f = true;
  const alloc::AllocationProblem p_split = workloads::figure4_problem(opts);

  alloc::TwoPhaseOptions twopc;
  const alloc::AllocationResult fig4a = alloc::two_phase_allocate(p, twopc);

  alloc::AllocatorOptions allpairs;
  allpairs.style = alloc::GraphStyle::kAllPairs;
  const alloc::AllocationResult fig4b = alloc::allocate(p, allpairs);

  alloc::AllocatorOptions density;
  density.style = alloc::GraphStyle::kDensityRegions;
  const alloc::AllocationResult fig4c = alloc::allocate(p_split, density);

  if (!fig4a.feasible || !fig4b.feasible || !fig4c.feasible) {
    std::cerr << "infeasible configuration: " << fig4a.message << "/"
              << fig4b.message << "/" << fig4c.message << "\n";
    return;
  }

  report::Table table({"solution", "mem accesses", "reg accesses",
                       "mem locations", "E(static)", "E(activity)",
                       "E(model)"});
  emit(table, "(a) two-phase, graph of [8]", p, fig4a);
  emit(table, "(b) simultaneous, graph of [8]", p, fig4b);
  emit(table, "(c) simultaneous, density graph + split f", p_split, fig4c);
  table.print(std::cout);

  std::cout << "energy improvement (a)/(c): "
            << report::Table::num(fig4a.energy(p) / fig4c.energy(p_split))
            << "x   [paper: 1.35x]\n";
  std::cout << "accesses: (b) <= (a): "
            << (fig4b.stats.mem_accesses() <= fig4a.stats.mem_accesses()
                    ? "yes"
                    : "NO")
            << ", locations: (c) <= (b): "
            << (fig4c.stats.mem_locations <= fig4b.stats.mem_locations
                    ? "yes"
                    : "NO")
            << "\n";
}

}  // namespace

/// The §7 minimum-storage argument, checked structurally: in the
/// density-region graph no transition/source/sink arc lets a register
/// idle across a boundary of maximum lifetime density, so every register
/// provably covers every peak and memory needs exactly
/// max_density - R locations. The [8] graph contains such arcs, which is
/// why it carries no minimum-location guarantee (Figure 4b).
void structural_comparison(const energy::EnergyParams& params) {
  std::cout << "\n--- structural comparison of the two graphs ---\n";
  workloads::Figure4Options opts;
  opts.params = params;
  const alloc::AllocationProblem p = workloads::figure4_problem(opts);

  report::Table table({"graph", "transition arcs", "peak-idling arcs"});
  for (auto style :
       {alloc::GraphStyle::kDensityRegions, alloc::GraphStyle::kAllPairs}) {
    const alloc::FlowGraphSpec spec = alloc::build_dense_flow_graph(p, style);
    int transitions = 0;
    int idling = 0;
    for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
      const auto& info = spec.arc_info[a];
      int idle_from = -1;
      int idle_to = -1;
      switch (info.kind) {
        case alloc::ArcKind::kTransition:
          ++transitions;
          idle_from = p.segments[static_cast<std::size_t>(info.from_seg)].end;
          idle_to = p.segments[static_cast<std::size_t>(info.to_seg)].start;
          break;
        case alloc::ArcKind::kFromSource:
          idle_from = 0;
          idle_to = p.segments[static_cast<std::size_t>(info.to_seg)].start;
          break;
        case alloc::ArcKind::kToSink:
          idle_from = p.segments[static_cast<std::size_t>(info.from_seg)].end;
          idle_to = p.num_steps + 1;
          break;
        default:
          continue;
      }
      for (int b = idle_from; b < idle_to && b <= p.num_steps; ++b) {
        if (b >= 0 && p.is_max_density[static_cast<std::size_t>(b)]) {
          ++idling;
          break;
        }
      }
    }
    table.add_row({style == alloc::GraphStyle::kDensityRegions
                       ? "density regions (this paper)"
                       : "all pairs [8]",
                   report::Table::num(transitions),
                   report::Table::num(idling)});
  }
  table.print(std::cout);
  std::cout << "peak-idling arcs admit solutions that leave a register "
               "empty across a maximum-density boundary, costing an extra "
               "memory location; the density graph has none by "
               "construction (see test DensityGraphPinsMemoryToMinimum).\n";
}

int main() {
  std::cout << "=== FIG4: graph styles and split lifetimes (Figure 4, "
               "R = 1) ===\n";

  energy::EnergyParams base;
  base.register_model = energy::RegisterModel::kActivity;
  run_configuration("default energy parameters", base);
  structural_comparison(base);
  return 0;
}
