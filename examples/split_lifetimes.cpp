// Split lifetimes and restricted memory access times (paper §5.2).
//
// Recreates the situation of the paper's Figure 1c: the memory module is
// clocked at half the datapath rate, so it can only be accessed at odd
// control steps. Lifetimes that begin or end between access times are
// *forced* into registers (flow lower bounds of 1); the rest may be
// split at access boundaries and spilled mid-life. The example prints
// the segment table, the allocation, and a Graphviz rendering of the
// network flow graph with the optimal flow highlighted.
//
// Build & run:  ./build/examples/split_lifetimes [out.dot]

#include <fstream>
#include <iostream>

#include "alloc/allocator.hpp"
#include "netflow/robust.hpp"
#include "report/dot.hpp"
#include "report/table.hpp"
#include "workloads/paper_examples.hpp"

int main(int argc, char** argv) {
  using namespace lera;

  // The Figure 1 lifetimes, with memory accessible at steps 1,3,5,7.
  std::vector<lifetime::Lifetime> lifetimes =
      workloads::figure1_lifetimes();
  lifetime::SplitOptions split;
  split.access.period = 2;
  split.access.phase = 1;

  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  const alloc::AllocationProblem p = alloc::make_problem(
      std::move(lifetimes), /*num_steps=*/7, /*num_registers=*/3, params,
      energy::ActivityMatrix(5, 0.5, 0.5), split);

  report::Table segs({"segment", "interval", "start cut", "end cut",
                      "forced to register"});
  auto kind_name = [](lifetime::CutKind k) {
    switch (k) {
      case lifetime::CutKind::kDef: return "def";
      case lifetime::CutKind::kRead: return "read";
      case lifetime::CutKind::kDeath: return "death";
      case lifetime::CutKind::kBoundary: return "access time";
    }
    return "?";
  };
  for (const auto& seg : p.segments) {
    segs.add_row(
        {p.lifetimes[static_cast<std::size_t>(seg.var)].name + "#" +
             std::to_string(seg.index),
         "[" + std::to_string(seg.start) + "," + std::to_string(seg.end) +
             ")",
         kind_name(seg.start_kind), kind_name(seg.end_kind),
         seg.forced_register ? "yes" : "no"});
  }
  segs.print(std::cout);

  const alloc::AllocationResult r = alloc::allocate(p);
  if (!r.feasible) {
    std::cerr << "allocation failed: " << r.message << "\n";
    return 1;
  }
  std::cout << "\nallocation with R = " << p.num_registers << ":\n";
  report::Table where({"segment", "placement"});
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    where.add_row(
        {p.lifetimes[static_cast<std::size_t>(p.segments[s].var)].name +
             "#" + std::to_string(p.segments[s].index),
         r.assignment.in_register(s)
             ? "r" + std::to_string(r.assignment.location(s))
             : "memory"});
  }
  where.print(std::cout);
  std::cout << "memory accesses " << r.stats.mem_accesses()
            << ", register accesses " << r.stats.reg_accesses()
            << ", energy " << r.activity_energy.total() << " add-units\n";

  // Render the flow graph (paper Figure 1c) with the solution on it.
  const alloc::FlowGraphSpec spec =
      alloc::build_dense_flow_graph(p, alloc::GraphStyle::kDensityRegions);
  netflow::SolveOptions options;
  options.chain =
      netflow::fallback_chain(netflow::SolverKind::kSuccessiveShortestPaths);
  const netflow::FlowSolution sol = netflow::solve_st_flow_robust(
      spec.graph, spec.s, spec.t, p.num_registers, options);
  const char* path = argc > 1 ? argv[1] : "figure1c_flow.dot";
  std::ofstream out(path);
  report::write_dot(out, p, spec, &sol);
  std::cout << "\nflow graph written to " << path
            << " (render with: dot -Tpng " << path << " -o flow.png)\n";
  return 0;
}
