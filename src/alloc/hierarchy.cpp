#include "alloc/hierarchy.hpp"

#include <algorithm>

#include "alloc/evaluate.hpp"
#include "alloc/mem_runs.hpp"
#include "energy/voltage.hpp"
#include "netflow/graph.hpp"

namespace lera::alloc {

namespace {

/// Memory traffic of each run (plus the orphan traffic of register-to-
/// register spill corners, which touches memory without a run).
struct RunTraffic {
  std::vector<int> reads;
  std::vector<int> writes;
  int orphan_reads = 0;
  int orphan_writes = 0;
};

RunTraffic count_run_traffic(const AllocationProblem& p,
                             const Assignment& a,
                             const std::vector<MemRun>& runs) {
  const std::vector<int> run_of = run_index_by_segment(p, runs);
  RunTraffic traffic;
  traffic.reads.assign(runs.size(), 0);
  traffic.writes.assign(runs.size(), 0);
  for (const StorageEvent& ev : enumerate_events(p, a)) {
    if (ev.type != EventType::kMemRead && ev.type != EventType::kMemWrite) {
      continue;
    }
    const int run = ev.seg >= 0 ? run_of[static_cast<std::size_t>(ev.seg)]
                                : -1;
    if (ev.type == EventType::kMemRead) {
      if (run >= 0) {
        ++traffic.reads[static_cast<std::size_t>(run)];
      } else {
        ++traffic.orphan_reads;
      }
    } else {
      if (run >= 0) {
        ++traffic.writes[static_cast<std::size_t>(run)];
      } else {
        ++traffic.orphan_writes;
      }
    }
  }
  return traffic;
}

}  // namespace

HierarchicalResult allocate_hierarchical(const AllocationProblem& p,
                                         const HierarchyParams& hierarchy,
                                         const AllocatorOptions& options) {
  HierarchicalResult out;
  out.stage1 = allocate(p, options);
  if (!out.stage1.feasible) {
    out.message = "stage 1 failed: " + out.stage1.message;
    return out;
  }
  const Assignment& a = out.stage1.assignment;
  const std::vector<MemRun> runs = memory_runs(p, a);
  const RunTraffic traffic = count_run_traffic(p, a, runs);

  // Per-access energies of the two memory levels.
  const double on_read = p.params.e_mem_read();
  const double on_write = p.params.e_mem_write();
  const double off_scale = energy::energy_scale(hierarchy.v_offchip,
                                               p.params.v_nominal);
  const double off_read = hierarchy.offchip_read * off_scale;
  const double off_write = hierarchy.offchip_write * off_scale;

  // Stage 2: interval flow with F = scratchpad capacity; a run's arc
  // carries cost -(off-chip cost - on-chip cost), i.e. minus the energy
  // saved by hosting the run on chip.
  std::vector<char> onchip(runs.size(), 0);
  if (hierarchy.onchip_capacity > 0 && !runs.empty()) {
    netflow::Graph g;
    const netflow::NodeId s = g.add_node("s");
    const netflow::NodeId t = g.add_node("t");
    std::vector<netflow::ArcId> run_arc(runs.size());
    std::vector<netflow::NodeId> w_node(runs.size());
    std::vector<netflow::NodeId> r_node(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      w_node[i] = g.add_node();
      r_node[i] = g.add_node();
      const double savings =
          traffic.reads[i] * (off_read - on_read) +
          traffic.writes[i] * (off_write - on_write);
      run_arc[i] = g.add_arc(w_node[i], r_node[i], 1,
                             options.quantizer.quantize(-savings));
      g.add_arc(s, w_node[i], 1, 0);
      g.add_arc(r_node[i], t, 1, 0);
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      for (std::size_t j = 0; j < runs.size(); ++j) {
        if (i == j || runs[i].end > runs[j].start) continue;
        g.add_arc(r_node[i], w_node[j], 1, 0);
      }
    }
    g.add_arc(s, t, hierarchy.onchip_capacity, 0);  // Idle capacity.

    // Stage 1's chain and certification rule, but not options.solve:
    // its warm-start cache belongs to the allocation flow.
    netflow::SolveOptions stage2;
    stage2.chain = netflow::fallback_chain(options.solver);
    stage2.certify = options.certify ? netflow::CertifyLevel::kOptimal
                                     : netflow::CertifyLevel::kFeasible;
    const netflow::FlowSolution sol = netflow::solve_st_flow_robust(
        g, s, t, hierarchy.onchip_capacity, stage2);
    if (!sol.optimal()) {
      out.message = "stage 2 flow failed unexpectedly";
      return out;
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      onchip[i] = sol.arc_flow[static_cast<std::size_t>(run_arc[i])] > 0;
    }
  }

  // Assemble levels and totals.
  const std::vector<int> run_of = run_index_by_segment(p, runs);
  out.level.assign(p.segments.size(), StorageLevel::kOffchip);
  for (std::size_t seg = 0; seg < p.segments.size(); ++seg) {
    if (a.in_register(seg)) {
      out.level[seg] = StorageLevel::kRegister;
    } else {
      const int run = run_of[seg];
      out.level[seg] = (run >= 0 && onchip[static_cast<std::size_t>(run)])
                           ? StorageLevel::kOnchip
                           : StorageLevel::kOffchip;
    }
  }

  double memory_energy = 0;
  double all_off_memory = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double off_cost =
        traffic.reads[i] * off_read + traffic.writes[i] * off_write;
    const double on_cost =
        traffic.reads[i] * on_read + traffic.writes[i] * on_write;
    all_off_memory += off_cost;
    if (onchip[i]) {
      ++out.onchip_runs;
      out.onchip_accesses += traffic.reads[i] + traffic.writes[i];
      memory_energy += on_cost;
    } else {
      ++out.offchip_runs;
      out.offchip_accesses += traffic.reads[i] + traffic.writes[i];
      memory_energy += off_cost;
    }
  }
  // Orphan traffic (no run to pin down) is priced off-chip.
  const double orphan = traffic.orphan_reads * off_read +
                        traffic.orphan_writes * off_write;
  memory_energy += orphan;
  all_off_memory += orphan;
  out.offchip_accesses += traffic.orphan_reads + traffic.orphan_writes;

  out.total_static_energy =
      memory_energy + out.stage1.static_energy.register_file;
  out.total_activity_energy =
      memory_energy + out.stage1.activity_energy.register_file;
  out.all_offchip_static_energy =
      all_off_memory + out.stage1.static_energy.register_file;
  out.feasible = true;
  return out;
}

}  // namespace lera::alloc
