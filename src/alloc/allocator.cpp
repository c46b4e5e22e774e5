#include "alloc/allocator.hpp"

#include <algorithm>
#include <new>

#include "alloc/two_phase.hpp"
#include "netflow/validate.hpp"

namespace lera::alloc {

void finish_result(const AllocationProblem& p, AllocationResult& result) {
  result.stats = count_accesses(p, result.assignment);
  result.static_energy =
      evaluate_energy(p, result.assignment, energy::RegisterModel::kStatic);
  result.activity_energy =
      evaluate_energy(p, result.assignment, energy::RegisterModel::kActivity);
  result.registers_used = result.assignment.registers_used();
}

namespace {

/// Maps AllocatorOptions onto the robust solve layer: the configured
/// primary solver leads the fallback chain, and `certify` selects the
/// optimality certificate on top of the always-on feasibility checks.
netflow::SolveOptions robust_options(const AllocatorOptions& options) {
  netflow::SolveOptions solve = options.solve;
  if (solve.chain.empty()) {
    solve.chain = {options.solver, netflow::SolverKind::kNetworkSimplex,
                   netflow::SolverKind::kSuccessiveShortestPaths};
  }
  solve.certify = options.certify ? netflow::CertifyLevel::kOptimal
                                  : netflow::CertifyLevel::kFeasible;
  return solve;
}

}  // namespace

Assignment assignment_from_flow(const AllocationProblem& p,
                                const FlowGraphSpec& spec,
                                const std::vector<netflow::Flow>& arc_flow) {
  // Walks the flow out of s one unit at a time, each along arcs that
  // still carry flow (a per-node cursor skips the used-up ones). A unit
  // is one register: it takes the next id at the first segment arc it
  // crosses, so units that only bypass or idle take none.
  Assignment assignment(p.segments.size());
  std::vector<netflow::Flow> left = arc_flow;
  std::vector<std::size_t> cursor(
      static_cast<std::size_t>(spec.graph.num_nodes()), 0);
  const auto next_arc = [&](netflow::NodeId v) {
    const netflow::Graph::ArcRange out = spec.graph.out_arcs(v);
    std::size_t& c = cursor[static_cast<std::size_t>(v)];
    while (c < out.size() && left[static_cast<std::size_t>(out[c])] == 0) {
      ++c;
    }
    return c < out.size() ? out[c] : netflow::kInvalidArc;
  };
  int next_register = 0;
  for (netflow::ArcId a = next_arc(spec.s); a != netflow::kInvalidArc;
       a = next_arc(spec.s)) {
    int reg = -1;
    for (;;) {
      --left[static_cast<std::size_t>(a)];
      const FlowGraphSpec::ArcInfo& info =
          spec.arc_info[static_cast<std::size_t>(a)];
      if (info.kind == ArcKind::kSegment) {
        if (reg < 0) reg = next_register++;
        assignment.assign_register(static_cast<std::size_t>(info.from_seg),
                                   reg);
      }
      const netflow::NodeId head = spec.graph.arc(a).head;
      if (head == spec.t) break;
      a = next_arc(head);
      assert(a != netflow::kInvalidArc && "register chain broke mid-walk");
    }
  }
  return assignment;
}

AllocationResult allocate_with_spec(const AllocationProblem& p,
                                    const FlowGraphSpec& spec,
                                    const AllocatorOptions& options) {
  AllocationResult result;
  const netflow::FlowSolution sol = netflow::solve_st_flow_robust(
      spec.graph, spec.s, spec.t, p.num_registers, robust_options(options),
      &result.solve_diagnostics);
  if (!sol.optimal()) {
    switch (sol.status) {
      case netflow::SolveStatus::kInfeasible:
        result.message =
            "no feasible flow: the forced (register-only) segments cannot "
            "be covered by R=" +
            std::to_string(p.num_registers) + " registers";
        break;
      case netflow::SolveStatus::kBadInstance:
        result.message = "bad flow instance: " + sol.message;
        break;
      case netflow::SolveStatus::kBudgetExceeded:
        result.timed_out = result.solve_diagnostics.deadline_hit;
        result.message = "solve budget exhausted: " + sol.message;
        break;
      case netflow::SolveStatus::kUncertified:
        result.message =
            "solver chain failed certification: " + sol.message;
        break;
      case netflow::SolveStatus::kCancelled:
        result.cancelled = true;
        result.message = "solve cancelled: " + sol.message;
        break;
      case netflow::SolveStatus::kMemoryExceeded:
        result.memory_exceeded = true;
        result.message = "solve memory budget exhausted: " + sol.message;
        break;
      case netflow::SolveStatus::kOptimal:
        break;  // Unreachable.
    }
    return result;
  }

  // Each unit of flow out of s traces one register's occupancy chain.
  result.assignment = assignment_from_flow(p, spec, sol.arc_flow);

  const std::string assignment_issues =
      validate_assignment(p, result.assignment);
  if (!assignment_issues.empty()) {
    result.message = "internal error, invalid assignment: " +
                     assignment_issues;
    return result;
  }

  result.feasible = true;
  result.flow_cost = sol.cost;
  result.model_energy =
      spec.base_energy + options.quantizer.dequantize(sol.cost);
  finish_result(p, result);
  return result;
}

namespace {

/// The graceful-degradation contract: when the flow path failed (\p result
/// is not feasible) and the caller opted in, fall back to the two-phase
/// baseline and record the downgrade instead of failing outright.
AllocationResult degrade_on_failure(const AllocationProblem& p,
                                    const AllocatorOptions& options,
                                    AllocationResult result) {
  // A cancelled request is never degraded: the caller withdrew it, so
  // spending baseline time on an answer nobody wants would be waste.
  if (result.feasible || result.cancelled || !options.fallback_to_baseline) {
    return result;
  }

  TwoPhaseOptions baseline;
  baseline.solver = options.solver;
  baseline.quantizer = options.quantizer;
  AllocationResult fallback = two_phase_allocate(p, baseline);
  if (!fallback.feasible) {
    result.message +=
        "; two-phase fallback also failed: " + fallback.message;
    return result;
  }
  fallback.degraded = true;
  fallback.timed_out = result.timed_out;
  fallback.memory_exceeded = result.memory_exceeded;
  fallback.solve_diagnostics = std::move(result.solve_diagnostics);
  fallback.message =
      "degraded to two-phase baseline (" + result.message + ")";
  return fallback;
}

}  // namespace

AllocationResult allocate(const AllocationProblem& p,
                          const AllocatorOptions& options) {
  AllocationResult result;
  const std::string problem_issues = p.verify();
  if (!problem_issues.empty()) {
    result.message = "invalid problem: " + problem_issues;
    return result;
  }
  // The graph build is the one large allocation outside the solve
  // boundary's bad_alloc net; catch it here so an OOM building the spec
  // degrades (or reports) exactly like one inside the solvers.
  try {
    const FlowGraphSpec spec =
        build_flow_graph(p, options.style, options.quantizer);
    return degrade_on_failure(p, options,
                              allocate_with_spec(p, spec, options));
  } catch (const std::bad_alloc&) {
    result.memory_exceeded = true;
    result.message = "allocation failed building the flow graph (out of memory)";
  }
  return degrade_on_failure(p, options, std::move(result));
}

std::vector<AllocationResult> allocate_sweep(
    const AllocationProblem& p, const std::vector<int>& register_counts,
    const AllocatorOptions& options) {
  std::vector<AllocationResult> results;
  results.reserve(register_counts.size());
  AllocationProblem working = p;
  const std::string problem_issues = working.verify();
  if (!problem_issues.empty() || register_counts.empty()) {
    results.resize(register_counts.size());
    for (auto& r : results) {
      r.message = "invalid problem: " + problem_issues;
    }
    return results;
  }
  working.num_registers =
      *std::max_element(register_counts.begin(), register_counts.end());
  FlowGraphSpec spec;
  try {
    spec = build_flow_graph(working, options.style, options.quantizer);
  } catch (const std::bad_alloc&) {
    for (std::size_t i = 0; i < register_counts.size(); ++i) {
      AllocationResult r;
      r.memory_exceeded = true;
      r.message =
          "allocation failed building the flow graph (out of memory)";
      results.push_back(std::move(r));
    }
    return results;
  }
  for (int registers : register_counts) {
    working.num_registers = registers;
    results.push_back(degrade_on_failure(
        working, options, allocate_with_spec(working, spec, options)));
  }
  return results;
}

}  // namespace lera::alloc
