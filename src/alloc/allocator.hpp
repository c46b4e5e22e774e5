#pragma once

#include <string>

#include "alloc/evaluate.hpp"
#include "alloc/flow_graph.hpp"
#include "audit/report.hpp"
#include "netflow/robust.hpp"
#include "netflow/solution.hpp"

/// \file allocator.hpp
/// The paper's simultaneous memory-partitioning + register-allocation
/// solver: build the flow graph, push F = R units of minimum-cost flow,
/// and read the register chains back off the arcs with flow.

namespace lera::alloc {

struct AllocatorOptions {
  GraphStyle style = GraphStyle::kDensityRegions;
  /// Primary min-cost-flow backend. The default, SolverKind::kAuto, asks
  /// the selector (netflow/select.hpp) per instance: SSP while R <= 12,
  /// network simplex above, so the chain below runs the other one as the
  /// fallback.
  netflow::SolverKind solver = netflow::SolverKind::kAuto;
  energy::Quantizer quantizer{};
  /// Certify the flow returned by the solver against the residual-cycle
  /// optimality condition (cheap; catches solver regressions). Even when
  /// off, the robust solve path still validates the instance and checks
  /// feasibility + cost consistency of every accepted flow.
  bool certify = false;
  /// Budgets and fallback chain for the robust solve path. An empty
  /// chain runs `solver` -> network simplex -> successive shortest
  /// paths (duplicates dropped); cycle canceling is the differential
  /// oracle and runs only as `solver` or when listed explicitly. The
  /// certification level is derived from `certify`.
  netflow::SolveOptions solve;
  /// When the flow path fails (bad instance, budget exhausted, chain
  /// uncertified, or infeasible), degrade to the two-phase baseline
  /// instead of failing outright; the downgrade is recorded in
  /// AllocationResult::degraded. Off by default: optimality-sensitive
  /// callers (tests, benchmarks) want failures loud.
  bool fallback_to_baseline = false;
};

struct AllocationResult {
  bool feasible = false;
  std::string message;  ///< Diagnostic when infeasible/invalid/degraded.
  /// True when the optimal flow path failed and the result came from the
  /// two-phase baseline instead (see AllocatorOptions::fallback_to_baseline).
  bool degraded = false;
  /// The wall clock — a per-solve budget or a deadline — stopped the flow
  /// solve (SolveDiagnostics::deadline_hit). Combined with `degraded` this
  /// is the anytime verdict: a usable baseline answer produced because the
  /// optimal one ran out of time.
  bool timed_out = false;
  /// A CancelToken withdrew the request mid-solve. A cancelled result is
  /// never degraded to the baseline — the caller no longer wants any
  /// answer — and carries no assignment.
  bool cancelled = false;
  /// A memory budget refused the solve's predicted footprint, or an
  /// allocation actually failed (netflow kMemoryExceeded). Combined with
  /// `degraded` this mirrors the timed_out contract: a usable baseline
  /// answer produced because the optimal one did not fit in memory.
  bool memory_exceeded = false;
  /// What the robust solve layer observed: validation findings, solver
  /// attempts/fallbacks, certification verdict, wall time.
  netflow::SolveDiagnostics solve_diagnostics;
  /// Independent-auditor verdict (audit/audit.hpp). Empty unless the
  /// caller audits — allocate() itself never does; engine::Engine fills
  /// it when EngineOptions::audit_level is on.
  audit::AuditReport audit;

  Assignment assignment;
  AccessStats stats;
  EnergyBreakdown static_energy;    ///< Replayed under eq. (1).
  EnergyBreakdown activity_energy;  ///< Replayed under eq. (2).

  /// base_energy + dequantised flow cost: the objective the flow
  /// actually minimised (equals the replayed energy under the problem's
  /// configured register model; asserted in tests).
  double model_energy = 0;
  netflow::Cost flow_cost = 0;
  int registers_used = 0;

  /// Energy under the model the problem was configured with.
  double energy(const AllocationProblem& p) const {
    return p.params.register_model == energy::RegisterModel::kStatic
               ? static_energy.total()
               : activity_energy.total();
  }
};

/// Solves Problem 1 to optimality (under the configured register model
/// and graph style). Infeasible only when the forced segments cannot be
/// covered by R registers.
///
/// Thread safety: a pure function of its arguments — no global or
/// function-local mutable state anywhere on the solve path — so
/// concurrent calls on distinct (or shared, since both parameters are
/// read-only) problems are safe. engine::Engine relies on this to fan
/// batched solves across threads.
AllocationResult allocate(const AllocationProblem& p,
                          const AllocatorOptions& options = {});

/// Design-space sweep over register counts: builds the flow graph once
/// (only the flow value F and the bypass capacity depend on R) and
/// re-solves for every entry of \p register_counts. Results are in the
/// same order; p.num_registers is ignored.
std::vector<AllocationResult> allocate_sweep(
    const AllocationProblem& p, const std::vector<int>& register_counts,
    const AllocatorOptions& options = {});

/// Helper shared with the baselines: derives stats and energies for an
/// arbitrary (already validated) assignment.
void finish_result(const AllocationProblem& p, AllocationResult& result);

/// Reads the register chains off an optimal F = R flow of \p spec, in
/// either encoding: each unit of s->t flow traces one register's
/// occupancy chain, and registers are numbered 0, 1, ... in the order
/// their units leave s, counting only units that cross a segment arc.
/// \p arc_flow is indexed by ArcId of spec.graph and must be a feasible
/// integral flow of value p.num_registers (anything else trips the unit
/// walk's asserts). allocate() uses it internally.
Assignment assignment_from_flow(const AllocationProblem& p,
                                const FlowGraphSpec& spec,
                                const std::vector<netflow::Flow>& arc_flow);

/// The allocator's solve against a prebuilt flow graph (the spec's
/// bypass capacity must be >= p.num_registers). Exposed for
/// IncrementalAllocator, which threads its warm-start seed in through
/// options.solve.warm_cache; allocate() wraps it with problem
/// validation and the degradation contract.
AllocationResult allocate_with_spec(const AllocationProblem& p,
                                    const FlowGraphSpec& spec,
                                    const AllocatorOptions& options);

}  // namespace lera::alloc
