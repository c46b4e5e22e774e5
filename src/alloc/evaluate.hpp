#pragma once

#include <vector>

#include "alloc/assignment.hpp"
#include "alloc/problem.hpp"

/// \file evaluate.hpp
/// Replays an assignment as a sequence of storage events and prices it.
/// This is deliberately independent of the flow formulation: the tests
/// assert that base_energy + flow cost equals the replayed energy, which
/// certifies the arc-cost algebra of flow_graph.cpp end to end.
///
/// Semantics (matching the flow model; see DESIGN.md):
///  * a value leaving a register before its death is written back to
///    memory (memory addresses are reused aggressively, so no stale copy
///    can be relied upon);
///  * at an interior read the consumer's memory read doubles as the
///    register load; register-to-register moves are free of memory
///    traffic;
///  * at a pure access-boundary cut, entering a register costs an
///    explicit memory read.

namespace lera::alloc {

enum class EventType { kMemRead, kMemWrite, kRegRead, kRegWrite };

struct StorageEvent {
  int step = 0;
  EventType type = EventType::kMemRead;
  int var = -1;
  int reg = Assignment::kMemory;  ///< Register involved (reg events only).
  /// Segment whose placement caused the event. For cut events this is
  /// the segment whose *forcing into a register* would remove the
  /// memory traffic (used by the port-constraint loop of §7).
  int seg = -1;
};

/// All storage events implied by \p a, sorted by step.
std::vector<StorageEvent> enumerate_events(const AllocationProblem& p,
                                           const Assignment& a);

struct AccessStats {
  int mem_reads = 0;
  int mem_writes = 0;
  int reg_reads = 0;
  int reg_writes = 0;

  // Peak same-step traffic -> required port counts (paper §7 determines
  // port counts from the flow solution).
  int mem_read_ports = 0;
  int mem_write_ports = 0;
  int reg_read_ports = 0;
  int reg_write_ports = 0;

  /// Minimum number of memory storage locations (peak simultaneous
  /// memory residency; the paper's graph provably minimises this).
  int mem_locations = 0;

  int mem_accesses() const { return mem_reads + mem_writes; }
  int reg_accesses() const { return reg_reads + reg_writes; }
};

AccessStats count_accesses(const AllocationProblem& p, const Assignment& a);

struct EnergyBreakdown {
  double memory = 0;
  double register_file = 0;
  double total() const { return memory + register_file; }
};

/// Prices the events of \p a under \p model (the problem's voltage-scaled
/// parameters are used; \p model picks eq. (1) or eq. (2) for the
/// register file).
EnergyBreakdown evaluate_energy(const AllocationProblem& p,
                                const Assignment& a,
                                energy::RegisterModel model);

/// count_accesses and evaluate_energy under both register models, from
/// one enumeration of the events and one walk over them; equal, bit for
/// bit, to the separate calls.
struct Evaluation {
  AccessStats stats;
  EnergyBreakdown static_energy;
  EnergyBreakdown activity_energy;
};
Evaluation evaluate(const AllocationProblem& p, const Assignment& a);

/// Peak number of simultaneously memory-resident variables.
int memory_locations(const AllocationProblem& p, const Assignment& a);

}  // namespace lera::alloc
