#pragma once

#include "engine/engine.hpp"

/// \file global_alloc.hpp
/// Allocation beyond basic blocks — the future direction §7 singles out
/// ("extending this problem to very large basic blocks or beyond basic
/// blocks should be a viable future research direction", enabled by the
/// polynomial-time flow).
///
/// Every task is scheduled and laid on one global timeline; a task
/// input named after an earlier task's live-out value *continues* that
/// value's lifetime instead of starting a new one. A single min-cost
/// flow then allocates the merged problem, so an intermediate result
/// can ride a register across the task boundary instead of being parked
/// in memory between blocks (which is what per-block allocation charges
/// for every live-out/live-in pair).

namespace lera::pipeline {

struct GlobalReport {
  bool feasible = false;
  std::string message;

  /// The merged cross-task problem (inspect lifetimes/segments freely).
  alloc::AllocationProblem problem;
  alloc::AllocationResult result;

  int total_steps = 0;      ///< Global timeline length.
  int stitched_values = 0;  ///< Lifetimes continued across a boundary.
};

/// Schedules the tasks back to back and solves one allocation over the
/// merged lifetimes. Cross-task switching activities default to 0.5
/// (per-task traces cannot price pairs that never coexist in one block).
GlobalReport global_allocate(const ir::TaskGraph& graph,
                             const engine::EngineOptions& options = {});

}  // namespace lera::pipeline
