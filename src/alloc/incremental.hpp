#pragma once

#include <cstdint>

#include "alloc/allocator.hpp"
#include "netflow/warm.hpp"

/// \file incremental.hpp
/// Incremental-edit repair: re-solve an edited problem from the previous
/// optimal flow instead of cold. The editing client pattern — add or
/// remove a variable, shift a lifetime segment, change a pin — changes a
/// handful of the flow graph's arcs, so the previous optimum is a few
/// augmentations away from the new one. The repair:
///
///  1. builds the new flow graph and derives an arc/node correspondence
///     to the baseline's graph from *semantic* keys (ArcKind + endpoint
///     segments, with variables matched by name, or the event times of
///     the sparse encoding's hubs), never raw indices;
///  2. carries the baseline's flow and potentials onto the new graph
///     (netflow::WarmStartCache::remapped: removed arcs are dropped,
///     added arcs start empty) and hands that seed to the allocator's
///     robust solve as its warm-start cache;
///  3. lets solve_robust do the rest exactly as for any warm solve: the
///     saturate-and-drain repair (netflow::resolve_warm), certification
///     against the independent optimality checks (validate.hpp) —
///     ALWAYS, since the allocator forces `certify` on — and the cold
///     chain when the repair cannot prove optimality, so an incremental
///     answer is never worse than a cold one, only faster.
///
/// The test suite's 100-seed differential sweep asserts the repaired
/// objective is bit-equal to the cold solve's on every edit.

namespace lera::alloc {

/// Counters of one IncrementalAllocator's lifetime, read off each
/// solve's SolveDiagnostics. repairs_succeeded + repair_fallbacks ==
/// repairs_attempted always holds.
struct IncrementalStats {
  std::int64_t cold_solves = 0;        ///< Solves no repair answered.
  std::int64_t repairs_attempted = 0;  ///< Warm resolves from the baseline.
  std::int64_t repairs_succeeded = 0;  ///< Certified-optimal repairs served.
  std::int64_t repair_fallbacks = 0;   ///< Attempts that fell back to cold.
};

/// A sequential incremental solver: keeps the last certified-optimal
/// flow as the baseline and repairs each subsequent (edited) instance
/// from it. Not thread-safe — one editing stream per instance, like a
/// SolverWorkspace.
class IncrementalAllocator {
 public:
  /// \p min_mapped_fraction gates the repair: when fewer than this
  /// fraction of the new graph's arcs have a baseline counterpart the
  /// edit is too large for a repair to beat a cold solve.
  explicit IncrementalAllocator(AllocatorOptions options = {},
                                double min_mapped_fraction = 0.5);

  /// Solves \p p — incrementally when a usable baseline exists, cold
  /// otherwise — and promotes a stored answer to the new baseline. The
  /// result carries the robust solve's diagnostics like any allocate().
  AllocationResult solve(const AllocationProblem& p);

  const IncrementalStats& stats() const { return stats_; }

  /// Drops the baseline (the next solve is cold).
  void reset();

 private:
  /// The baseline carried onto \p p's flow graph when the gates pass
  /// (same R, variables matched, enough arcs mapped); an empty cache —
  /// a cold solve — otherwise.
  netflow::WarmStartCache seed(const AllocationProblem& p,
                               const FlowGraphSpec& spec) const;

  AllocatorOptions options_;
  double min_mapped_fraction_;
  IncrementalStats stats_;

  AllocationProblem base_problem_;
  FlowGraphSpec base_spec_;
  /// Baseline flow + optimality potentials, stored by solve_robust
  /// against the supply-adjusted (F = R at s/t) copy of base_spec_.graph.
  netflow::WarmStartCache warm_;
  netflow::SolverWorkspace workspace_;
};

}  // namespace lera::alloc
