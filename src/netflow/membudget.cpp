#include "netflow/membudget.hpp"

#include "netflow/residual.hpp"
#include "netflow/workspace.hpp"

namespace lera::netflow {

namespace detail {

thread_local AllocTickHook t_alloc_tick_hook;

}  // namespace detail

namespace {

/// The estimator mirrors the real data structures byte for byte, so it
/// stays calibrated when a container changes size (the footprint test
/// checks it against measured capacities on the bench_solvers family).
/// Per-structure breakdown for an n-node / m-arc instance:
///
///   Residual      2m edges + 2m out ids + (n+1) offsets + cursor
///   Graph CSR     m out ids + m in ids + 2(n+1) offsets
///   SSP           NodeState/pi/excess per node, heap bounded by 2m
///   simplex       SoA arrays over m+n arcs (artificial root arcs
///                 included) + 10 per-node arrays over n+1 nodes + the
///                 packing start's forward-arc list and 4 node arrays
///   cycle cancel  its own augmented residual (m+n arcs) + BF arrays
constexpr std::int64_t kSlack = 4096;  ///< vectors round up; keep a floor

std::int64_t residual_bytes(std::int64_t n, std::int64_t m) {
  return 2 * m * static_cast<std::int64_t>(sizeof(Residual::Edge)) +
         2 * m * static_cast<std::int64_t>(sizeof(int)) +
         2 * (n + 1) * static_cast<std::int64_t>(sizeof(int));
}

std::int64_t graph_csr_bytes(std::int64_t n, std::int64_t m) {
  return 2 * m * static_cast<std::int64_t>(sizeof(ArcId)) +
         2 * (n + 1) * static_cast<std::int64_t>(sizeof(ArcId));
}

std::int64_t ssp_bytes(std::int64_t n, std::int64_t m) {
  return n * static_cast<std::int64_t>(sizeof(SspScratch::NodeState)) +
         n * static_cast<std::int64_t>(sizeof(Cost)) +   // pi
         n * static_cast<std::int64_t>(sizeof(Flow)) +   // excess
         2 * m * static_cast<std::int64_t>(sizeof(SspScratch::HeapEntry)) +
         n * static_cast<std::int64_t>(sizeof(NodeId)) +  // sinks
         n * static_cast<std::int64_t>(sizeof(int)) +     // dfs_cursor
         n * static_cast<std::int64_t>(sizeof(NodeId)) +  // dfs_stack
         n * static_cast<std::int64_t>(sizeof(NodeId));   // order
}

std::int64_t simplex_bytes(std::int64_t n, std::int64_t m) {
  // One artificial arc per node and one artificial root, plus what the
  // path-packing start adds; the candidate list (max(16, sqrt(m + n) /
  // 4) arc ids) sits in kSlack.
  return (m + n) * SimplexScratch::kArcBytes +
         (n + 1) * SimplexScratch::kNodeBytes +
         m * SimplexScratch::kPackArcBytes +
         n * SimplexScratch::kPackNodeBytes;
}

std::int64_t cycle_cancel_bytes(std::int64_t n, std::int64_t m) {
  // Builds an augmented graph (one extra node, m+n arcs) plus its own
  // residual and the Bellman-Ford arrays.
  const std::int64_t na = n + 1;
  const std::int64_t ma = m + n;
  return residual_bytes(na, ma) + graph_csr_bytes(na, ma) +
         na * (static_cast<std::int64_t>(sizeof(Cost)) +
               2 * static_cast<std::int64_t>(sizeof(std::int32_t)));
}

}  // namespace

std::int64_t estimate_solver_bytes(const InstanceShape& shape,
                                   SolverKind kind) {
  const std::int64_t n = shape.nodes;
  const std::int64_t m = shape.arcs;
  if (kind == SolverKind::kAuto) kind = select_solver(shape);
  std::int64_t scratch = 0;
  switch (kind) {
    case SolverKind::kSuccessiveShortestPaths:
      scratch = ssp_bytes(n, m);
      break;
    case SolverKind::kNetworkSimplex:
      scratch = simplex_bytes(n, m);
      break;
    case SolverKind::kCycleCanceling:
      scratch = cycle_cancel_bytes(n, m);
      break;
    case SolverKind::kAuto:
      break;  // unreachable: expanded above
  }
  return residual_bytes(n, m) + graph_csr_bytes(n, m) + scratch + kSlack;
}

std::int64_t estimate_footprint(const InstanceShape& shape) {
  std::int64_t worst = 0;
  for (const SolverKind kind :
       {SolverKind::kSuccessiveShortestPaths, SolverKind::kNetworkSimplex,
        SolverKind::kCycleCanceling}) {
    worst = std::max(worst, estimate_solver_bytes(shape, kind));
  }
  return worst;
}

}  // namespace lera::netflow
