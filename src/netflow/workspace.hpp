#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "netflow/membudget.hpp"
#include "netflow/residual.hpp"
#include "netflow/types.hpp"

/// \file workspace.hpp
/// Reusable scratch arena for the minimum-cost flow solvers.
///
/// A SolverWorkspace owns every allocation the hot solve path needs —
/// the residual network, the SSP distance/potential/parent arrays and
/// Dijkstra heap, and the network-simplex tree scratch — so a caller
/// that solves many instances (Engine batch loops, explore sweeps,
/// warm-start resolves) pays for vector growth once instead of per
/// solve. Passing a workspace never changes results, only allocation
/// behavior.
///
/// Ownership rules: a workspace may be reused across any number of
/// sequential solves but must never be shared by two solves running
/// concurrently — it is scratch memory, not shared state. The Engine
/// keeps a bank of workspaces and leases one per in-flight solve.

namespace lera::netflow {

namespace detail {

/// Capacity (not size) of a vector in bytes — what the arena actually
/// holds onto between solves.
template <typename T>
std::int64_t vec_bytes(const std::vector<T>& v) {
  return static_cast<std::int64_t>(v.capacity() * sizeof(T));
}

}  // namespace detail

/// Every PerfCounters field, declared once: X(member, LERA_PERF key,
/// merge rule), in LERA_PERF output order. kSum counters accumulate;
/// kMax fields are high-water snapshots, merged with max by add() and
/// carried (not differenced) by delta_since().
#define LERA_PERF_COUNTERS(X)                                                 \
  /* Solver runs through the arena. */                                        \
  X(solves, "solves", kSum)                                                   \
  /* SSP augmenting paths applied. */                                         \
  X(augmentations, "augmentations", kSum)                                     \
  /* Nodes permanently labeled. */                                            \
  X(dijkstra_settles, "settles", kSum)                                        \
  /* Dijkstra heap insertions. */                                             \
  X(heap_pushes, "heap_pushes", kSum)                                         \
  /* Dijkstra heap pop-mins. */                                               \
  X(heap_pops, "heap_pops", kSum)                                             \
  /* Network-simplex basis changes. */                                        \
  X(simplex_pivots, "pivots", kSum)                                           \
  /* SolverKind::kAuto resolutions. */                                        \
  X(auto_selections, "auto_selections", kSum)                                 \
  /* Solves on an arena an earlier solve used. */                             \
  X(workspace_reuse_hits, "workspace_reuse", kSum)                            \
  /* Resolves served from a prior flow. */                                    \
  X(warm_start_hits, "warm_hits", kSum)                                       \
  /* Warm attempts that fell to cold. */                                      \
  X(warm_start_misses, "warm_misses", kSum)                                   \
  /* Optimal answers the warm cache refused to record. */                     \
  X(warm_store_rejects, "warm_store_rejects", kSum)                           \
  /* Allocation-cache serves (engine). */                                     \
  X(cache_hits, "cache_hits", kSum)                                           \
  /* Allocation-cache lookups that solved. */                                 \
  X(cache_misses, "cache_misses", kSum)                                       \
  /* Allocation-cache entries evicted. */                                     \
  X(cache_evictions, "cache_evictions", kSum)                                 \
  /* Sampled hit re-audits run. */                                            \
  X(cache_audit_samples, "cache_audit_samples", kSum)                         \
  /* Bytes the allocation cache holds. */                                     \
  X(cache_bytes, "cache_bytes", kMax)                                         \
  /* Instance validation wall time. */                                        \
  X(validate_ns, "validate_ns", kSum)                                         \
  /* Solver-proper wall time. */                                              \
  X(solve_ns, "solve_ns", kSum)                                               \
  /* Certification wall time. */                                              \
  X(certify_ns, "certify_ns", kSum)                                           \
  /* Bytes charged to memory budgets. */                                      \
  X(mem_charged_bytes, "mem_charged_bytes", kSum)                             \
  /* Solve attempts refused by a budget. */                                   \
  X(mem_denials, "mem_denials", kSum)                                         \
  /* High-water budget bytes observed. */                                     \
  X(mem_peak_bytes, "mem_peak_bytes", kMax)

/// Monotonic performance counters accumulated by the solvers that run
/// through a workspace. Aggregatable: add() folds one counter set into
/// another (Engine-wide totals), delta_since() isolates a single solve.
struct PerfCounters {
  enum Merge { kSum, kMax };

#define LERA_PERF_MEMBER(member, key, merge) std::int64_t member = 0;
  LERA_PERF_COUNTERS(LERA_PERF_MEMBER)
#undef LERA_PERF_MEMBER

  void add(const PerfCounters& o) {
#define LERA_PERF_ADD(member, key, merge) \
  member = merge == kSum ? member + o.member : std::max(member, o.member);
    LERA_PERF_COUNTERS(LERA_PERF_ADD)
#undef LERA_PERF_ADD
  }

  /// Counter values accumulated since \p base (field-wise this - base;
  /// a kMax snapshot has no meaningful delta and carries its value).
  PerfCounters delta_since(const PerfCounters& base) const {
    PerfCounters d;
#define LERA_PERF_DELTA(member, key, merge) \
  d.member = merge == kSum ? member - base.member : member;
    LERA_PERF_COUNTERS(LERA_PERF_DELTA)
#undef LERA_PERF_DELTA
    return d;
  }

  /// One-line key=value rendering for logs and --perf output.
  std::string summary() const {
    std::string out;
#define LERA_PERF_FIELD(member, key, merge)   \
  out += out.empty() ? key "=" : " " key "="; \
  out += std::to_string(member);
    LERA_PERF_COUNTERS(LERA_PERF_FIELD)
#undef LERA_PERF_FIELD
    return out;
  }
};

/// SSP scratch: distance/parent/potential arrays plus the lazy 4-ary
/// Dijkstra heap. Per-round state (dist, parent, heap membership) is
/// validity-stamped with a round counter, so starting a new Dijkstra is
/// one integer increment instead of three O(n) fills.
struct SspScratch {
  static constexpr std::int32_t kNotInHeap = -1;
  static constexpr std::int32_t kSettled = -2;

  /// Per-node Dijkstra state packed into one array so an edge
  /// relaxation touches a single cache line instead of four parallel
  /// vectors. Entry v is valid iff its round == current_round.
  /// heap_pos only distinguishes kSettled from kNotInHeap — the heap is
  /// lazy, so exact positions are never tracked.
  struct NodeState {
    Cost dist;
    std::int32_t parent_edge;
    std::int32_t heap_pos;
    std::uint32_t round;
  };
  std::vector<NodeState> node;
  std::vector<Cost> pi;
  std::vector<Flow> excess;
  /// The key is embedded in the entry so sift comparisons stay inside
  /// the heap array instead of chasing dist[] cache lines.
  struct HeapEntry {
    Cost dist;
    NodeId node;
  };
  std::vector<HeapEntry> heap;
  /// Deficit nodes settled by the current Dijkstra round, in settle
  /// order; the drain augments to each of them from one forest.
  std::vector<NodeId> sinks;
  std::uint32_t current_round = 0;
  // initial_potentials() scratch.
  std::vector<int> indegree;
  std::vector<NodeId> order;

  /// Sizes the stamped arrays for an n-node instance.
  void prepare(NodeId n) {
    const auto un = static_cast<std::size_t>(n);
    detail::alloc_tick(static_cast<std::int64_t>(un * sizeof(NodeState)));
    if (node.size() < un) {
      node.resize(un, NodeState{0, -1, kNotInHeap, 0});
    }
    heap.clear();
  }

  /// Bytes this scratch currently retains.
  std::int64_t footprint_bytes() const {
    return detail::vec_bytes(node) + detail::vec_bytes(pi) +
           detail::vec_bytes(excess) + detail::vec_bytes(heap) +
           detail::vec_bytes(sinks) + detail::vec_bytes(indegree) +
           detail::vec_bytes(order);
  }

  /// Starts a fresh Dijkstra round, invalidating all stamped entries.
  void new_round() {
    if (++current_round == 0) {
      // Counter wrapped (after 2^32 rounds): hard-reset the stamps once.
      for (NodeState& st : node) st.round = 0;
      current_round = 1;
    }
    heap.clear();
  }

  bool stamped(NodeId v) const {
    return node[static_cast<std::size_t>(v)].round == current_round;
  }
  void stamp(NodeId v) {
    node[static_cast<std::size_t>(v)].round = current_round;
  }
};

/// Network-simplex scratch: SoA arc arrays, spanning-tree arrays, and
/// the pivot-cycle / child-list buffers that used to be allocated per
/// pivot. The child lists are doubly linked (child_prev enables O(1)
/// unlink) because they are maintained incrementally across pivots: a
/// basis exchange re-parents only the nodes on the reversed path, and
/// the potential update then walks just the re-hung subtree.
struct SimplexScratch {
  std::vector<NodeId> tail;
  std::vector<NodeId> head;
  std::vector<Flow> cap;
  std::vector<Cost> cost;
  std::vector<Flow> flow;
  std::vector<signed char> state;
  std::vector<NodeId> parent;
  std::vector<ArcId> pred_arc;
  std::vector<NodeId> depth;
  std::vector<Cost> pi;
  // Incrementally maintained intrusive child lists + DFS stack.
  std::vector<NodeId> child_first;
  std::vector<NodeId> child_next;
  std::vector<NodeId> child_prev;
  std::vector<NodeId> stack;
  // pivot(): cycle steps (arc id, direction flag, subtree-side node).
  std::vector<ArcId> cycle_arc;
  std::vector<signed char> cycle_dir;
  std::vector<NodeId> cycle_below;
  // Candidate-list pivot rule: violating arcs collected by the major
  // block scan, consumed by minor iterations.
  std::vector<ArcId> candidates;

  /// Bytes this scratch currently retains.
  std::int64_t footprint_bytes() const {
    return detail::vec_bytes(tail) + detail::vec_bytes(head) +
           detail::vec_bytes(cap) + detail::vec_bytes(cost) +
           detail::vec_bytes(flow) + detail::vec_bytes(state) +
           detail::vec_bytes(parent) + detail::vec_bytes(pred_arc) +
           detail::vec_bytes(depth) + detail::vec_bytes(pi) +
           detail::vec_bytes(child_first) + detail::vec_bytes(child_next) +
           detail::vec_bytes(child_prev) + detail::vec_bytes(stack) +
           detail::vec_bytes(cycle_arc) + detail::vec_bytes(cycle_dir) +
           detail::vec_bytes(cycle_below) + detail::vec_bytes(candidates);
  }
};

/// Cycle-canceling scratch: the Bellman-Ford distance/parent arrays and
/// the cycle buffer that used to be allocated per negative-cycle search.
struct CycleCancelScratch {
  std::vector<Cost> dist;
  std::vector<std::int32_t> parent;
  std::vector<std::int32_t> cycle;

  /// Bytes this scratch currently retains.
  std::int64_t footprint_bytes() const {
    return detail::vec_bytes(dist) + detail::vec_bytes(parent) +
           detail::vec_bytes(cycle);
  }
};

/// One arena per sequential solve stream. See file comment for the
/// ownership rules; treat the members as solver-internal.
struct SolverWorkspace {
  Residual residual;
  SspScratch ssp;
  SimplexScratch simplex;
  CycleCancelScratch cycle_cancel;
  PerfCounters counters;
  /// True once any solve has run through this arena; every later solve
  /// through it counts as a workspace reuse.
  bool used = false;

  /// Total bytes the arena currently retains across the residual and
  /// every backend's scratch — the measured side of the footprint
  /// estimator (membudget.hpp) and what the Engine's ContextBank
  /// charges for a pooled workspace.
  std::int64_t footprint_bytes() const {
    return residual.footprint_bytes() + ssp.footprint_bytes() +
           simplex.footprint_bytes() + cycle_cancel.footprint_bytes();
  }
};

}  // namespace lera::netflow
