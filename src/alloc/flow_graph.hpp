#pragma once

#include <cstdint>
#include <vector>

#include "alloc/problem.hpp"
#include "energy/quantize.hpp"
#include "netflow/graph.hpp"

/// \file flow_graph.hpp
/// Maps Problem 1 to a minimum-cost network-flow instance (paper §5.1,
/// §5.2). Every lifetime segment contributes a capacity-1 arc from its
/// w-node to its r-node (lower bound 1 when the segment is forced into a
/// register by restricted memory access times). Flow value F = R; each
/// unit of s->t flow traces one register's occupancy chain.
///
/// Two transition-arc policies are provided:
///  * kDensityRegions — the paper's graph: a transition r_i(v1)->w_j(v2)
///    exists only if the register would not sit idle across a boundary of
///    maximum lifetime density. This guarantees the allocation uses the
///    minimum number of memory storage locations (§7).
///  * kAllPairs — the graph of Chang/Pedram [8]: every compatible
///    (non-overlapping) pair is connected. Used as the paper's Figure 4
///    baseline; minimum memory size is no longer guaranteed.
///
/// Two encodings of either policy are provided:
///  * dense (build_dense_flow_graph) — the paper's graph as drawn: one
///    transition arc per allowed (segment, segment) pair, O(s^2) arcs.
///    The reference, and the only encoding for the activity model,
///    whose transition costs depend on both variables.
///  * sparse — when every transition costs leave(i) + enter(j)
///    (uses_sparse_encoding), one hub node per distinct event time
///    replaces the bipartite fill, and consecutive segments of a variable
///    share one cut node where they meet: a register leaves at a cut (or
///    at the variable's death hub), idles along the hub chain and enters
///    at a cut (or at the variable's definition hub), O(s) arcs and no
///    chain arcs. Under kDensityRegions the chain omits the idle arcs
///    that cross a max-density boundary, so a hub path exists exactly
///    where the dense graph has an arc. The two encodings agree on the
///    optimal flow cost (DESIGN.md §4).
/// build_flow_graph picks the encoding from the input.
///
/// Arc costs implement eqs. (3)-(10) generalised to all cut kinds:
///   leaving a register at an interior read saves the memory read and
///   pays the write-back; at the final read it saves the read only; at a
///   pure access-time boundary it pays the write-back only. Entering a
///   register at the definition saves the memory write; at an interior
///   read the base-charged memory read doubles as the load; at an access
///   boundary an extra memory read pays for the load. Eq. (7) as printed
///   omits the -E_r^m(v1) term; we follow the paper's own accounting
///   narrative (and eq. (6)) and keep the term whenever the cut is a real
///   read — see DESIGN.md.

namespace lera::alloc {

enum class GraphStyle {
  kDensityRegions,  ///< The paper's construction (minimum memory size).
  kAllPairs,        ///< Chang/Pedram-style baseline graph [8].
};

enum class ArcKind {
  kSegment,     ///< w_i(v) -> r_i(v).
  kChain,       ///< r_i(v) -> w_{i+1}(v): same variable stays put (dense).
  kTransition,  ///< r_i(v1) -> w_j(v2): register handed to v2 (dense).
  kFromSource,  ///< s -> w_j(v) (dense) or s -> hub(0) (sparse).
  kToSink,      ///< r_i(v) -> t (dense) or hub(x+1) -> t (sparse).
  kBypass,      ///< s -> t: unused registers.
  kLeave,       ///< cut after i -> hub(end_i): register released (sparse).
  kEnter,       ///< hub(start_j) -> cut before j: register taken (sparse).
  kIdle,        ///< hub(t_k) -> hub(t_k+1): register idles (sparse).
};

struct FlowGraphSpec {
  netflow::Graph graph;
  netflow::NodeId s = netflow::kInvalidNode;
  netflow::NodeId t = netflow::kInvalidNode;
  /// Per segment: the tail and head of its kSegment arc. Dense graphs
  /// give each segment its own pair. Sparse graphs share them: where
  /// segments i and i+1 of a variable meet, r_node[i] == w_node[i+1] is
  /// the cut node, and a variable's first w-node and last r-node are the
  /// hubs of its definition and death times.
  std::vector<netflow::NodeId> w_node;
  std::vector<netflow::NodeId> r_node;
  /// Sparse encoding only (both empty on a dense graph): one hub node
  /// per distinct event time, in ascending time order.
  std::vector<netflow::NodeId> hub_node;
  std::vector<int> hub_time;

  struct ArcInfo {
    ArcKind kind = ArcKind::kSegment;
    int from_seg = -1;  ///< Segment whose r-node the arc leaves (-1: s
                        ///< or a hub).
    int to_seg = -1;    ///< Segment whose w-node the arc enters (-1: t
                        ///< or a hub).
  };
  std::vector<ArcInfo> arc_info;  ///< Indexed by ArcId.

  /// Constant energy charged regardless of the flow: one memory write
  /// plus one memory read per read time, for every variable. The model
  /// energy of a solution is base_energy + dequantised flow cost.
  double base_energy = 0;
};

/// True when \p p's transition costs separate, so the sparse encoding
/// has the dense graph's optimal flow cost: the static register model,
/// no register-barred segment, every segment with start < end,
/// e_reg_read <= e_mem_read and e_mem_write + e_reg_write > 0, a
/// spill-and-reload at one cut (hub -> cut -> hub) quantising to a cost
/// above 0 at read and boundary cuts, and every (end kind, start kind)
/// transition quantising to the sum of its quantised halves. O(s).
bool uses_sparse_encoding(const AllocationProblem& p,
                          const energy::Quantizer& quantizer = {});

/// Node and arc counts of a flow graph.
struct FlowGraphSize {
  std::int64_t nodes = 0;
  std::int64_t arcs = 0;
};

/// The exact size of a sparse graph over \p segments segments with
/// \p cuts cuts (places where two segments of one variable meet), \p hubs
/// distinct event times and \p idle_arcs idle arcs (at most hubs - 1):
/// nodes s, t, the hubs and one per cut; arcs one per segment, a leave
/// and an enter arc per cut, the idle arcs, s -> hub(0), hub(x+1) -> t
/// and, when \p bypass, the s -> t bypass. The builder reserves from it
/// and estimate_problem_footprint sizes the sparse case with it.
FlowGraphSize sparse_graph_size(std::int64_t segments, std::int64_t cuts,
                                std::int64_t hubs, std::int64_t idle_arcs,
                                bool bypass);

/// The flow graph of \p p in the encoding uses_sparse_encoding picks.
FlowGraphSpec build_flow_graph(const AllocationProblem& p, GraphStyle style,
                               const energy::Quantizer& quantizer = {});

/// The paper's dense graph, whatever the input: one kTransition arc per
/// allowed segment pair, kFromSource/kToSink arcs per segment.
FlowGraphSpec build_dense_flow_graph(const AllocationProblem& p,
                                     GraphStyle style,
                                     const energy::Quantizer& quantizer = {});

/// Upper bound on the bytes an allocation of \p p costs end to end: the
/// flow-graph spec itself (nodes, arcs, arc metadata) plus the solver
/// footprint (netflow::estimate_footprint) of the worst-case instance
/// shape for the encoding build_flow_graph picks (the same predicate),
/// regardless of graph style: a sparse graph's sparse_graph_size with an
/// idle arc between every two hubs (for the contiguous segments
/// build_segments makes, at most 2s + 4 nodes and 4s + 4 arcs with
/// s = |segments|), a dense one 2 + 2s nodes and s^2 + 4s + 2 arcs.
/// O(s log s). This is what admission control (lera_server) compares
/// against a memory cap before any allocation happens.
std::int64_t estimate_problem_footprint(
    const AllocationProblem& p, const energy::Quantizer& quantizer = {});

}  // namespace lera::alloc
