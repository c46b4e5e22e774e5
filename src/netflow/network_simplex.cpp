#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "netflow/internal_solvers.hpp"
#include "netflow/workspace.hpp"

/// Primal network simplex (Ahuja/Magnanti/Orlin ch. 11) on the
/// spanning-tree arrays of the Király & Kovács implementation study, the
/// ones LEMON's solver uses.
///
/// Tree. Every node keeps its parent, its pred arc (the tree arc to the
/// parent) with that arc's direction, thread / rev_thread (a doubly
/// linked preorder of the whole tree), succ_num (its subtree's size) and
/// last_succ (its subtree's last node in the preorder). A pivot finds the
/// join node by stepping up from whichever side has the smaller subtree,
/// and the leaving arc with one walk up to the join from each end of the
/// entering arc. The moved subtree is re-rooted at the entering arc's end
/// inside it: its thread is cut into the pieces hanging off the stem (the
/// path from that end up to the leaving arc), which are spliced in after
/// the entering arc's other end in reversed stem order. Its potentials
/// then shift along the thread by the one constant that makes the
/// entering arc tight; the tree arcs inside it do not change.
///
/// Packing start. Where the negative-cost arcs chain (the saturated
/// start's test below keeps them) and the instance has exactly one
/// source and one sink, which is every sparse allocation graph and no
/// dense one, the start is a feasible flow. Along the depth-first
/// reverse postorder SSP's start potentials also use, one DP pass over
/// the arcs forward in that order with spare capacity finds the cheapest
/// path to the sink, which takes min(supply left, its bottleneck); the
/// passes repeat until the sink is met, the zero-cost s -> t bypass of an
/// allocation graph taking whatever is left in one step. The arcs
/// strictly between their bounds then form the tree: each of its
/// components hangs from the root on a zero-cost artificial arc that
/// points into the root and carries nothing, every tree arc is tight and
/// every other arc sits at the bound its flow gives. Free arcs can send
/// flow either way, so the tree is strongly feasible by construction; no
/// artificial arc points out of the root, so none can ever carry flow.
/// When no forward path reaches the sink, or the free arcs close a cycle,
/// the start falls back to the saturated one.
///
/// Artificial start. An artificial root joins every node. A node whose
/// start balance is >= 0 hangs from it on a zero-cost arc carrying the
/// balance up; only a deficit node hangs on a big-M arc carrying its
/// demand down. That tree is strongly feasible, and big-M, max |cost| *
/// (nodes + 2) + 1, exceeds the cost of any simple path, so flow left on
/// an artificial arc at the optimum proves the instance infeasible. Big-M
/// must stay within kInfCost, which leaves potentials (below 2 big-M) and
/// reduced costs (below 3 big-M) room to never overflow; costs that do
/// not allow it are refused as kBadInstance.
///
/// Saturated start, kept only when its arcs chain. With b the supplies,
/// b' the balances once every finite-capacity negative-cost arc is set to
/// its capacity, and U those arcs' total capacity, the artificial start
/// keeps them at their upper bound when sum|b'| - sum|b| <= U, that is
/// when at least half of the imbalance they could create cancels out, and
/// starts every arc at zero otherwise. On the sparse allocation graphs
/// the negative segment arcs chain through the cut nodes and the
/// imbalance lands on the hubs alone, so the test keeps them (and opens
/// the packing start); on the dense graphs the O(s^2) negative
/// transitions do not chain, pushing them all at once would be mostly
/// undone pivot by pivot, and the test drops them.
///
/// Pricing. Only the real arcs are priced: an artificial arc leaves the
/// tree empty, and an optimum that needs it again would carry flow
/// through the root, which the big-M argument above rules out for a
/// feasible instance. Entering arcs come from a candidate list: a major
/// iteration scans arcs cyclically, collecting up to list_size_
/// violating arcs into a scratch-owned list, and minor iterations pivot
/// on the most violating entry (stale entries are pruned as they are
/// touched), so most pivots cost a list sweep instead of an arc sweep.
///
/// Leaving arc: the *last* blocking arc met when traversing the pivot
/// cycle along its orientation from the join, which keeps the tree
/// strongly feasible and rules out cycling. The walk up from the cycle's
/// start takes a strictly smaller slack only, the walk up from its end
/// takes ties too. The slack is at most the entering arc's capacity, so
/// a negative cycle of kInfFlow arcs carries kInfFlow, as under SSP.
///
/// All state lives in SoA arrays borrowed from a SimplexScratch, so a
/// reused workspace makes repeated solves allocation-free.

namespace lera::netflow::internal {

namespace {

// Arc states, signed so that -state * reduced cost is a non-tree arc's
// optimality violation and state * delta its flow change in a pivot.
constexpr signed char kLower = 1;
constexpr signed char kTree = 0;
constexpr signed char kUpper = -1;

// Direction of a node's pred arc: up when the node is the arc's tail.
constexpr signed char kUp = 1;
constexpr signed char kDown = -1;

/// Arcs the saturated start sets at their upper bound.
bool saturable(const Arc& arc) {
  return arc.cost < 0 && arc.upper < kInfFlow;
}

/// max |cost| * (nodes + 2) + 1 into \p big_m; false when a cost or the
/// result leaves kInfCost.
bool artificial_cost(const Graph& g, Cost& big_m) {
  Cost max_abs_cost = 1;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Cost c = g.arc(a).cost;
    if (c > kInfCost || c < -kInfCost) return false;
    max_abs_cost = std::max(max_abs_cost, c < 0 ? -c : c);
  }
  Cost scaled = 0;
  return checked_mul(max_abs_cost, static_cast<Cost>(g.num_nodes()) + 2,
                     scaled) &&
         checked_add(scaled, 1, big_m) && big_m <= kInfCost;
}

/// The saturated start's test: writes the start balances into \p
/// balance (the supplies, less what saturating every finite-capacity
/// negative-cost arc routes, when that is kept) and returns whether it
/// is kept.
bool saturated_start(const Graph& g, std::vector<Flow>& balance) {
  const NodeId n = g.num_nodes();
  balance.resize(static_cast<std::size_t>(n));
  Flow before = 0;
  bool fits = true;
  for (NodeId v = 0; v < n; ++v) {
    const Flow b = g.supply(v);
    balance[static_cast<std::size_t>(v)] = b;
    fits = fits && b >= -kInfFlow && b <= kInfFlow &&
           checked_add(before, b < 0 ? -b : b, before);
  }
  Flow saturated = 0;
  for (ArcId a = 0; a < g.num_arcs() && fits; ++a) {
    const Arc& arc = g.arc(a);
    if (!saturable(arc)) continue;
    Flow& out = balance[static_cast<std::size_t>(arc.tail)];
    Flow& in = balance[static_cast<std::size_t>(arc.head)];
    fits = checked_add(saturated, arc.upper, saturated) &&
           checked_add(out, -arc.upper, out) &&
           checked_add(in, arc.upper, in);
  }
  Flow after = 0;
  for (NodeId v = 0; v < n && fits; ++v) {
    const Flow b = balance[static_cast<std::size_t>(v)];
    fits = b >= -kInfFlow && b <= kInfFlow &&
           checked_add(after, b < 0 ? -b : b, after);
  }
  if (fits && saturated > 0 && after - before <= saturated) return true;
  for (NodeId v = 0; v < n; ++v) {
    balance[static_cast<std::size_t>(v)] = g.supply(v);
  }
  return false;
}

/// The one node with positive supply and the one with negative supply,
/// or false when there are more of either.
bool single_source_and_sink(const Graph& g, NodeId& source, NodeId& sink) {
  source = kInvalidNode;
  sink = kInvalidNode;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Flow b = g.supply(v);
    if (b == 0) continue;
    NodeId& end = b > 0 ? source : sink;
    if (end != kInvalidNode) return false;
    end = v;
  }
  return source != kInvalidNode && sink != kInvalidNode;
}

class NetworkSimplex {
 public:
  NetworkSimplex(const Graph& g, Cost big_m, SolveGuard* guard,
                 SimplexScratch& s)
      : s_(s), real_arcs_(g.num_arcs()), root_(g.num_nodes()) {
    const NodeId n = g.num_nodes();
    const auto nodes = static_cast<std::size_t>(n) + 1;
    const auto arcs = static_cast<std::size_t>(real_arcs_) + nodes - 1;
    const std::size_t block_size = std::max<std::size_t>(
        64, static_cast<std::size_t>(std::sqrt(static_cast<double>(arcs))));
    list_size_ = std::max<std::size_t>(16, block_size / 4);
    minor_limit_ = std::max<std::size_t>(4, list_size_ / 4);

    // Announce every array below to the budget/failpoint seam before
    // any of them can allocate.
    detail::alloc_tick(
        static_cast<std::int64_t>(arcs) * SimplexScratch::kArcBytes +
        static_cast<std::int64_t>(nodes) * SimplexScratch::kNodeBytes +
        static_cast<std::int64_t>(list_size_ * sizeof(ArcId)));
    s_.tail.resize(arcs);
    s_.head.resize(arcs);
    s_.cap.resize(arcs);
    s_.cost.resize(arcs);
    s_.flow.resize(arcs);
    s_.state.resize(arcs);
    s_.parent.resize(nodes);
    s_.pred.resize(nodes);
    s_.pred_dir.resize(nodes);
    s_.thread.resize(nodes);
    s_.rev_thread.resize(nodes);
    s_.succ_num.resize(nodes);
    s_.last_succ.resize(nodes);
    s_.pi.resize(nodes);
    s_.dirty.clear();
    s_.dirty.reserve(nodes);
    s_.candidates.clear();
    s_.candidates.reserve(list_size_);
    const bool saturate = saturated_start(g, s_.balance);

    tail_ = s_.tail.data();
    head_ = s_.head.data();
    cap_ = s_.cap.data();
    cost_ = s_.cost.data();
    flow_ = s_.flow.data();
    state_ = s_.state.data();
    parent_ = s_.parent.data();
    pred_ = s_.pred.data();
    pred_dir_ = s_.pred_dir.data();
    thread_ = s_.thread.data();
    rev_thread_ = s_.rev_thread.data();
    succ_num_ = s_.succ_num.data();
    last_succ_ = s_.last_succ.data();
    pi_ = s_.pi.data();

    for (ArcId a = 0; a < real_arcs_; ++a) {
      const Arc& arc = g.arc(a);
      tail_[a] = arc.tail;
      head_[a] = arc.head;
      cap_[a] = arc.upper;
      cost_[a] = arc.cost;
    }
    NodeId source = kInvalidNode;
    NodeId sink = kInvalidNode;
    if (saturate && single_source_and_sink(g, source, sink) &&
        pack(g, source, sink, guard) && packed_tree(g)) {
      start_ = SimplexStart::kPacked;
    } else {
      start_ = saturate ? SimplexStart::kSaturated : SimplexStart::kArtificial;
      artificial_tree(g, big_m, saturate);
    }
  }

  SimplexStart start() const { return start_; }

  /// Pivots to optimality. With \p tree_violation set, checks the tree
  /// at the start and after every pivot, and stops at the first
  /// violation, which it leaves there.
  FlowSolution run(const Graph& g, SolveGuard* guard, PerfCounters& pc,
                   std::string* tree_violation) {
    const auto tree_broken = [&]() {
      if (tree_violation == nullptr) return false;
      *tree_violation = check_tree();
      return !tree_violation->empty();
    };
    if (tree_broken()) return {};
    for (;;) {
      if (guard != nullptr && !guard->tick()) {
        return budget_exceeded(SolverKind::kNetworkSimplex);
      }
      const ArcId entering = select_entering();
      if (entering == kInvalidArc) break;
      pivot(entering);
      ++pc.simplex_pivots;
      if (tree_broken()) return {};
    }

    // Positive flow left on an artificial arc means no feasible b-flow.
    for (ArcId a = real_arcs_; a < real_arcs_ + root_; ++a) {
      if (flow_[a] > 0) return {};
    }

    FlowSolution sol;
    sol.status = SolveStatus::kOptimal;
    sol.arc_flow.assign(flow_, flow_ + real_arcs_);
    for (ArcId a = 0; a < real_arcs_; ++a) {
      sol.cost += g.arc(a).cost * sol.arc_flow[static_cast<std::size_t>(a)];
    }
    return sol;
  }

 private:
  /// Routes \p source's supply to \p sink along cheapest paths of arcs
  /// forward in the depth-first reverse postorder, one DP pass over
  /// those with spare capacity per path, and leaves the flow in flow_.
  /// The distances live in pi_ and each node's path arc, as its place in
  /// the forward list, in pred_ until the start tree overwrites them.
  /// False when no forward path reaches the sink, or when the guard
  /// trips: the fallback start is cheap and the pivot loop's first tick
  /// reports the overrun.
  bool pack(const Graph& g, NodeId source, NodeId sink, SolveGuard* guard) {
    const NodeId n = root_;
    detail::alloc_tick(
        static_cast<std::int64_t>(real_arcs_) * SimplexScratch::kPackArcBytes +
        static_cast<std::int64_t>(n) * SimplexScratch::kPackNodeBytes);
    dfs_reverse_postorder(g, s_.dfs_cursor, s_.dfs_stack, s_.order);
    s_.position.resize(static_cast<std::size_t>(n));
    NodeId* position = s_.position.data();
    for (NodeId i = 0; i < n; ++i) {
      position[s_.order[static_cast<std::size_t>(i)]] = i;
    }
    // Each forward arc in the order the pass relaxes them: grouped by
    // tail in the order, so every arc into a node comes before any arc
    // out of it. The list is walked once more to hand the flow back.
    const auto for_each_forward_arc = [&](auto&& visit) {
      for (const NodeId v : s_.order) {
        for (const ArcId a : g.out_arcs(v)) {
          if (cap_[a] > 0 && position[head_[a]] > position[v]) visit(a);
        }
      }
    };
    std::vector<SimplexScratch::ForwardArc>& forward = s_.forward;
    forward.clear();
    forward.reserve(static_cast<std::size_t>(real_arcs_));
    for_each_forward_arc([&](ArcId a) {
      forward.push_back({tail_[a], head_[a], cost_[a], cap_[a]});
    });

    constexpr Cost kUnreached = std::numeric_limits<Cost>::max();
    Cost* dist = pi_;
    ArcId* via = pred_;
    const auto arcs = static_cast<ArcId>(forward.size());
    for (Flow left = g.supply(source); left > 0;) {
      if (guard != nullptr && !guard->tick()) return false;
      std::fill(dist, dist + n, kUnreached);
      dist[source] = 0;
      for (ArcId k = 0; k < arcs; ++k) {
        const SimplexScratch::ForwardArc& f =
            forward[static_cast<std::size_t>(k)];
        const Cost du = dist[f.tail];
        if (du == kUnreached || f.spare == 0) continue;
        const Cost d = du + f.cost;
        if (d < dist[f.head]) {
          dist[f.head] = d;
          via[f.head] = k;
        }
      }
      if (dist[sink] == kUnreached) return false;
      Flow delta = left;
      for (NodeId v = sink; v != source;) {
        const SimplexScratch::ForwardArc& f =
            forward[static_cast<std::size_t>(via[v])];
        delta = std::min(delta, f.spare);
        v = f.tail;
      }
      for (NodeId v = sink; v != source;) {
        SimplexScratch::ForwardArc& f =
            forward[static_cast<std::size_t>(via[v])];
        f.spare -= delta;
        v = f.tail;
      }
      left -= delta;
    }
    std::fill(flow_, flow_ + real_arcs_, 0);
    std::size_t k = 0;
    for_each_forward_arc(
        [&](ArcId a) { flow_[a] = cap_[a] - forward[k++].spare; });
    return true;
  }

  /// The start tree of the packed flow in flow_: the arcs strictly
  /// between their bounds, searched depth first from every node in id
  /// order, each search's first node hanging from the root on its
  /// zero-cost artificial arc. False when those arcs close a cycle.
  bool packed_tree(const Graph& g) {
    const NodeId n = root_;
    for (ArcId a = 0; a < real_arcs_; ++a) {
      state_[a] = flow_[a] == 0 ? kLower
                  : flow_[a] == cap_[a] ? kUpper
                                        : kTree;
    }
    for (NodeId v = 0; v < n; ++v) {
      const ArcId a = real_arcs_ + v;
      tail_[a] = v;
      head_[a] = root_;
      cap_[a] = kInfFlow;
      cost_[a] = 0;
      flow_[a] = 0;
      state_[a] = kLower;
      pred_[v] = kInvalidArc;  // Not yet reached.
    }
    parent_[root_] = kInvalidNode;
    pred_[root_] = kInvalidArc;
    pred_dir_[root_] = kUp;
    succ_num_[root_] = n + 1;
    pi_[root_] = 0;

    // Preorder search; thread grows as nodes are reached, succ_num holds
    // a node's arrival count until its subtree is done.
    int* cursor = s_.dfs_cursor.data();
    std::vector<NodeId>& stack = s_.dfs_stack;
    NodeId last = root_;
    NodeId reached = 0;
    const auto reach = [&](NodeId v, NodeId parent, ArcId a, Cost pi) {
      parent_[v] = parent;
      pred_[v] = a;
      pred_dir_[v] = tail_[a] == v ? kUp : kDown;
      pi_[v] = pi;
      thread_[last] = v;
      rev_thread_[v] = last;
      last = v;
      succ_num_[v] = reached++;
      cursor[v] = 0;
      stack.push_back(v);
    };
    for (NodeId r = 0; r < n; ++r) {
      if (pred_[r] != kInvalidArc) continue;
      state_[real_arcs_ + r] = kTree;
      stack.clear();
      reach(r, root_, real_arcs_ + r, 0);
      while (!stack.empty()) {
        const NodeId v = stack.back();
        const Graph::ArcRange out = g.out_arcs(v);
        const Graph::ArcRange in = g.in_arcs(v);
        const auto degree = static_cast<int>(out.size() + in.size());
        int& c = cursor[v];
        while (c < degree) {
          const auto i = static_cast<std::size_t>(c++);
          const ArcId a = i < out.size() ? out[i] : in[i - out.size()];
          if (state_[a] != kTree || a == pred_[v]) continue;
          const bool down = tail_[a] == v;
          const NodeId w = down ? head_[a] : tail_[a];
          if (pred_[w] != kInvalidArc) return false;  // A cycle.
          reach(w, v, a, down ? pi_[v] + cost_[a] : pi_[v] - cost_[a]);
          break;
        }
        if (stack.back() != v) continue;  // Descended into w.
        succ_num_[v] = reached - succ_num_[v];
        last_succ_[v] = last;
        stack.pop_back();
      }
    }
    thread_[last] = root_;
    rev_thread_[root_] = last;
    last_succ_[root_] = last;
    return true;
  }

  /// The artificial start: every node a leaf of the root, threaded in
  /// id order, with the potential that makes its artificial arc tight;
  /// the negative arcs start at their capacity when \p saturate holds.
  void artificial_tree(const Graph& g, Cost big_m, bool saturate) {
    const NodeId n = root_;
    for (ArcId a = 0; a < real_arcs_; ++a) {
      const bool full = saturate && saturable(g.arc(a));
      flow_[a] = full ? cap_[a] : 0;
      state_[a] = full ? kUpper : kLower;
    }
    parent_[root_] = kInvalidNode;
    pred_[root_] = kInvalidArc;
    pred_dir_[root_] = kUp;
    thread_[root_] = n > 0 ? 0 : root_;
    rev_thread_[n > 0 ? 0 : root_] = root_;
    succ_num_[root_] = n + 1;
    last_succ_[root_] = n > 0 ? n - 1 : root_;
    pi_[root_] = 0;
    for (NodeId v = 0; v < n; ++v) {
      const ArcId a = real_arcs_ + v;
      const Flow b = s_.balance[static_cast<std::size_t>(v)];
      parent_[v] = root_;
      pred_[v] = a;
      thread_[v] = v + 1;
      rev_thread_[v + 1] = v;
      succ_num_[v] = 1;
      last_succ_[v] = v;
      cap_[a] = kInfFlow;
      state_[a] = kTree;
      if (b >= 0) {
        tail_[a] = v;
        head_[a] = root_;
        cost_[a] = 0;
        flow_[a] = b;
        pred_dir_[v] = kUp;
        pi_[v] = 0;
      } else {
        tail_[a] = root_;
        head_[a] = v;
        cost_[a] = big_m;
        flow_[a] = -b;
        pred_dir_[v] = kDown;
        pi_[v] = big_m;
      }
    }
  }

  Cost reduced_cost(ArcId a) const {
    return cost_[a] + pi_[tail_[a]] - pi_[head_[a]];
  }

  /// Optimality violation of an arc: positive when it should enter.
  Cost violation(ArcId a) const { return -state_[a] * reduced_cost(a); }

  /// Candidate-list pivot rule. Minor iterations pick the currently
  /// most-violating arc from the scratch list, pruning entries whose
  /// violation vanished; when the list is spent (or minor_limit_ pivots
  /// consumed it), a major iteration rebuilds it by a cyclic scan
  /// collecting up to list_size_ violating arcs. Deterministic: the
  /// scan order and the max-by-violation tie-break (first wins) are
  /// functions of the instance alone.
  ArcId select_entering() {
    for (;;) {
      while (minor_left_ > 0 && !s_.candidates.empty()) {
        --minor_left_;
        ArcId best = kInvalidArc;
        Cost best_violation = 0;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < s_.candidates.size(); ++i) {
          const ArcId a = s_.candidates[i];
          const Cost v = violation(a);
          if (v <= 0) continue;  // Stale entry: prune.
          s_.candidates[keep++] = a;
          if (v > best_violation) {
            best_violation = v;
            best = a;
          }
        }
        s_.candidates.resize(keep);
        if (best != kInvalidArc) return best;
      }

      // Major iteration: rebuild the list by cyclic block scan.
      s_.candidates.clear();
      minor_left_ = minor_limit_;
      const auto num_arcs = static_cast<std::size_t>(real_arcs_);
      std::size_t scanned = 0;
      std::size_t i = scan_start_;
      while (scanned < num_arcs && s_.candidates.size() < list_size_) {
        if (violation(static_cast<ArcId>(i)) > 0) {
          s_.candidates.push_back(static_cast<ArcId>(i));
        }
        ++scanned;
        ++i;
        if (i == num_arcs) i = 0;
      }
      scan_start_ = i;
      if (s_.candidates.empty()) return kInvalidArc;  // Optimal.
    }
  }

  void pivot(ArcId in_arc) {
    const NodeId tail = tail_[in_arc];
    const NodeId head = head_[in_arc];

    // Join node: an ancestor's subtree is strictly larger than any of
    // its descendants', so stepping up the smaller side meets at the
    // lowest common ancestor.
    NodeId a = tail;
    NodeId b = head;
    while (a != b) {
      if (succ_num_[a] < succ_num_[b]) {
        a = parent_[a];
      } else {
        b = parent_[b];
      }
    }
    const NodeId join = a;

    // The push runs through the entering arc from `first` to `second`,
    // up to the join and back down to `first`. The leaving arc is the
    // last blocking arc of that traversal from the join: on the way up
    // from `first` (traversed downward) the one nearest `first`, so a
    // strict improvement; on the way up from `second` the one nearest
    // the join, so ties too; the entering arc sits between the two.
    const NodeId first = state_[in_arc] == kLower ? tail : head;
    const NodeId second = first == tail ? head : tail;
    Flow delta = cap_[in_arc];
    NodeId u_out = kInvalidNode;
    bool out_on_first = false;
    for (NodeId w = first; w != join; w = parent_[w]) {
      const ArcId t = pred_[w];
      const Flow slack = pred_dir_[w] == kUp ? flow_[t] : cap_[t] - flow_[t];
      if (slack < delta) {
        delta = slack;
        u_out = w;
        out_on_first = true;
      }
    }
    for (NodeId w = second; w != join; w = parent_[w]) {
      const ArcId t = pred_[w];
      const Flow slack = pred_dir_[w] == kUp ? cap_[t] - flow_[t] : flow_[t];
      if (slack <= delta) {
        delta = slack;
        u_out = w;
        out_on_first = false;
      }
    }

    if (delta > 0) {
      const Flow val = state_[in_arc] * delta;
      flow_[in_arc] += val;
      for (NodeId w = tail; w != join; w = parent_[w]) {
        flow_[pred_[w]] -= pred_dir_[w] * val;
      }
      for (NodeId w = head; w != join; w = parent_[w]) {
        flow_[pred_[w]] += pred_dir_[w] * val;
      }
    }

    if (u_out == kInvalidNode) {
      // The entering arc blocks first: it flips to its other bound and
      // the tree stays.
      state_[in_arc] = -state_[in_arc];
      return;
    }
    const ArcId out_arc = pred_[u_out];
    state_[out_arc] = flow_[out_arc] == 0 ? kLower : kUpper;
    state_[in_arc] = kTree;

    // Removing the leaving arc detaches u_out's subtree; u_in is the
    // entering arc's end inside it, v_in the end outside.
    const NodeId u_in = out_on_first ? first : second;
    const NodeId v_in = out_on_first ? second : first;
    update_tree(in_arc, join, u_in, v_in, u_out);

    // Shift the moved subtree's potentials so the entering arc is tight.
    const Cost sigma =
        pi_[v_in] - pi_[u_in] - pred_dir_[u_in] * cost_[in_arc];
    const NodeId end = thread_[last_succ_[u_in]];
    for (NodeId w = u_in; w != end; w = thread_[w]) pi_[w] += sigma;
  }

  /// Re-hangs u_out's subtree from v_in through in_arc, re-rooted at
  /// u_in, and repairs parent, pred, pred_dir, thread, rev_thread,
  /// succ_num and last_succ.
  void update_tree(ArcId in_arc, NodeId join, NodeId u_in, NodeId v_in,
                   NodeId u_out) {
    const NodeId old_rev_thread = rev_thread_[u_out];
    const NodeId old_succ_num = succ_num_[u_out];
    const NodeId old_last_succ = last_succ_[u_out];
    const NodeId v_out = parent_[u_out];

    if (u_in == u_out) {
      // The subtree keeps its root: move its thread segment to right
      // after v_in, unless it is there already.
      parent_[u_in] = v_in;
      if (thread_[v_in] != u_out) {
        NodeId after = thread_[old_last_succ];
        thread_[old_rev_thread] = after;
        rev_thread_[after] = old_rev_thread;
        after = thread_[v_in];
        thread_[v_in] = u_out;
        rev_thread_[u_out] = v_in;
        thread_[old_last_succ] = after;
        rev_thread_[after] = old_last_succ;
      }
    } else {
      // The node the moved subtree's thread continues to: v_in's
      // successor, or, when the subtree already follows v_in, the node
      // after the subtree.
      const NodeId thread_continue = old_rev_thread == v_in
                                         ? thread_[old_last_succ]
                                         : thread_[v_in];
      // Walk the stem u_in -> u_out. Each stem node's piece (its subtree
      // less the previous stem node's) is cut out of the old thread and
      // chained after the previous piece, so the pieces follow v_in in
      // stem order; parents along the stem reverse as we go.
      NodeId stem = u_in;
      NodeId par_stem = v_in;
      NodeId last = last_succ_[u_in];
      NodeId after = thread_[last];
      thread_[v_in] = u_in;
      s_.dirty.clear();
      s_.dirty.push_back(v_in);
      while (stem != u_out) {
        const NodeId next_stem = parent_[stem];
        thread_[last] = next_stem;
        s_.dirty.push_back(last);
        const NodeId before = rev_thread_[stem];
        thread_[before] = after;
        rev_thread_[after] = before;
        parent_[stem] = par_stem;
        par_stem = stem;
        stem = next_stem;
        // The next piece ends where the stem node's subtree does, or
        // just before the previous stem node when that subtree ended it.
        last = last_succ_[stem] == last_succ_[par_stem]
                   ? rev_thread_[par_stem]
                   : last_succ_[stem];
        after = thread_[last];
      }
      parent_[u_out] = par_stem;
      thread_[last] = thread_continue;
      rev_thread_[thread_continue] = last;
      last_succ_[u_out] = last;
      // Close the gap the subtree left (already closed when it followed
      // v_in).
      if (old_rev_thread != v_in) {
        thread_[old_rev_thread] = after;
        rev_thread_[after] = old_rev_thread;
      }
      for (const NodeId u : s_.dirty) rev_thread_[thread_[u]] = u;

      // Stem nodes from u_out down to u_in take the pred arc of the node
      // that is now their parent, reversed, and the sizes and last node
      // of their new subtrees.
      NodeId size = 0;
      const NodeId stem_last = last_succ_[u_out];
      for (NodeId u = u_out, p = parent_[u]; u != u_in;
           u = p, p = parent_[u]) {
        pred_[u] = pred_[p];
        pred_dir_[u] = static_cast<signed char>(-pred_dir_[p]);
        size += succ_num_[u] - succ_num_[p];
        succ_num_[u] = size;
        last_succ_[p] = stem_last;
      }
      succ_num_[u_in] = old_succ_num;
    }
    pred_[u_in] = in_arc;
    pred_dir_[u_in] = u_in == tail_[in_arc] ? kUp : kDown;

    // last_succ above v_in: subtrees that ended at v_in now end where
    // the moved subtree does. Above v_out: subtrees that ended with the
    // moved subtree now end just before it, or where the moved subtree
    // ends when it went back in the same place. Neither walk passes the
    // join when the v_in walk already rewrote it.
    const NodeId up_limit_out =
        last_succ_[join] == v_in ? join : kInvalidNode;
    const NodeId last_succ_out = last_succ_[u_out];
    for (NodeId u = v_in; u != kInvalidNode && last_succ_[u] == v_in;
         u = parent_[u]) {
      last_succ_[u] = last_succ_out;
    }
    if (join != old_rev_thread && v_in != old_rev_thread) {
      for (NodeId u = v_out;
           u != up_limit_out && last_succ_[u] == old_last_succ;
           u = parent_[u]) {
        last_succ_[u] = old_rev_thread;
      }
    } else if (last_succ_out != old_last_succ) {
      for (NodeId u = v_out;
           u != up_limit_out && last_succ_[u] == old_last_succ;
           u = parent_[u]) {
        last_succ_[u] = last_succ_out;
      }
    }

    for (NodeId u = v_in; u != join; u = parent_[u]) {
      succ_num_[u] += old_succ_num;
    }
    for (NodeId u = v_out; u != join; u = parent_[u]) {
      succ_num_[u] -= old_succ_num;
    }
  }

  /// The first broken tree invariant, or "": thread is a preorder of
  /// the parent tree, succ_num and last_succ agree with it, pred and
  /// pred_dir name the tree arc to the parent, every tree arc is tight,
  /// every non-tree arc sits at the bound its state names, and the tree
  /// is strongly feasible (every node can send flow up to the root).
  std::string check_tree() const {
    const NodeId nodes = root_ + 1;
    const auto un = static_cast<std::size_t>(nodes);
    std::vector<NodeId> pos(un, kInvalidNode);
    std::vector<NodeId> order;
    NodeId u = root_;
    do {
      if (u < 0 || u >= nodes || pos[static_cast<std::size_t>(u)] >= 0) {
        return "thread is not one cycle through every node";
      }
      if (rev_thread_[thread_[u]] != u) {
        return "rev_thread is not the inverse of thread";
      }
      pos[static_cast<std::size_t>(u)] = static_cast<NodeId>(order.size());
      order.push_back(u);
      u = thread_[u];
    } while (u != root_);
    if (order.size() != un) return "thread misses a node";

    // Subtree sizes summed children first, which is valid once every
    // parent precedes its children.
    std::vector<NodeId> size(un, 1);
    for (std::size_t i = un; i-- > 1;) {
      const NodeId v = order[i];
      const NodeId p = parent_[v];
      if (p < 0 || p >= nodes || pos[static_cast<std::size_t>(p)] >=
                                     pos[static_cast<std::size_t>(v)]) {
        return "node " + std::to_string(v) + " precedes its parent";
      }
      size[static_cast<std::size_t>(p)] += size[static_cast<std::size_t>(v)];
    }
    // With every subtree inside its parent's thread range, each one is
    // contiguous and the thread is a preorder.
    for (NodeId v = 0; v < nodes; ++v) {
      const auto iv = static_cast<std::size_t>(v);
      const NodeId end = pos[iv] + size[iv];
      if (v != root_) {
        const auto ip = static_cast<std::size_t>(parent_[v]);
        if (end > pos[ip] + size[ip] || end > nodes) {
          return "subtree of node " + std::to_string(v) +
                 " is not contiguous";
        }
      }
      if (succ_num_[v] != size[iv]) {
        return "succ_num is wrong at node " + std::to_string(v);
      }
      if (order[static_cast<std::size_t>(end - 1)] != last_succ_[v]) {
        return "last_succ is wrong at node " + std::to_string(v);
      }
    }
    for (NodeId v = 0; v < root_; ++v) {
      const NodeId p = parent_[v];
      const ArcId t = pred_[v];
      const bool up = pred_dir_[v] == kUp;
      if (t < 0 || t >= real_arcs_ + root_ || state_[t] != kTree ||
          tail_[t] != (up ? v : p) || head_[t] != (up ? p : v)) {
        return "pred of node " + std::to_string(v) + " is not its tree arc";
      }
      if (reduced_cost(t) != 0) {
        return "tree arc " + std::to_string(t) + " is not tight";
      }
      if (flow_[t] < 0 || flow_[t] > cap_[t]) {
        return "tree arc " + std::to_string(t) + " leaves its bounds";
      }
      if (up ? flow_[t] == cap_[t] : flow_[t] == 0) {
        return "node " + std::to_string(v) + " cannot send flow to the root";
      }
    }
    NodeId tree_arcs = 0;
    for (ArcId a = 0; a < real_arcs_ + root_; ++a) {
      if (state_[a] == kTree) {
        ++tree_arcs;
      } else if (flow_[a] != (state_[a] == kLower ? 0 : cap_[a])) {
        return "non-tree arc " + std::to_string(a) + " is off its bound";
      }
    }
    if (tree_arcs != root_) return "the tree does not have one arc per node";
    return {};
  }

  SimplexScratch& s_;
  ArcId real_arcs_;
  NodeId root_;
  SimplexStart start_ = SimplexStart::kArtificial;
  std::size_t list_size_ = 0;
  std::size_t minor_limit_ = 0;
  std::size_t minor_left_ = 0;
  std::size_t scan_start_ = 0;
  NodeId* tail_ = nullptr;
  NodeId* head_ = nullptr;
  Flow* cap_ = nullptr;
  Cost* cost_ = nullptr;
  Flow* flow_ = nullptr;
  signed char* state_ = nullptr;
  NodeId* parent_ = nullptr;
  ArcId* pred_ = nullptr;
  signed char* pred_dir_ = nullptr;
  NodeId* thread_ = nullptr;
  NodeId* rev_thread_ = nullptr;
  NodeId* succ_num_ = nullptr;
  NodeId* last_succ_ = nullptr;
  Cost* pi_ = nullptr;
};

FlowSolution run(const Graph& g, SolveGuard* guard, SolverWorkspace& w,
                 std::string* tree_violation) {
  if (g.total_supply() != 0) return {};
  ++w.counters.solves;
  Cost big_m = 0;
  if (!artificial_cost(g, big_m)) {
    FlowSolution refused;
    refused.status = SolveStatus::kBadInstance;
    refused.message =
        "network-simplex: the artificial arc cost, max |cost| * (nodes + "
        "2) + 1, exceeds the overflow-safe magnitude kInfCost";
    return refused;
  }
  NetworkSimplex simplex(g, big_m, guard, w.simplex);
  return simplex.run(g, guard, w.counters, tree_violation);
}

}  // namespace

SimplexStart simplex_start(const Graph& g, SolverWorkspace& w) {
  Cost big_m = 0;
  if (g.total_supply() != 0 || !artificial_cost(g, big_m)) {
    return SimplexStart::kArtificial;
  }
  return NetworkSimplex(g, big_m, nullptr, w.simplex).start();
}

FlowSolution run_network_simplex(const Graph& g, SolveGuard* guard,
                                 SolverWorkspace& w) {
  return run(g, guard, w, nullptr);
}

std::string check_simplex_tree(const Graph& g, SolverWorkspace& w,
                               FlowSolution& sol) {
  std::string violation;
  sol = run(g, nullptr, w, &violation);
  return violation;
}

}  // namespace lera::netflow::internal
