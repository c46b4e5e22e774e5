#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "alloc/flow_graph.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_gen.hpp"

namespace lera::alloc {
namespace {

using lifetime::Lifetime;

Lifetime lt(const char* name, int w, int r) {
  Lifetime out;
  out.value = 0;
  out.name = name;
  out.write_time = w;
  out.read_times = {r};
  return out;
}

AllocationProblem tiny_problem(energy::RegisterModel model =
                                   energy::RegisterModel::kStatic) {
  energy::EnergyParams params;
  params.register_model = model;
  // v0 = [1,3], v1 = [3,5]: sequential, max density 1 everywhere.
  return make_problem({lt("v0", 1, 3), lt("v1", 3, 5)}, 5, 1, params,
                      energy::ActivityMatrix(2, 0.25, 0.5));
}

std::map<ArcKind, int> count_kinds(const FlowGraphSpec& spec) {
  std::map<ArcKind, int> counts;
  for (const auto& info : spec.arc_info) ++counts[info.kind];
  return counts;
}

netflow::ArcId find_arc(const FlowGraphSpec& spec, ArcKind kind, int from,
                        int to) {
  for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
    const auto& info = spec.arc_info[a];
    if (info.kind == kind && info.from_seg == from && info.to_seg == to) {
      return static_cast<netflow::ArcId>(a);
    }
  }
  return netflow::kInvalidArc;
}

TEST(FlowGraph, TinyStructure) {
  const AllocationProblem p = tiny_problem();
  const FlowGraphSpec spec =
      build_dense_flow_graph(p, GraphStyle::kDensityRegions);
  // Nodes: s, t + 2 per segment.
  EXPECT_EQ(spec.graph.num_nodes(), 2 + 2 * 2);
  const auto kinds = count_kinds(spec);
  EXPECT_EQ(kinds.at(ArcKind::kSegment), 2);
  EXPECT_EQ(kinds.at(ArcKind::kTransition), 1);  // r(v0) -> w(v1) only.
  EXPECT_EQ(kinds.at(ArcKind::kBypass), 1);
  // v1 cannot start a register (idle would cross the peak at boundary 1
  // ... actually max density 1 holds everywhere alive; s->w(v1) idles
  // across boundaries 0..2 which include max-density boundaries 1,2.
  EXPECT_EQ(kinds.at(ArcKind::kFromSource), 1);
  EXPECT_EQ(kinds.at(ArcKind::kToSink), 1);
}

TEST(FlowGraph, AllPairsAddsIdleArcs) {
  const AllocationProblem p = tiny_problem();
  const FlowGraphSpec spec =
      build_dense_flow_graph(p, GraphStyle::kAllPairs);
  const auto kinds = count_kinds(spec);
  // All-pairs: both variables reachable from s, both reach t.
  EXPECT_EQ(kinds.at(ArcKind::kFromSource), 2);
  EXPECT_EQ(kinds.at(ArcKind::kToSink), 2);
}

TEST(FlowGraph, StaticCostAlgebra) {
  const AllocationProblem p = tiny_problem(energy::RegisterModel::kStatic);
  const energy::EnergyParams& e = p.params;
  const energy::Quantizer q;
  const FlowGraphSpec spec =
      build_dense_flow_graph(p, GraphStyle::kDensityRegions, q);

  // Segment arcs are free (eq. 3).
  const netflow::ArcId seg = find_arc(spec, ArcKind::kSegment, 0, 0);
  EXPECT_EQ(spec.graph.arc(seg).cost, 0);

  // s -> w(v0): enter at a definition = -E_w^m + E_w^r (eq. 4 terms).
  const netflow::ArcId src = find_arc(spec, ArcKind::kFromSource, -1, 0);
  ASSERT_NE(src, netflow::kInvalidArc);
  EXPECT_EQ(spec.graph.arc(src).cost,
            q.quantize(-e.e_mem_write() + e.e_reg_write()));

  // r(v0) -> w(v1): death-read leave + def enter (eq. 4).
  const netflow::ArcId trans = find_arc(spec, ArcKind::kTransition, 0, 1);
  ASSERT_NE(trans, netflow::kInvalidArc);
  EXPECT_EQ(spec.graph.arc(trans).cost,
            q.quantize(-e.e_mem_read() + e.e_reg_read() - e.e_mem_write() +
                       e.e_reg_write()));

  // r(v1) -> t: death-read leave only.
  const netflow::ArcId sink = find_arc(spec, ArcKind::kToSink, 1, -1);
  ASSERT_NE(sink, netflow::kInvalidArc);
  EXPECT_EQ(spec.graph.arc(sink).cost,
            q.quantize(-e.e_mem_read() + e.e_reg_read()));

  // Base: both variables charged one write + one read to memory.
  EXPECT_DOUBLE_EQ(spec.base_energy,
                   2 * (e.e_mem_write() + e.e_mem_read()));
}

TEST(FlowGraph, ActivityCostUsesHamming) {
  const AllocationProblem p =
      tiny_problem(energy::RegisterModel::kActivity);
  const energy::EnergyParams& e = p.params;
  const energy::Quantizer q;
  const FlowGraphSpec spec =
      build_flow_graph(p, GraphStyle::kDensityRegions, q);

  // Transition carries H(v0,v1) * swing = 0.25 * 2.0 (eq. 5).
  const netflow::ArcId trans = find_arc(spec, ArcKind::kTransition, 0, 1);
  EXPECT_EQ(spec.graph.arc(trans).cost,
            q.quantize(-e.e_mem_read() - e.e_mem_write() +
                       e.e_reg_transition(0.25)));
  // Source arc charges the initial write activity (0.5).
  const netflow::ArcId src = find_arc(spec, ArcKind::kFromSource, -1, 0);
  EXPECT_EQ(spec.graph.arc(src).cost,
            q.quantize(-e.e_mem_write() + e.e_reg_transition(0.5)));
}

TEST(FlowGraph, Figure3DensityGraphMatchesPaperArcList) {
  // The reconstruction's whole point: the six listed transitions are
  // exactly the arcs of the density-region construction.
  const AllocationProblem p = workloads::figure3_problem();
  const FlowGraphSpec spec =
      build_dense_flow_graph(p, GraphStyle::kDensityRegions);

  std::set<std::pair<std::string, std::string>> transitions;
  for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
    const auto& info = spec.arc_info[a];
    if (info.kind != ArcKind::kTransition) continue;
    transitions.insert(
        {p.lifetimes[static_cast<std::size_t>(
             p.segments[static_cast<std::size_t>(info.from_seg)].var)].name,
         p.lifetimes[static_cast<std::size_t>(
             p.segments[static_cast<std::size_t>(info.to_seg)].var)].name});
  }
  const std::set<std::pair<std::string, std::string>> expected = {
      {"a", "b"}, {"a", "f"}, {"e", "b"},
      {"e", "f"}, {"b", "c"}, {"d", "e"},
  };
  EXPECT_EQ(transitions, expected);
}

TEST(FlowGraph, ForcedSegmentsGetLowerBounds) {
  energy::EnergyParams params;
  lifetime::SplitOptions split;
  split.access.period = 2;
  split.access.phase = 1;
  // v = [2,4]: starts and ends at even (disallowed) steps -> forced.
  AllocationProblem p =
      make_problem({lt("v", 2, 4)}, 6, 1, params,
                   energy::ActivityMatrix(1), split);
  const FlowGraphSpec spec =
      build_flow_graph(p, GraphStyle::kDensityRegions);
  int forced_arcs = 0;
  for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
    if (spec.arc_info[a].kind == ArcKind::kSegment &&
        spec.graph.arc(static_cast<netflow::ArcId>(a)).lower == 1) {
      ++forced_arcs;
    }
  }
  EXPECT_GT(forced_arcs, 0);
  EXPECT_TRUE(spec.graph.has_lower_bounds());
}

TEST(FlowGraph, ChainArcsConnectSplitLifetimes) {
  energy::EnergyParams params;
  Lifetime v;
  v.value = 0;
  v.name = "v";
  v.write_time = 1;
  v.read_times = {3, 5, 8};
  AllocationProblem p = make_problem({v}, 8, 1, params,
                                     energy::ActivityMatrix(1));
  ASSERT_EQ(p.segments.size(), 3u);
  const energy::EnergyParams& e = p.params;
  const energy::Quantizer q;
  // Eq. (9): staying in the register across an interior read saves the
  // memory read (plus the static register read for serving the
  // consumer).
  const netflow::Cost chain = q.quantize(-e.e_mem_read() + e.e_reg_read());
  const FlowGraphSpec dense =
      build_dense_flow_graph(p, GraphStyle::kDensityRegions, q);
  for (int i : {0, 1}) {
    const netflow::ArcId arc = find_arc(dense, ArcKind::kChain, i, i + 1);
    ASSERT_NE(arc, netflow::kInvalidArc);
    EXPECT_EQ(dense.graph.arc(arc).cost, chain);
  }
  // Base charges one write + three reads.
  EXPECT_DOUBLE_EQ(dense.base_energy,
                   e.e_mem_write() + 3 * e.e_mem_read());

  // The sparse graph has no chain arcs: consecutive segments share the
  // cut node between them, and the segment arc into a cut carries the
  // chain cost (the first one also pays for entering at the definition).
  const FlowGraphSpec sparse =
      build_flow_graph(p, GraphStyle::kDensityRegions, q);
  ASSERT_FALSE(sparse.hub_node.empty());
  EXPECT_EQ(count_kinds(sparse).count(ArcKind::kChain), 0u);
  EXPECT_EQ(sparse.r_node[0], sparse.w_node[1]);
  EXPECT_EQ(sparse.r_node[1], sparse.w_node[2]);
  const netflow::ArcId middle = find_arc(sparse, ArcKind::kSegment, 1, 1);
  ASSERT_NE(middle, netflow::kInvalidArc);
  EXPECT_EQ(sparse.graph.arc(middle).head, sparse.r_node[1]);
  EXPECT_EQ(sparse.graph.arc(middle).cost, chain);
  const netflow::ArcId first = find_arc(sparse, ArcKind::kSegment, 0, 0);
  ASSERT_NE(first, netflow::kInvalidArc);
  EXPECT_EQ(sparse.graph.arc(first).cost,
            q.quantize(-e.e_mem_write() + e.e_reg_write()) + chain);
  EXPECT_DOUBLE_EQ(sparse.base_energy, dense.base_energy);
}

TEST(FlowGraph, BypassCapacityEqualsRegisters) {
  AllocationProblem p = tiny_problem();
  p.num_registers = 7;
  const FlowGraphSpec spec =
      build_flow_graph(p, GraphStyle::kDensityRegions);
  for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
    if (spec.arc_info[a].kind == ArcKind::kBypass) {
      EXPECT_EQ(spec.graph.arc(static_cast<netflow::ArcId>(a)).upper, 7);
    }
  }
}

// ---------------------------------------------------------------------
// The sparse hub encoding

/// A static-model problem with every cut kind: interior reads, deaths,
/// definitions and (period > 1) access-time boundaries.
AllocationProblem random_static_problem(std::uint64_t seed, int period) {
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 6 + static_cast<int>(seed % 7);
  lopts.num_steps = 10;
  lopts.max_reads = 2;
  lifetime::SplitOptions split;
  split.access.period = period;
  const std::size_t n = static_cast<std::size_t>(lopts.num_vars);
  return make_problem(workloads::random_lifetimes(seed, lopts),
                      lopts.num_steps, 2, energy::EnergyParams{},
                      energy::ActivityMatrix(n), split);
}

int count_of(const std::map<ArcKind, int>& kinds, ArcKind kind) {
  const auto it = kinds.find(kind);
  return it == kinds.end() ? 0 : it->second;
}

/// Places where two consecutive segments of one variable meet.
int count_cuts(const AllocationProblem& p) {
  int cuts = 0;
  for (std::size_t i = 0; i + 1 < p.segments.size(); ++i) {
    if (p.segments[i].var == p.segments[i + 1].var) ++cuts;
  }
  return cuts;
}

TEST(FlowGraph, SparseEncodingIsLinear) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AllocationProblem p = random_static_problem(seed, 1 + seed % 2);
    ASSERT_TRUE(uses_sparse_encoding(p));
    const auto s = static_cast<std::int64_t>(p.segments.size());
    const int cuts = count_cuts(p);
    for (auto style : {GraphStyle::kDensityRegions, GraphStyle::kAllPairs}) {
      const FlowGraphSpec spec = build_flow_graph(p, style);
      ASSERT_FALSE(spec.hub_node.empty());
      const auto hubs = static_cast<std::int64_t>(spec.hub_time.size());
      const auto kinds = count_kinds(spec);
      const int idle = count_of(kinds, ArcKind::kIdle);
      if (style == GraphStyle::kAllPairs) {
        EXPECT_EQ(idle, hubs - 1);
      } else {
        EXPECT_LE(idle, hubs - 1);
      }
      const FlowGraphSize size =
          sparse_graph_size(s, cuts, hubs, idle, p.num_registers > 0);
      EXPECT_EQ(spec.graph.num_nodes(), size.nodes) << "seed " << seed;
      EXPECT_EQ(spec.graph.num_arcs(), size.arcs) << "seed " << seed;
      EXPECT_LE(size.nodes, 2 * s + 4);
      EXPECT_LE(size.arcs, 4 * s + 4);
      EXPECT_EQ(count_of(kinds, ArcKind::kTransition), 0);
      EXPECT_EQ(count_of(kinds, ArcKind::kChain), 0);
      EXPECT_EQ(count_of(kinds, ArcKind::kLeave), cuts);
      EXPECT_EQ(count_of(kinds, ArcKind::kEnter), cuts);
      EXPECT_TRUE(std::is_sorted(spec.hub_time.begin(), spec.hub_time.end()));
    }
  }
}

TEST(FlowGraph, LeavePlusEnterCostsSumToDenseTransition) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AllocationProblem p = random_static_problem(seed, 1 + seed % 3);
    const FlowGraphSpec sparse =
        build_flow_graph(p, GraphStyle::kAllPairs);
    const FlowGraphSpec dense =
        build_dense_flow_graph(p, GraphStyle::kAllPairs);
    ASSERT_FALSE(sparse.hub_node.empty());
    const std::size_t n = p.segments.size();
    const auto first = [&](std::size_t i) {
      return i == 0 || p.segments[i - 1].var != p.segments[i].var;
    };
    const auto last = [&](std::size_t i) {
      return i + 1 == n || p.segments[i + 1].var != p.segments[i].var;
    };

    // Read off the sparse arcs: a register holding segment i pays
    // release(i) from w_i into the hub chain (its segment arc, then the
    // leave arc at a cut), and one taking segment j from the hub chain
    // pays take(j) up to r_j (the enter arc at a cut, then its segment
    // arc).
    std::vector<netflow::Cost> release(n, 0);
    std::vector<netflow::Cost> take(n, 0);
    for (std::size_t a = 0; a < sparse.arc_info.size(); ++a) {
      const auto& info = sparse.arc_info[a];
      const netflow::Cost cost =
          sparse.graph.arc(static_cast<netflow::ArcId>(a)).cost;
      if (info.kind == ArcKind::kSegment) {
        release[static_cast<std::size_t>(info.from_seg)] += cost;
        take[static_cast<std::size_t>(info.to_seg)] += cost;
      } else if (info.kind == ArcKind::kLeave) {
        release[static_cast<std::size_t>(info.from_seg)] += cost;
      } else if (info.kind == ArcKind::kEnter) {
        take[static_cast<std::size_t>(info.to_seg)] += cost;
      }
    }

    // The dense graph's segment arcs cost 0; it charges a first segment
    // its source arc on the way in, and every segment its chain arc, or
    // at the variable's death its sink arc, on the way out.
    std::vector<netflow::Cost> before(n, 0);
    std::vector<netflow::Cost> after(n, 0);
    for (std::size_t a = 0; a < dense.arc_info.size(); ++a) {
      const auto& info = dense.arc_info[a];
      const netflow::Cost cost =
          dense.graph.arc(static_cast<netflow::ArcId>(a)).cost;
      if (info.kind == ArcKind::kFromSource &&
          first(static_cast<std::size_t>(info.to_seg))) {
        before[static_cast<std::size_t>(info.to_seg)] = cost;
      } else if (info.kind == ArcKind::kChain ||
                 (info.kind == ArcKind::kToSink &&
                  last(static_cast<std::size_t>(info.from_seg)))) {
        after[static_cast<std::size_t>(info.from_seg)] = cost;
      }
    }

    int transitions = 0;
    for (std::size_t a = 0; a < dense.arc_info.size(); ++a) {
      const auto& info = dense.arc_info[a];
      const netflow::Cost cost =
          dense.graph.arc(static_cast<netflow::ArcId>(a)).cost;
      const auto from = static_cast<std::size_t>(info.from_seg);
      const auto to = static_cast<std::size_t>(info.to_seg);
      switch (info.kind) {
        case ArcKind::kTransition:
          ++transitions;
          EXPECT_EQ(release[from] + take[to],
                    before[from] + cost + after[to])
              << "seed " << seed << " " << from << " -> " << to;
          break;
        case ArcKind::kFromSource:
          EXPECT_EQ(take[to], cost + after[to]) << "seed " << seed;
          break;
        case ArcKind::kToSink:
          EXPECT_EQ(release[from], before[from] + cost) << "seed " << seed;
          break;
        default:
          break;
      }
    }
    EXPECT_GT(transitions, 0);
  }
}

TEST(FlowGraph, HubPathsExistExactlyWhereDenseArcsDo) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const AllocationProblem p = random_static_problem(seed, 1 + seed % 2);
    for (auto style : {GraphStyle::kDensityRegions, GraphStyle::kAllPairs}) {
      const FlowGraphSpec sparse = build_flow_graph(p, style);
      const FlowGraphSpec dense = build_dense_flow_graph(p, style);
      // Idle arcs only join consecutive hubs, so hub k reaches exactly
      // the hubs k..reach[k].
      const std::size_t hubs = sparse.hub_node.size();
      std::vector<bool> idle_from(hubs, false);
      for (std::size_t a = 0; a < sparse.arc_info.size(); ++a) {
        if (sparse.arc_info[a].kind != ArcKind::kIdle) continue;
        const netflow::Arc& arc =
            sparse.graph.arc(static_cast<netflow::ArcId>(a));
        const auto k = static_cast<std::size_t>(arc.tail -
                                                sparse.hub_node.front());
        ASSERT_EQ(arc.head, sparse.hub_node[k + 1]);
        idle_from[k] = true;
      }
      std::vector<std::size_t> reach(hubs);
      for (std::size_t k = hubs; k-- > 0;) {
        reach[k] = idle_from[k] ? reach[k + 1] : k;
      }
      const auto index = [&](int time) {
        return static_cast<std::size_t>(
            std::lower_bound(sparse.hub_time.begin(), sparse.hub_time.end(),
                             time) -
            sparse.hub_time.begin());
      };
      const auto path = [&](int from, int to) {
        return index(from) <= index(to) && index(to) <= reach[index(from)];
      };

      std::set<std::pair<int, int>> dense_arcs;
      for (const auto& info : dense.arc_info) {
        if (info.kind == ArcKind::kTransition ||
            info.kind == ArcKind::kFromSource ||
            info.kind == ArcKind::kToSink) {
          dense_arcs.insert({info.from_seg, info.to_seg});
        }
      }
      const int n = static_cast<int>(p.segments.size());
      const int last = p.num_steps + 1;
      for (int i = -1; i < n; ++i) {
        for (int j = -1; j < n; ++j) {
          if (i < 0 && j < 0) continue;
          const auto& from = p.segments[static_cast<std::size_t>(i < 0 ? 0 : i)];
          const auto& to = p.segments[static_cast<std::size_t>(j < 0 ? 0 : j)];
          if (i >= 0 && j >= 0 && from.var == to.var) continue;
          const bool hub_path =
              path(i < 0 ? 0 : from.end, j < 0 ? last : to.start);
          EXPECT_EQ(hub_path, dense_arcs.count({i, j}) == 1)
              << "seed " << seed << " arc " << i << " -> " << j;
        }
      }
    }
  }
}

TEST(FlowGraph, EncodingFollowsTheInput) {
  // The default static model separates: sparse.
  const AllocationProblem base = tiny_problem();
  EXPECT_TRUE(uses_sparse_encoding(base));
  EXPECT_FALSE(build_flow_graph(base, GraphStyle::kDensityRegions)
                   .hub_node.empty());

  // Activity model: transitions depend on both variables.
  const AllocationProblem activity =
      tiny_problem(energy::RegisterModel::kActivity);
  EXPECT_FALSE(uses_sparse_encoding(activity));
  EXPECT_TRUE(build_flow_graph(activity, GraphStyle::kDensityRegions)
                  .hub_node.empty());

  // A register-barred segment blocks the exchange argument.
  AllocationProblem barred = base;
  barred.segments[1].forbidden_register = true;
  EXPECT_FALSE(uses_sparse_encoding(barred));
  EXPECT_TRUE(build_flow_graph(barred, GraphStyle::kDensityRegions)
                  .hub_node.empty());

  // A register read dearer than a memory read (v_reg scaled up).
  AllocationProblem hot = base;
  hot.params.v_reg = 15.0;
  ASSERT_GT(hot.params.e_reg_read(), hot.params.e_mem_read());
  EXPECT_FALSE(uses_sparse_encoding(hot));

  // Free writes: e_mem_write + e_reg_write must be positive.
  AllocationProblem free_writes = base;
  free_writes.params.mem_write = 0;
  free_writes.params.reg_write = 0;
  EXPECT_FALSE(uses_sparse_encoding(free_writes));

  // A quantizer under which a transition's cost is not the sum of its
  // quantised halves: a boundary leave (10 units) plus a read entry
  // (1 unit) rounds to 4 ticks of 3, its halves to 3 + 0.
  EXPECT_TRUE(uses_sparse_encoding(base, energy::Quantizer(1.0)));
  EXPECT_FALSE(uses_sparse_encoding(base, energy::Quantizer(3.0)));
}

TEST(FlowGraph, NonPositiveCutCycleBuildsTheDenseGraph) {
  // Spilling and reloading a variable at one read cut (hub -> cut -> hub)
  // costs e_mem_write + e_reg_write. Here that is positive but quantises
  // to 0 ticks, so an optimum could take the cycle: the dense graph it
  // is.
  energy::EnergyParams params;
  params.mem_write = 1e-9;
  params.reg_write = 0;
  Lifetime v;
  v.value = 0;
  v.name = "v";
  v.write_time = 1;
  v.read_times = {3, 6};
  const AllocationProblem p =
      make_problem({v, lt("u", 2, 5)}, 7, 1, params,
                   energy::ActivityMatrix(2));
  const energy::Quantizer q;
  ASSERT_GT(p.params.e_mem_write() + p.params.e_reg_write(), 0);
  ASSERT_LE(p.params.e_reg_read(), p.params.e_mem_read());
  ASSERT_EQ(q.quantize(p.params.e_mem_write()) +
                q.quantize(p.params.e_reg_write()),
            0);
  EXPECT_FALSE(uses_sparse_encoding(p, q));
  const FlowGraphSpec spec = build_flow_graph(p, GraphStyle::kAllPairs, q);
  EXPECT_TRUE(spec.hub_node.empty());
  EXPECT_EQ(count_of(count_kinds(spec), ArcKind::kChain), 1);

  // A write one tick dearer makes the cycle positive again.
  AllocationProblem dearer = p;
  dearer.params.mem_write = 1.0;
  EXPECT_TRUE(uses_sparse_encoding(dearer, q));
}

}  // namespace
}  // namespace lera::alloc
