#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "netflow/internal_solvers.hpp"
#include "netflow/netflow.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_gen.hpp"

// The sparse hub encoding against the paper's dense graph. The hub chain
// admits paths the dense graph lacks (a variable spilled and reloaded
// into the same register), so the two agree at the optimum, not path for
// path (DESIGN.md §4): same feasibility and a bit-equal flow cost on
// every instance, and the sparse optimum's model energy equals its
// replayed static energy. The benchmark blocks regenerated here also pin
// which backend the allocator's default picks on real allocation graphs.

namespace lera::alloc {
namespace {

/// A static-model instance: 2-16 variables, access period 1 or 2, and a
/// third of the seeds voltage-scaled. Every fifth seed bars one segment
/// in five from the register file, which must keep it on the dense
/// graph.
AllocationProblem differential_problem(std::uint64_t seed) {
  std::mt19937_64 shape(seed * 0x9e3779b97f4a7c15ull + 7);
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 2 + static_cast<int>(shape() % 15);
  lopts.num_steps = 4 + static_cast<int>(shape() % 16);
  lopts.max_reads = 1 + static_cast<int>(shape() % 2);
  lopts.live_out_prob = 0.2;
  energy::EnergyParams params;
  if (seed % 3 == 0) {
    static constexpr double kVolts[] = {3.3, 4.0, 5.0};
    params.v_mem = kVolts[shape() % 3];
    params.v_reg = kVolts[shape() % 3] - 1.0;
  }
  lifetime::SplitOptions split;
  split.access.period = 1 + static_cast<int>(seed % 2);
  split.access.phase = static_cast<int>(shape() % 2) % split.access.period;
  std::vector<lifetime::Lifetime> lifetimes =
      workloads::random_lifetimes(seed, lopts);
  const std::size_t n = lifetimes.size();
  AllocationProblem p = make_problem(std::move(lifetimes), lopts.num_steps,
                                     1, params, energy::ActivityMatrix(n),
                                     split);
  if (seed % 5 == 4) {
    for (std::size_t i = 0; i < p.segments.size(); i += 5) {
      p.segments[i].forbidden_register = !p.segments[i].forced_register;
    }
  }
  return p;
}

TEST(SparseGraph, MatchesTheDenseGraphOn750Seeds) {
  int sparse_problems = 0;
  int barred_problems = 0;
  int solves = 0;
  for (std::uint64_t seed = 1; seed <= 750; ++seed) {
    AllocationProblem p = differential_problem(seed);
    const bool barred = std::any_of(
        p.segments.begin(), p.segments.end(),
        [](const lifetime::Segment& s) { return s.forbidden_register; });
    EXPECT_EQ(uses_sparse_encoding(p), !barred) << "seed " << seed;
    ++(barred ? barred_problems : sparse_problems);
    // Every R from 1 to the peak, through allocate_sweep (one graph
    // built for the largest R) against one dense graph built likewise.
    std::vector<int> registers(static_cast<std::size_t>(
        std::max(1, p.max_density())));
    std::iota(registers.begin(), registers.end(), 1);
    p.num_registers = registers.back();
    for (auto style : {GraphStyle::kDensityRegions, GraphStyle::kAllPairs}) {
      AllocatorOptions opts;
      opts.style = style;
      opts.certify = true;
      const std::vector<AllocationResult> sweep =
          allocate_sweep(p, registers, opts);
      const FlowGraphSpec dense_spec =
          build_dense_flow_graph(p, style, opts.quantizer);
      for (std::size_t i = 0; i < registers.size(); ++i) {
        const int r = registers[i];
        p.num_registers = r;
        const AllocationResult& sparse = sweep[i];
        const AllocationResult dense =
            allocate_with_spec(p, dense_spec, opts);
        ++solves;
        ASSERT_EQ(sparse.feasible, dense.feasible)
            << "seed " << seed << " R=" << r << ": " << sparse.message
            << " / " << dense.message;
        if (!sparse.feasible) continue;
        ASSERT_EQ(sparse.flow_cost, dense.flow_cost)
            << "seed " << seed << " R=" << r;
        EXPECT_EQ(sparse.model_energy, dense.model_energy);
        const double replayed = sparse.static_energy.total();
        EXPECT_NEAR(sparse.model_energy, replayed,
                    1e-3 + 1e-9 * std::abs(replayed))
            << "seed " << seed << " R=" << r;
      }
      p.num_registers = registers.back();
    }
  }
  EXPECT_GE(sparse_problems, 550);
  EXPECT_GE(barred_problems, 100);
  EXPECT_GT(solves, 2500);
}

/// Fails unless \p r's stats and energies, which finish_result fills
/// from one walk over the storage events, equal the separate
/// count_accesses and evaluate_energy calls bit for bit.
void expect_one_walk_matches_separate_calls(const AllocationProblem& p,
                                            const AllocationResult& r,
                                            const std::string& label) {
  const AccessStats stats = count_accesses(p, r.assignment);
  EXPECT_EQ(r.stats.mem_reads, stats.mem_reads) << label;
  EXPECT_EQ(r.stats.mem_writes, stats.mem_writes) << label;
  EXPECT_EQ(r.stats.reg_reads, stats.reg_reads) << label;
  EXPECT_EQ(r.stats.reg_writes, stats.reg_writes) << label;
  EXPECT_EQ(r.stats.mem_read_ports, stats.mem_read_ports) << label;
  EXPECT_EQ(r.stats.mem_write_ports, stats.mem_write_ports) << label;
  EXPECT_EQ(r.stats.reg_read_ports, stats.reg_read_ports) << label;
  EXPECT_EQ(r.stats.reg_write_ports, stats.reg_write_ports) << label;
  EXPECT_EQ(r.stats.mem_locations, stats.mem_locations) << label;
  const EnergyBreakdown static_energy =
      evaluate_energy(p, r.assignment, energy::RegisterModel::kStatic);
  const EnergyBreakdown activity_energy =
      evaluate_energy(p, r.assignment, energy::RegisterModel::kActivity);
  EXPECT_EQ(r.static_energy.memory, static_energy.memory) << label;
  EXPECT_EQ(r.static_energy.register_file, static_energy.register_file)
      << label;
  EXPECT_EQ(r.activity_energy.memory, activity_energy.memory) << label;
  EXPECT_EQ(r.activity_energy.register_file, activity_energy.register_file)
      << label;
}

// finish_result walks the storage events once for the access counts and
// both register models' energies. On the 750 differential problems at
// R = peak/2 and on the DSP kernel suite with measured activities at R
// = 4, each allocated under both register models, it must equal the
// separate calls bit for bit.
TEST(SparseGraph, FinishResultMatchesTheSeparateEvaluations) {
  int checked = 0;
  for (const auto model :
       {energy::RegisterModel::kStatic, energy::RegisterModel::kActivity}) {
    for (std::uint64_t seed = 1; seed <= 750; ++seed) {
      AllocationProblem p = differential_problem(seed);
      p.num_registers = std::max(1, p.max_density() / 2);
      p.params.register_model = model;
      const AllocationResult r = allocate(p);
      if (!r.feasible) continue;
      ++checked;
      expect_one_walk_matches_separate_calls(p, r,
                                             "seed " + std::to_string(seed));
    }
    for (const ir::BasicBlock& bb :
         {workloads::make_fir(8), workloads::make_iir_biquad(),
          workloads::make_elliptic_wave_filter(),
          workloads::make_fft_butterfly(), workloads::make_dct4(),
          workloads::make_fft(8), workloads::make_matmul(3),
          workloads::make_conv3x3(), workloads::make_lattice(4),
          workloads::make_lms(4), workloads::make_viterbi_acs(),
          workloads::make_goertzel(4), workloads::make_rsp(6)}) {
      energy::EnergyParams params;
      params.register_model = model;
      const AllocationProblem p = make_problem_from_block(
          bb, sched::list_schedule(bb, {2, 2}), 4, params,
          workloads::random_inputs(bb, 16, 3));
      const AllocationResult r = allocate(p);
      ASSERT_TRUE(r.feasible) << bb.name() << ": " << r.message;
      ++checked;
      expect_one_walk_matches_separate_calls(p, r, bb.name());
    }
  }
  EXPECT_GT(checked, 1100);
}

/// The compile-large benchmark's 12 blocks (128-1024 variables, R =
/// vars/8, default energies), and the optimal flow cost of each block's
/// dense density-region graph.
struct CompileBlock {
  int vars;
  int index;  ///< Among the blocks of its size.
  netflow::Cost dense_cost;
};
constexpr CompileBlock kCompileBlocks[] = {
    {128, 0, -1260000000},    {128, 1, -1274000000},
    {256, 0, -2673000000},    {256, 1, -2619000000},
    {512, 0, -5748000000},    {512, 1, -5825000000},
    {512, 2, -5830000000},    {512, 3, -5833000000},
    {1024, 0, -12354000000},  {1024, 1, -12041000000},
    {1024, 2, -12379000000},  {1024, 3, -11989000000},
};

AllocationProblem compile_block(const CompileBlock& b) {
  static constexpr int kSizes[] = {128, 256, 512, 1024};
  const auto size_class = static_cast<std::uint64_t>(
      std::find(std::begin(kSizes), std::end(kSizes), b.vars) -
      std::begin(kSizes));
  // The benchmark's block seed: splitmix64 of 64 + 16 * class + index.
  std::uint64_t x =
      64 + size_class * 16 + static_cast<std::uint64_t>(b.index);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = b.vars;
  lopts.num_steps = b.vars / 2;
  return make_problem(workloads::random_lifetimes(x, lopts), lopts.num_steps,
                      b.vars / 8, energy::EnergyParams{},
                      energy::ActivityMatrix(static_cast<std::size_t>(b.vars)));
}

TEST(SparseGraph, CompileLargeBlocksMatchTheDenseOptimumUnderEveryBackend) {
  for (const CompileBlock& b : kCompileBlocks) {
    const AllocationProblem p = compile_block(b);
    ASSERT_TRUE(uses_sparse_encoding(p));
    const FlowGraphSpec spec =
        build_flow_graph(p, GraphStyle::kDensityRegions);
    std::int64_t cuts = 0;
    for (std::size_t i = 0; i + 1 < p.segments.size(); ++i) {
      cuts += p.segments[i].var == p.segments[i + 1].var ? 1 : 0;
    }
    const auto idle = std::count_if(
        spec.arc_info.begin(), spec.arc_info.end(),
        [](const FlowGraphSpec::ArcInfo& a) {
          return a.kind == ArcKind::kIdle;
        });
    const FlowGraphSize size = sparse_graph_size(
        static_cast<std::int64_t>(p.segments.size()), cuts,
        static_cast<std::int64_t>(spec.hub_time.size()), idle, true);
    EXPECT_EQ(spec.graph.num_nodes(), size.nodes) << b.vars << "/" << b.index;
    EXPECT_EQ(spec.graph.num_arcs(), size.arcs) << b.vars << "/" << b.index;
    if (b.vars == 1024 && b.index == 3) {
      // perfbench's traced compile-large request at seed 1.
      EXPECT_EQ(p.segments.size(), 1989u);
      EXPECT_EQ(spec.graph.num_nodes(), 1470);
      EXPECT_EQ(spec.graph.num_arcs(), 4423);
    }
    if (b.vars <= 256) {
      // Small enough to solve the dense graph here too, which pins the
      // table to the dense optimum.
      AllocatorOptions opts;
      opts.certify = true;
      const AllocationResult dense = allocate_with_spec(
          p, build_dense_flow_graph(p, opts.style), opts);
      EXPECT_EQ(dense.flow_cost, b.dense_cost) << b.vars << "/" << b.index;
    }
    for (netflow::SolverKind kind :
         {netflow::SolverKind::kSuccessiveShortestPaths,
          netflow::SolverKind::kNetworkSimplex}) {
      AllocatorOptions opts;
      opts.certify = true;
      opts.solve.chain = {kind};
      const AllocationResult r = allocate_with_spec(p, spec, opts);
      ASSERT_TRUE(r.feasible) << r.message;
      ASSERT_EQ(r.solve_diagnostics.attempts.size(), 1u);
      EXPECT_EQ(r.solve_diagnostics.attempts.front().solver, kind);
      EXPECT_EQ(r.flow_cost, b.dense_cost)
          << b.vars << "/" << b.index << " " << netflow::to_string(kind);
      EXPECT_TRUE(validate_assignment(p, r.assignment).empty());
      if (b.vars == 1024 && b.index == 3 &&
          kind == netflow::SolverKind::kNetworkSimplex) {
        // Pivot counts are exact: 13,383 from an all-big-M start with
        // every arc at zero, 9,516 from the saturated start, 1,952 from
        // the packing start.
        EXPECT_LE(r.solve_diagnostics.perf.simplex_pivots, 2000);
      }
    }
  }
}

/// \p p's allocation graph with the flow value R at s and t.
netflow::Graph st_graph(const AllocationProblem& p, const FlowGraphSpec& spec) {
  netflow::Graph g = spec.graph;
  g.add_supply(spec.s, p.num_registers);
  g.add_supply(spec.t, -p.num_registers);
  return g;
}

/// sum |b| over \p g's supplies, sum |b'| once every finite-capacity
/// negative-cost arc is saturated, and U, those arcs' total capacity.
struct StartImbalance {
  netflow::Flow before = 0;
  netflow::Flow after = 0;
  netflow::Flow saturated = 0;
};

StartImbalance start_imbalance(const netflow::Graph& g) {
  StartImbalance out;
  std::vector<netflow::Flow> b(static_cast<std::size_t>(g.num_nodes()));
  for (netflow::NodeId v = 0; v < g.num_nodes(); ++v) {
    b[static_cast<std::size_t>(v)] = g.supply(v);
    out.before += std::abs(g.supply(v));
  }
  for (netflow::ArcId a = 0; a < g.num_arcs(); ++a) {
    const netflow::Arc& arc = g.arc(a);
    if (arc.cost >= 0 || arc.upper >= netflow::kInfFlow) continue;
    b[static_cast<std::size_t>(arc.tail)] -= arc.upper;
    b[static_cast<std::size_t>(arc.head)] += arc.upper;
    out.saturated += arc.upper;
  }
  for (const netflow::Flow x : b) out.after += std::abs(x);
  return out;
}

// The simplex starts from a path packing where its start test keeps
// the saturated start, the negative segment arcs chaining through cut
// nodes, and the instance has one source and one sink: every
// compile-large block. Where the dense graph's negative transitions do
// not chain (dense activity blocks of 64-512 variables at R = 1, peak/2
// and peak), the test drops the saturated start and the gate stays
// shut.
TEST(SparseGraph, SimplexPacksSparseBlocksOnly) {
  netflow::SolverWorkspace ws;
  for (const CompileBlock& b : kCompileBlocks) {
    const AllocationProblem p = compile_block(b);
    const netflow::Graph g =
        st_graph(p, build_flow_graph(p, GraphStyle::kDensityRegions));
    ASSERT_FALSE(g.has_lower_bounds());
    EXPECT_EQ(netflow::internal::simplex_start(g, ws),
              netflow::internal::SimplexStart::kPacked)
        << b.vars << "/" << b.index;
    const StartImbalance imbalance = start_imbalance(g);
    EXPECT_LE(imbalance.after - imbalance.before, imbalance.saturated);
    if (b.vars == 1024 && b.index == 3) {
      EXPECT_EQ(imbalance.before, 256);
      EXPECT_EQ(imbalance.after, 1362);
      EXPECT_EQ(imbalance.saturated, 1989);
    }
  }
  energy::EnergyParams activity;
  activity.register_model = energy::RegisterModel::kActivity;
  for (const int vars : {64, 128, 256, 512}) {
    workloads::RandomLifetimeOptions lopts;
    lopts.num_vars = vars;
    lopts.num_steps = vars / 2;
    AllocationProblem p = make_problem(
        workloads::random_lifetimes(11, lopts), lopts.num_steps, 1, activity,
        workloads::random_activity(12, static_cast<std::size_t>(vars)));
    ASSERT_FALSE(uses_sparse_encoding(p));
    const FlowGraphSpec spec = build_flow_graph(p, GraphStyle::kDensityRegions);
    const int peak = p.max_density();
    for (const int r : {1, std::max(1, peak / 2), peak}) {
      p.num_registers = r;
      const netflow::Graph g = st_graph(p, spec);
      ASSERT_FALSE(g.has_lower_bounds());
      EXPECT_EQ(netflow::internal::simplex_start(g, ws),
                netflow::internal::SimplexStart::kArtificial)
          << vars << " R=" << r;
      const StartImbalance imbalance = start_imbalance(g);
      EXPECT_GT(imbalance.after - imbalance.before, imbalance.saturated);
      if (vars == 512 && r == peak) {
        // bench_solvers' alloc_dense_peak.
        EXPECT_EQ(imbalance.before, 452);
        EXPECT_EQ(imbalance.after, 264980);
        EXPECT_EQ(imbalance.saturated, 132716);
      }
    }
  }
}

TEST(SparseGraph, NoOptimumSpillsAndReloadsAtOneCut) {
  // hub -> cut -> hub costs more than 0 (uses_sparse_encoding), so no
  // optimal flow, under either backend, sends a unit in through a cut's
  // enter arc and out through its leave arc: every unit through a cut
  // stays a register chain.
  int cuts_checked = 0;
  for (std::uint64_t seed = 1; seed <= 750; ++seed) {
    AllocationProblem p = differential_problem(seed);
    if (!uses_sparse_encoding(p)) continue;
    const int peak = std::max(1, p.max_density());
    p.num_registers = peak;
    for (auto style : {GraphStyle::kDensityRegions, GraphStyle::kAllPairs}) {
      const FlowGraphSpec spec = build_flow_graph(p, style);
      // Per cut node: its enter arc and its leave arc.
      std::vector<netflow::ArcId> enter(
          static_cast<std::size_t>(spec.graph.num_nodes()),
          netflow::kInvalidArc);
      std::vector<netflow::ArcId> leave = enter;
      for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
        const auto id = static_cast<netflow::ArcId>(a);
        if (spec.arc_info[a].kind == ArcKind::kEnter) {
          enter[static_cast<std::size_t>(spec.graph.arc(id).head)] = id;
        } else if (spec.arc_info[a].kind == ArcKind::kLeave) {
          leave[static_cast<std::size_t>(spec.graph.arc(id).tail)] = id;
        }
      }
      for (int r = 1; r <= peak; ++r) {
        netflow::Graph g = spec.graph;
        g.add_supply(spec.s, r);
        g.add_supply(spec.t, -r);
        for (netflow::SolverKind kind :
             {netflow::SolverKind::kSuccessiveShortestPaths,
              netflow::SolverKind::kNetworkSimplex}) {
          const netflow::FlowSolution sol = netflow::solve(g, kind);
          if (!sol.optimal()) continue;
          for (std::size_t v = 0; v < enter.size(); ++v) {
            if (enter[v] == netflow::kInvalidArc) continue;
            ASSERT_NE(leave[v], netflow::kInvalidArc);
            ++cuts_checked;
            EXPECT_FALSE(
                sol.arc_flow[static_cast<std::size_t>(enter[v])] > 0 &&
                sol.arc_flow[static_cast<std::size_t>(leave[v])] > 0)
                << "seed " << seed << " R=" << r << " "
                << netflow::to_string(kind);
          }
        }
      }
    }
  }
  EXPECT_GT(cuts_checked, 10000);
}

/// The backend kAuto picks for \p p's allocation graph, from the shape
/// solve_st_flow_robust measures (flow value R at s and t).
netflow::SolverKind auto_choice(const AllocationProblem& p) {
  return netflow::select_solver(netflow::measure_shape(
      st_graph(p, build_flow_graph(p, GraphStyle::kDensityRegions))));
}

TEST(AutoSelection, PicksByRegisterCountOnAllocationGraphs) {
  // The DSP kernel suite at the Engine's R = 4 under the activity model
  // with measured activities: SSP, end to end through the default.
  const ir::BasicBlock kernels[] = {
      workloads::make_fir(12),         workloads::make_iir_biquad(),
      workloads::make_elliptic_wave_filter(),
      workloads::make_fft(4),          workloads::make_dct4(),
      workloads::make_matmul(3),       workloads::make_conv3x3(),
      workloads::make_lattice(6),      workloads::make_lms(6),
      workloads::make_viterbi_acs(),   workloads::make_goertzel(8),
      workloads::make_rsp(4)};
  energy::EnergyParams activity;
  activity.register_model = energy::RegisterModel::kActivity;
  for (const ir::BasicBlock& bb : kernels) {
    const AllocationProblem p = make_problem_from_block(
        bb, sched::list_schedule(bb, sched::Resources{2, 1}), 4, activity,
        workloads::random_inputs(bb, 32, 7));
    const AllocationResult r = allocate(p);
    ASSERT_TRUE(r.feasible) << r.message;
    EXPECT_TRUE(r.solve_diagnostics.auto_selected);
    EXPECT_EQ(r.solve_diagnostics.solver_used,
              netflow::SolverKind::kSuccessiveShortestPaths)
        << r.solve_diagnostics.summary();
  }

  // A dense 512-variable activity graph at R = 1. The shape-based policy
  // calibrated on random flow graphs sent it to cost scaling, a backend
  // since removed (more than 65,536 arcs, supply below nodes/16).
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 512;
  lopts.num_steps = 256;
  const AllocationProblem dense = make_problem(
      workloads::random_lifetimes(11, lopts), lopts.num_steps, 1, activity,
      workloads::random_activity(12, 512));
  ASSERT_FALSE(uses_sparse_encoding(dense));
  EXPECT_EQ(auto_choice(dense), netflow::SolverKind::kSuccessiveShortestPaths);

  // compile-large's blocks (R = 16-128): the simplex, also end to end.
  for (const CompileBlock& b : kCompileBlocks) {
    const AllocationProblem p = compile_block(b);
    EXPECT_EQ(auto_choice(p), netflow::SolverKind::kNetworkSimplex)
        << b.vars << "/" << b.index;
  }
  const AllocationResult r = allocate(compile_block(kCompileBlocks[0]));
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.flow_cost, kCompileBlocks[0].dense_cost);
  EXPECT_EQ(r.solve_diagnostics.solver_used,
            netflow::SolverKind::kNetworkSimplex)
      << r.solve_diagnostics.summary();
}

/// The chain walk assignment_from_flow replaced, kept as the reference
/// for dense graphs: one register per flowed s arc, each following the
/// one flowed arc out of every r-node it reaches.
Assignment chain_walk(const AllocationProblem& p, const FlowGraphSpec& spec,
                      const std::vector<netflow::Flow>& arc_flow) {
  Assignment assignment(p.segments.size());
  int next_register = 0;
  for (netflow::ArcId a : spec.graph.out_arcs(spec.s)) {
    const FlowGraphSpec::ArcInfo& info =
        spec.arc_info[static_cast<std::size_t>(a)];
    if (info.kind == ArcKind::kBypass ||
        arc_flow[static_cast<std::size_t>(a)] == 0) {
      continue;
    }
    const int reg = next_register++;
    int seg = info.to_seg;
    for (;;) {
      assignment.assign_register(static_cast<std::size_t>(seg), reg);
      netflow::ArcId out = netflow::kInvalidArc;
      for (netflow::ArcId cand :
           spec.graph.out_arcs(spec.r_node[static_cast<std::size_t>(seg)])) {
        if (arc_flow[static_cast<std::size_t>(cand)] > 0) {
          out = cand;
          break;
        }
      }
      EXPECT_NE(out, netflow::kInvalidArc);
      if (out == netflow::kInvalidArc) return assignment;
      const FlowGraphSpec::ArcInfo& step =
          spec.arc_info[static_cast<std::size_t>(out)];
      if (step.kind == ArcKind::kToSink) break;
      seg = step.to_seg;
    }
  }
  return assignment;
}

TEST(SparseGraph, UnitWalkMatchesTheChainWalkOnDenseGraphs) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    AllocationProblem p = differential_problem(seed);
    if (seed % 2 == 0) {
      p.params.register_model = energy::RegisterModel::kActivity;
      p.activity = workloads::random_activity(seed, p.lifetimes.size());
    }
    p.num_registers = 1 + static_cast<int>(seed % 4);
    const FlowGraphSpec spec =
        build_dense_flow_graph(p, GraphStyle::kDensityRegions);
    const netflow::FlowSolution sol = netflow::solve_st_flow_robust(
        spec.graph, spec.s, spec.t, p.num_registers);
    if (!sol.optimal()) continue;
    const Assignment walked = assignment_from_flow(p, spec, sol.arc_flow);
    const Assignment reference = chain_walk(p, spec, sol.arc_flow);
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      ASSERT_EQ(walked.location(s), reference.location(s))
          << "seed " << seed << " segment " << s;
    }
  }
}

TEST(SparseGraph, UnitWalkNumbersRegistersWithoutGaps) {
  // Units that idle along the hub chain or take the bypass cross no
  // segment and take no register id.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    AllocationProblem p = differential_problem(seed);
    p.num_registers = std::max(1, p.max_density()) + 2;
    if (!uses_sparse_encoding(p)) continue;
    const AllocationResult r = allocate(p);
    ASSERT_TRUE(r.feasible) << r.message;
    int highest = -1;
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      highest = std::max(highest, r.assignment.location(s));
    }
    EXPECT_EQ(highest + 1, r.registers_used) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lera::alloc
