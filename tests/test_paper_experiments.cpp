#include <gtest/gtest.h>

#include "alloc/allocator.hpp"
#include "alloc/two_phase.hpp"
#include "energy/voltage.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_examples.hpp"

/// Integration tests pinning the *qualitative* outcomes of the paper's
/// evaluation (who wins, monotonicities, structural guarantees). The
/// bench binaries print the full tables; these tests keep the shapes
/// from regressing.

namespace lera {
namespace {

TEST(Figure3, SimultaneousImprovementInPaperRange) {
  for (auto model : {energy::RegisterModel::kStatic,
                     energy::RegisterModel::kActivity}) {
    energy::EnergyParams params;
    params.register_model = model;
    const alloc::AllocationProblem p = workloads::figure3_problem(params);
    const alloc::AllocationResult ours = alloc::allocate(p);
    const alloc::AllocationResult baseline = alloc::two_phase_allocate(p);
    ASSERT_TRUE(ours.feasible && baseline.feasible);
    const double improvement = baseline.energy(p) / ours.energy(p);
    // Paper: 1.4x (static) / 1.3x (activity). Accept the neighbourhood.
    EXPECT_GT(improvement, 1.2);
    EXPECT_LT(improvement, 1.7);
    // "fewer memory accesses as well".
    EXPECT_LT(ours.stats.mem_accesses(), baseline.stats.mem_accesses());
  }
}

TEST(Figure3, TwoPhaseSwitchingIs2Point4) {
  // The paper's stated optimum of previous research: chains {a,b,c} and
  // {d,e,f} with total switching activity 2.4 (0.5 assumed at time 0).
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  alloc::AllocationProblem p = workloads::figure3_problem(params);
  p.num_registers = 2;  // Keep both chains in registers.
  const alloc::AllocationResult r = alloc::two_phase_allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.stats.mem_accesses(), 0);
  // Total switching = activity energy / full swing.
  EXPECT_NEAR(r.activity_energy.total() / p.params.reg_full_swing, 2.4,
              1e-9);
}

TEST(Figure4, SimultaneousReachesMinimumAccesses) {
  workloads::Figure4Options opts;
  opts.params.register_model = energy::RegisterModel::kActivity;
  const alloc::AllocationProblem p = workloads::figure4_problem(opts);

  alloc::AllocatorOptions allpairs;
  allpairs.style = alloc::GraphStyle::kAllPairs;
  const alloc::AllocationResult fig4b = alloc::allocate(p, allpairs);
  const alloc::AllocationResult fig4a = alloc::two_phase_allocate(p);
  ASSERT_TRUE(fig4a.feasible && fig4b.feasible);
  EXPECT_LE(fig4b.stats.mem_accesses(), fig4a.stats.mem_accesses());
  EXPECT_LT(fig4b.energy(p), fig4a.energy(p));
  const double improvement = fig4a.energy(p) / fig4b.energy(p);
  EXPECT_GT(improvement, 1.2);  // Paper: 1.35x.
}

TEST(Figure4, SplitKeepsMinimumLocations) {
  workloads::Figure4Options opts;
  opts.params.register_model = energy::RegisterModel::kActivity;
  opts.split_f = true;
  const alloc::AllocationProblem p = workloads::figure4_problem(opts);
  const alloc::AllocationResult fig4c = alloc::allocate(p);
  ASSERT_TRUE(fig4c.feasible);
  // max density 2, R = 1 -> exactly one memory location.
  EXPECT_EQ(fig4c.stats.mem_locations, 1);
}

TEST(Figure4, DensityGraphHasNoPeakIdlingArcs) {
  workloads::Figure4Options opts;
  const alloc::AllocationProblem p = workloads::figure4_problem(opts);
  const alloc::FlowGraphSpec spec =
      alloc::build_dense_flow_graph(p, alloc::GraphStyle::kDensityRegions);
  for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
    const auto& info = spec.arc_info[a];
    int from = -1;
    int to = -1;
    if (info.kind == alloc::ArcKind::kTransition) {
      from = p.segments[static_cast<std::size_t>(info.from_seg)].end;
      to = p.segments[static_cast<std::size_t>(info.to_seg)].start;
    } else if (info.kind == alloc::ArcKind::kFromSource) {
      from = 0;
      to = p.segments[static_cast<std::size_t>(info.to_seg)].start;
    } else if (info.kind == alloc::ArcKind::kToSink) {
      from = p.segments[static_cast<std::size_t>(info.from_seg)].end;
      to = p.num_steps + 1;
    } else {
      continue;
    }
    for (int b = from; b < to && b <= p.num_steps; ++b) {
      EXPECT_FALSE(p.is_max_density[static_cast<std::size_t>(b)])
          << "arc " << a << " idles across max-density boundary " << b;
    }
  }
}

TEST(Figure4, SparseGraphHasNoPeakIdlingArcs) {
  // The hub encoding states the same rule locally: no idle arc of the
  // time chain spans a boundary of maximum density.
  workloads::Figure4Options opts;
  const alloc::AllocationProblem p = workloads::figure4_problem(opts);
  const alloc::FlowGraphSpec spec =
      alloc::build_flow_graph(p, alloc::GraphStyle::kDensityRegions);
  ASSERT_FALSE(spec.hub_node.empty());
  int idle_arcs = 0;
  for (std::size_t a = 0; a < spec.arc_info.size(); ++a) {
    if (spec.arc_info[a].kind != alloc::ArcKind::kIdle) continue;
    ++idle_arcs;
    const netflow::Arc& arc = spec.graph.arc(static_cast<netflow::ArcId>(a));
    const auto hub_time = [&](netflow::NodeId v) {
      return spec.hub_time[static_cast<std::size_t>(v -
                                                    spec.hub_node.front())];
    };
    for (int b = std::max(0, hub_time(arc.tail));
         b < hub_time(arc.head) && b <= p.num_steps; ++b) {
      EXPECT_FALSE(p.is_max_density[static_cast<std::size_t>(b)])
          << "idle arc " << a << " spans max-density boundary " << b;
    }
  }
  EXPECT_GT(idle_arcs, 0);
}

class Table1Test : public ::testing::Test {
 protected:
  struct Row {
    double e_total;
    double ae_total;
    double e_mem;
    int mem_accesses;
  };

  Row run(int period) {
    const ir::BasicBlock bb = workloads::make_rsp(6);
    const sched::Schedule sched = sched::list_schedule(bb, {2, 2});
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    params.v_mem = energy::voltage_for_slowdown(period);
    lifetime::SplitOptions split;
    split.access.period = period;
    const alloc::AllocationProblem p = alloc::make_problem_from_block(
        bb, sched, 8, params, workloads::random_inputs(bb, 64, 2026),
        split);
    const alloc::AllocationResult r = alloc::allocate(p);
    EXPECT_TRUE(r.feasible) << r.message;
    return {r.static_energy.total(), r.activity_energy.total(),
            r.static_energy.memory, r.stats.mem_accesses()};
  }
};

TEST_F(Table1Test, EnergyFallsMonotonicallyWithMemoryFrequency) {
  const Row f = run(1);
  const Row f2 = run(2);
  const Row f4 = run(4);
  // Both energy models improve monotonically as the memory slows down
  // and its supply scales towards 2 V.
  EXPECT_GT(f.e_total, f2.e_total);
  EXPECT_GT(f2.e_total, f4.e_total);
  EXPECT_GT(f.ae_total, f2.ae_total);
  EXPECT_GT(f2.ae_total, f4.ae_total);
}

TEST_F(Table1Test, MemoryEnergyRatioTracksPaper) {
  const Row f = run(1);
  const Row f4 = run(4);
  // Paper's E column: 4.9x between the f and f/4 rows. The
  // voltage-scaled component is the memory module.
  const double ratio = f.e_mem / f4.e_mem;
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 7.0);
  // Activity-model total: paper reports 2.8x.
  const double ae_ratio = f.ae_total / f4.ae_total;
  EXPECT_GT(ae_ratio, 2.0);
  EXPECT_LT(ae_ratio, 4.0);
}

TEST(Sweep, KernelImprovementsInPaperBallpark) {
  // §7: "improvement of 1.4 to 2.5 times ... over previously researched
  // techniques". Require every kernel to improve and the suite to land
  // in a sensible band.
  double worst = 1e9;
  double geo = 0;
  int n = 0;
  for (const ir::BasicBlock& bb :
       {workloads::make_fir(8), workloads::make_elliptic_wave_filter(),
        workloads::make_rsp(4)}) {
    const sched::Schedule sched = sched::list_schedule(bb, {2, 1});
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    alloc::AllocationProblem p = alloc::make_problem_from_block(
        bb, sched, 1, params, workloads::random_inputs(bb, 48, 7));
    p.num_registers = std::max(1, p.max_density() / 4);
    const alloc::AllocationResult ours = alloc::allocate(p);
    const alloc::AllocationResult baseline = alloc::two_phase_allocate(p);
    ASSERT_TRUE(ours.feasible && baseline.feasible) << bb.name();
    const double improvement =
        baseline.activity_energy.total() / ours.activity_energy.total();
    worst = std::min(worst, improvement);
    geo += std::log(improvement);
    ++n;
  }
  EXPECT_GE(worst, 1.0);
  const double geomean = std::exp(geo / n);
  EXPECT_GT(geomean, 1.15);
  EXPECT_LT(geomean, 3.0);
}

}  // namespace
}  // namespace lera
