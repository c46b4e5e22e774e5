#include <gtest/gtest.h>

#include "alloc/hierarchy.hpp"
#include "netflow/fault_injection.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
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

/// Three overlapping memory-bound variables (R = 0 forces all into
/// memory), traffic 2 accesses each.
AllocationProblem memory_bound() {
  energy::EnergyParams params;
  return make_problem(
      {lt("u", 1, 5), lt("v", 2, 6), lt("w", 3, 7)}, 8, 0, params,
      energy::ActivityMatrix(3));
}

TEST(Hierarchy, ZeroCapacityMeansAllOffchip) {
  const AllocationProblem p = memory_bound();
  HierarchyParams h;
  h.onchip_capacity = 0;
  const HierarchicalResult r = allocate_hierarchical(p, h);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.onchip_runs, 0);
  EXPECT_EQ(r.offchip_runs, 3);
  EXPECT_DOUBLE_EQ(r.total_static_energy, r.all_offchip_static_energy);
  for (StorageLevel level : r.level) {
    EXPECT_EQ(level, StorageLevel::kOffchip);
  }
}

TEST(Hierarchy, AmpleCapacityMeansAllOnchip) {
  const AllocationProblem p = memory_bound();
  HierarchyParams h;
  h.onchip_capacity = 10;
  const HierarchicalResult r = allocate_hierarchical(p, h);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.onchip_runs, 3);
  EXPECT_EQ(r.offchip_runs, 0);
  // On-chip accesses cost 5/10, off-chip 11/22: big difference.
  EXPECT_LT(r.total_static_energy, r.all_offchip_static_energy);
}

TEST(Hierarchy, TightCapacityKeepsHottestRunOnchip) {
  // Two variables; one with far more reads (split lifetime traffic).
  energy::EnergyParams params;
  Lifetime hot;
  hot.value = 0;
  hot.name = "hot";
  hot.write_time = 1;
  hot.read_times = {2, 3, 4, 5};  // 1 write + 4 reads in memory.
  const AllocationProblem p = make_problem(
      {hot, lt("cold", 1, 5)}, 6, 0, params, energy::ActivityMatrix(2));
  HierarchyParams h;
  h.onchip_capacity = 1;  // Both runs overlap: only one fits.
  const HierarchicalResult r = allocate_hierarchical(p, h);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.onchip_runs, 1);
  EXPECT_EQ(r.offchip_runs, 1);
  // The hot variable's segments must be the on-chip ones.
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    if (p.segments[s].var == 0) {
      EXPECT_EQ(r.level[s], StorageLevel::kOnchip);
    } else {
      EXPECT_EQ(r.level[s], StorageLevel::kOffchip);
    }
  }
}

TEST(Hierarchy, SequentialRunsShareTheScratchpadWord) {
  // Two non-overlapping memory variables: capacity 1 hosts both.
  energy::EnergyParams params;
  const AllocationProblem p = make_problem(
      {lt("u", 1, 3), lt("v", 3, 5)}, 6, 0, params,
      energy::ActivityMatrix(2));
  HierarchyParams h;
  h.onchip_capacity = 1;
  const HierarchicalResult r = allocate_hierarchical(p, h);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.onchip_runs, 2);
  EXPECT_EQ(r.offchip_runs, 0);
}

TEST(Hierarchy, EnergyMonotoneInCapacity) {
  const ir::BasicBlock bb = workloads::make_rsp(4);
  const sched::Schedule s = sched::list_schedule(bb, {2, 2});
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  const AllocationProblem p = make_problem_from_block(bb, s, 4, params);
  double prev = std::numeric_limits<double>::infinity();
  for (int capacity : {0, 1, 2, 4, 8, 16, 64}) {
    HierarchyParams h;
    h.onchip_capacity = capacity;
    const HierarchicalResult r = allocate_hierarchical(p, h);
    ASSERT_TRUE(r.feasible) << r.message;
    EXPECT_LE(r.total_static_energy, prev + 1e-9) << "capacity " << capacity;
    prev = r.total_static_energy;
  }
}

// Stage 2 runs through the robust chain: an allocation failure at its
// flow's first allocation hands the flow to the next backend, and the
// split comes out as if nothing had failed.
TEST(Hierarchy, Stage2InjectedOomFallsBackToTheNextBackend) {
  const ir::BasicBlock bb = workloads::make_rsp(4);
  const sched::Schedule s = sched::list_schedule(bb, {2, 2});
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  const AllocationProblem p = make_problem_from_block(bb, s, 4, params);
  // Stage 1 is allocate(): count its allocation sites, so the failpoint
  // can skip them and hit stage 2's first.
  std::int64_t stage1_sites = 0;
  {
    const netflow::OomFailpoint dry({});
    ASSERT_TRUE(allocate(p).feasible);
    stage1_sites = dry.sites_seen();
  }
  for (int capacity : {1, 2, 4, 8}) {
    HierarchyParams h;
    h.onchip_capacity = capacity;
    const HierarchicalResult clean = allocate_hierarchical(p, h);
    ASSERT_TRUE(clean.feasible) << clean.message;

    netflow::OomFailpoint::Options fp_opts;
    fp_opts.fail_at_site = stage1_sites + 1;
    netflow::OomFailpoint fp(fp_opts);
    const HierarchicalResult r = allocate_hierarchical(p, h);
    EXPECT_EQ(fp.failures_injected(), 1) << "capacity " << capacity;
    ASSERT_TRUE(r.feasible) << "capacity " << capacity << ": " << r.message;
    // Another backend may return another optimum of the same cost.
    EXPECT_NEAR(r.total_static_energy, clean.total_static_energy, 1e-6)
        << "capacity " << capacity;
  }
}

TEST(Hierarchy, MatchesGreedyOnNonOverlappingRuns) {
  // When no runs overlap, capacity >= 1 should host every run with
  // positive savings: equivalent to taking all of them.
  energy::EnergyParams params;
  const AllocationProblem p = make_problem(
      {lt("a", 1, 2), lt("b", 2, 3), lt("c", 3, 4), lt("d", 4, 5)}, 6, 0,
      params, energy::ActivityMatrix(4));
  HierarchyParams h;
  h.onchip_capacity = 1;
  const HierarchicalResult r = allocate_hierarchical(p, h);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.onchip_runs, 4);
}

TEST(Hierarchy, ScratchpadCapacityRespectedOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    workloads::RandomLifetimeOptions lopts;
    lopts.num_vars = 12;
    energy::EnergyParams params;
    const AllocationProblem p = make_problem(
        workloads::random_lifetimes(seed, lopts), lopts.num_steps, 2,
        params, workloads::random_activity(seed, 12));
    HierarchyParams h;
    h.onchip_capacity = 2;
    const HierarchicalResult r = allocate_hierarchical(p, h);
    ASSERT_TRUE(r.feasible) << "seed " << seed;
    // At every boundary at most `capacity` on-chip segments are live.
    for (int b = 0; b <= p.num_steps; ++b) {
      int live = 0;
      for (std::size_t s = 0; s < p.segments.size(); ++s) {
        if (r.level[s] != StorageLevel::kOnchip) continue;
        if (p.segments[s].start <= b && b < p.segments[s].end) ++live;
      }
      EXPECT_LE(live, h.onchip_capacity) << "seed " << seed << " b " << b;
    }
    // Registers match stage 1.
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      EXPECT_EQ(r.level[s] == StorageLevel::kRegister,
                r.stage1.assignment.in_register(s));
    }
  }
}

TEST(Hierarchy, OffchipPressureIncreasesRegisterValue) {
  // With off-chip-only memory, register savings are bigger: the same
  // problem solved hierarchically must show a larger gap between R = 0
  // and R = 4 than the on-chip-only configuration.
  const ir::BasicBlock bb = workloads::make_fir(8);
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  energy::EnergyParams params;
  HierarchyParams h;
  h.onchip_capacity = 0;  // Off-chip only.

  AllocationProblem p0 = make_problem_from_block(bb, s, 0, params);
  AllocationProblem p4 = make_problem_from_block(bb, s, 4, params);
  const HierarchicalResult r0 = allocate_hierarchical(p0, h);
  const HierarchicalResult r4 = allocate_hierarchical(p4, h);
  ASSERT_TRUE(r0.feasible && r4.feasible);
  const double gap_off = r0.total_static_energy - r4.total_static_energy;

  const AllocationResult on0 = allocate(p0);
  const AllocationResult on4 = allocate(p4);
  const double gap_on =
      on0.static_energy.total() - on4.static_energy.total();
  EXPECT_GT(gap_off, gap_on);
}

}  // namespace
}  // namespace lera::alloc
