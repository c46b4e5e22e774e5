#include <gtest/gtest.h>

#include "alloc/allocator.hpp"
#include "alloc/memory_layout.hpp"
#include "alloc/two_phase.hpp"
#include "netflow/fault_injection.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_gen.hpp"

namespace lera::alloc {
namespace {

TEST(TwoPhase, Figure3BindsThePaperChains) {
  // Phase 1 must find the chains {a,b,c} and {d,e,f} with total
  // switching 2.4 (the paper's "optimal solution for register
  // allocation previously researched").
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  const AllocationProblem p = workloads::figure3_problem(params);
  const AllocationResult r = two_phase_allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;

  // R = 1: the higher-activity chain {a,b,c} stays in the register.
  // Segment order is a,b,c,d,e,f (one segment each).
  EXPECT_TRUE(r.assignment.in_register(0));   // a
  EXPECT_TRUE(r.assignment.in_register(1));   // b
  EXPECT_TRUE(r.assignment.in_register(2));   // c
  EXPECT_FALSE(r.assignment.in_register(3));  // d
  EXPECT_FALSE(r.assignment.in_register(4));  // e
  EXPECT_FALSE(r.assignment.in_register(5));  // f
  EXPECT_EQ(r.stats.mem_accesses(), 6);       // d, e, f: write + read each.
}

TEST(TwoPhase, SimultaneousBeatsTwoPhaseOnFigure3) {
  for (auto model : {energy::RegisterModel::kStatic,
                     energy::RegisterModel::kActivity}) {
    energy::EnergyParams params;
    params.register_model = model;
    const AllocationProblem p = workloads::figure3_problem(params);
    const AllocationResult simultaneous = allocate(p);
    const AllocationResult baseline = two_phase_allocate(p);
    ASSERT_TRUE(simultaneous.feasible) << simultaneous.message;
    ASSERT_TRUE(baseline.feasible) << baseline.message;
    EXPECT_LT(simultaneous.energy(p), baseline.energy(p));
  }
}

TEST(TwoPhase, NeverBeatsSimultaneousOnRandomInstances) {
  // The simultaneous flow is optimal over a superset of the two-phase
  // decisions (under the all-pairs graph), so it can never lose.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    workloads::RandomLifetimeOptions lopts;
    lopts.num_vars = 10;
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    const AllocationProblem p = make_problem(
        workloads::random_lifetimes(seed, lopts), lopts.num_steps, 2,
        params, workloads::random_activity(seed + 7, 10));
    AllocatorOptions opts;
    opts.style = GraphStyle::kAllPairs;
    const AllocationResult simultaneous = allocate(p, opts);
    const AllocationResult baseline = two_phase_allocate(p);
    ASSERT_TRUE(simultaneous.feasible);
    ASSERT_TRUE(baseline.feasible) << baseline.message;
    EXPECT_LE(simultaneous.activity_energy.total(),
              baseline.activity_energy.total() + 1e-9)
        << "seed " << seed;
  }
}

TEST(TwoPhase, UsesAllChainsWhenRegistersAbound) {
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 6;
  energy::EnergyParams params;
  const AllocationProblem p = make_problem(
      workloads::random_lifetimes(3, lopts), lopts.num_steps, 6, params,
      workloads::random_activity(4, 6));
  const AllocationResult r = two_phase_allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  // Enough registers for every chain: nothing is demoted to memory.
  EXPECT_EQ(r.stats.mem_accesses(), 0);
}

TEST(MemoryLayout, EmptyWhenEverythingInRegisters) {
  energy::EnergyParams params;
  lifetime::Lifetime v;
  v.value = 0;
  v.name = "v";
  v.write_time = 1;
  v.read_times = {3};
  const AllocationProblem p =
      make_problem({v}, 4, 1, params, energy::ActivityMatrix(1));
  Assignment a(1);
  a.assign_register(0, 0);
  const MemoryLayout layout = optimize_memory_layout(p, a);
  EXPECT_TRUE(layout.feasible);
  EXPECT_EQ(layout.locations, 0);
}

TEST(MemoryLayout, PacksSequentialRunsIntoOneAddress) {
  energy::EnergyParams params;
  auto mk = [](const char* name, int w, int r) {
    lifetime::Lifetime lt;
    lt.value = 0;
    lt.name = name;
    lt.write_time = w;
    lt.read_times = {r};
    return lt;
  };
  const AllocationProblem p = make_problem(
      {mk("u", 1, 3), mk("w", 3, 5), mk("z", 5, 7)}, 8, 0, params,
      energy::ActivityMatrix(3, 0.5, 0.5));
  Assignment a(3);  // All memory.
  const MemoryLayout layout = optimize_memory_layout(p, a);
  ASSERT_TRUE(layout.feasible);
  EXPECT_EQ(layout.locations, 1);
  EXPECT_EQ(layout.address[0], 0);
  EXPECT_EQ(layout.address[1], 0);
  EXPECT_EQ(layout.address[2], 0);
}

TEST(MemoryLayout, MinimisesOccupantSwitching) {
  // Four variables, two addresses. Pairings differ in activity; the
  // flow must pick the cheap pairing, the naive left-edge the ordered
  // one.
  energy::EnergyParams params;
  auto mk = [](const char* name, int w, int r) {
    lifetime::Lifetime lt;
    lt.value = 0;
    lt.name = name;
    lt.write_time = w;
    lt.read_times = {r};
    return lt;
  };
  // u,v overlap; then x,y overlap. Chains: u->(x or y), v->(the other).
  energy::ActivityMatrix act(4, 0.5, 0.0);  // Zero initial activity.
  act.set(0, 2, 0.9);  // u -> x dear
  act.set(0, 3, 0.1);  // u -> y cheap
  act.set(1, 2, 0.1);  // v -> x cheap
  act.set(1, 3, 0.9);  // v -> y dear
  const AllocationProblem p = make_problem(
      {mk("u", 1, 3), mk("v", 1, 3), mk("x", 3, 5), mk("y", 3, 5)}, 6, 0,
      params, std::move(act));
  Assignment a(4);
  const MemoryLayout layout = optimize_memory_layout(p, a);
  ASSERT_TRUE(layout.feasible);
  EXPECT_EQ(layout.locations, 2);
  EXPECT_NEAR(layout.optimized_activity, 0.2, 1e-9);
  EXPECT_LE(layout.optimized_activity, layout.naive_activity + 1e-9);
  // u/y and v/x share addresses.
  EXPECT_EQ(layout.address[0], layout.address[3]);
  EXPECT_EQ(layout.address[1], layout.address[2]);
}

TEST(MemoryLayout, OptimizedNeverWorseThanNaive) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    workloads::RandomLifetimeOptions lopts;
    lopts.num_vars = 12;
    energy::EnergyParams params;
    const AllocationProblem p = make_problem(
        workloads::random_lifetimes(seed, lopts), lopts.num_steps, 3,
        params, workloads::random_activity(seed, 12));
    const AllocationResult r = allocate(p);
    ASSERT_TRUE(r.feasible);
    const MemoryLayout layout = optimize_memory_layout(p, r.assignment);
    ASSERT_TRUE(layout.feasible);
    EXPECT_LE(layout.optimized_activity, layout.naive_activity + 1e-6)
        << "seed " << seed;
    EXPECT_EQ(layout.locations, r.stats.mem_locations) << "seed " << seed;
    // Every memory segment got an address; register segments none.
    for (std::size_t s = 0; s < p.segments.size(); ++s) {
      EXPECT_EQ(layout.address[s] >= 0, !r.assignment.in_register(s));
    }
  }
}

// The relayout flow runs through the robust chain: an allocation failure
// in its first backend hands the flow to the next one, and the layout
// comes out as if nothing had failed.
TEST(MemoryLayout, InjectedOomFallsBackToTheNextBackend) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    workloads::RandomLifetimeOptions lopts;
    lopts.num_vars = 12;
    energy::EnergyParams params;
    const AllocationProblem p = make_problem(
        workloads::random_lifetimes(seed, lopts), lopts.num_steps, 3,
        params, workloads::random_activity(seed, 12));
    const AllocationResult r = allocate(p);
    ASSERT_TRUE(r.feasible);
    const MemoryLayout clean = optimize_memory_layout(p, r.assignment);
    ASSERT_TRUE(clean.feasible);

    netflow::OomFailpoint::Options fp_opts;
    fp_opts.fail_at_site = 1;  // The flow's first allocation.
    netflow::OomFailpoint fp(fp_opts);
    const MemoryLayout layout = optimize_memory_layout(p, r.assignment);
    EXPECT_EQ(fp.failures_injected(), 1) << "seed " << seed;
    ASSERT_TRUE(layout.feasible) << "seed " << seed;
    EXPECT_EQ(layout.locations, clean.locations) << "seed " << seed;
    // Another backend may return another optimum of the same cost.
    EXPECT_NEAR(layout.optimized_activity, clean.optimized_activity, 1e-6)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace lera::alloc
