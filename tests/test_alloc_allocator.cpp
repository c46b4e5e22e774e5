#include <gtest/gtest.h>

#include "alloc/allocator.hpp"
#include "alloc/exhaustive.hpp"
#include "audit/fuzz.hpp"
#include "sched/schedule.hpp"
#include "workloads/kernels.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_gen.hpp"

namespace lera::alloc {
namespace {

using lifetime::Lifetime;

Lifetime lt(const char* name, int w, std::vector<int> reads) {
  Lifetime out;
  out.value = 0;
  out.name = name;
  out.write_time = w;
  out.read_times = std::move(reads);
  return out;
}

/// The flow objective must equal the replayed energy of the returned
/// assignment (up to cost quantisation): this certifies eqs. (3)-(10)
/// against the independent event-level evaluator.
void expect_model_consistency(const AllocationProblem& p,
                              const AllocationResult& r) {
  ASSERT_TRUE(r.feasible) << r.message;
  const double replayed = r.energy(p);
  EXPECT_NEAR(r.model_energy, replayed, 1e-3 + 1e-9 * std::abs(replayed));
  EXPECT_TRUE(validate_assignment(p, r.assignment).empty())
      << validate_assignment(p, r.assignment);
}

AllocationProblem random_problem(std::uint64_t seed, int num_vars, int R,
                                 energy::RegisterModel model,
                                 int access_period = 1) {
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = num_vars;
  lopts.num_steps = 10;
  lopts.max_reads = 2;
  energy::EnergyParams params;
  params.register_model = model;
  lifetime::SplitOptions split;
  split.access.period = access_period;
  return make_problem(workloads::random_lifetimes(seed, lopts),
                      lopts.num_steps, R, params,
                      workloads::random_activity(seed + 999,
                          static_cast<std::size_t>(num_vars)),
                      split);
}

TEST(Allocator, ZeroRegistersMeansAllMemory) {
  energy::EnergyParams params;
  const AllocationProblem p = make_problem(
      {lt("u", 1, {4}), lt("w", 2, {5})}, 6, 0, params,
      energy::ActivityMatrix(2));
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.registers_used, 0);
  EXPECT_EQ(r.stats.mem_accesses(), 4);
  EXPECT_EQ(r.stats.reg_accesses(), 0);
  expect_model_consistency(p, r);
}

TEST(Allocator, SingleVariablePrefersRegister) {
  energy::EnergyParams params;
  const AllocationProblem p = make_problem({lt("u", 1, {4})}, 5, 1, params,
                                           energy::ActivityMatrix(1));
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(r.assignment.in_register(0));
  EXPECT_EQ(r.stats.mem_accesses(), 0);
  EXPECT_DOUBLE_EQ(r.static_energy.total(),
                   params.e_reg_write() + params.e_reg_read());
  expect_model_consistency(p, r);
}

TEST(Allocator, RegisterAvoidedWhenDearerThanMemory) {
  energy::EnergyParams params;
  params.reg_read = 50;  // Pathological: register dearer than memory.
  params.reg_write = 50;
  const AllocationProblem p = make_problem({lt("u", 1, {4})}, 5, 1, params,
                                           energy::ActivityMatrix(1));
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_FALSE(r.assignment.in_register(0));  // Bypass carries the flow.
  expect_model_consistency(p, r);
}

TEST(Allocator, InfeasibleWhenForcedSegmentsExceedRegisters) {
  energy::EnergyParams params;
  lifetime::SplitOptions split;
  split.access.period = 4;
  // Two overlapping variables that both begin off the access grid.
  const AllocationProblem p = make_problem(
      {lt("u", 1, {3}), lt("w", 1, {3})}, 8, 1, params,
      energy::ActivityMatrix(2), split);
  const AllocationResult r = allocate(p);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.message.find("forced"), std::string::npos);
}

TEST(Allocator, ForcedSegmentsHonouredWhenFeasible) {
  energy::EnergyParams params;
  params.reg_read = 100;  // Even with dire register costs...
  params.reg_write = 100;
  lifetime::SplitOptions split;
  split.access.period = 4;
  const AllocationProblem p = make_problem(
      {lt("u", 1, {3})}, 8, 1, params, energy::ActivityMatrix(1), split);
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  // ... the forced segment must sit in a register.
  for (std::size_t s = 0; s < p.segments.size(); ++s) {
    if (p.segments[s].forced_register) {
      EXPECT_TRUE(r.assignment.in_register(s));
    }
  }
  expect_model_consistency(p, r);
}

TEST(Allocator, MatchesExhaustiveStatic) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const AllocationProblem p = random_problem(
        seed, 5, 1 + static_cast<int>(seed % 3),
        energy::RegisterModel::kStatic);
    AllocatorOptions opts;
    opts.style = GraphStyle::kAllPairs;  // Same space as exhaustive.
    opts.certify = true;
    const AllocationResult r = allocate(p, opts);
    const auto best =
        exhaustive_allocate(p, energy::RegisterModel::kStatic);
    ASSERT_TRUE(r.feasible) << "seed " << seed << ": " << r.message;
    ASSERT_TRUE(best.has_value()) << "seed " << seed;
    EXPECT_NEAR(r.static_energy.total(), best->energy, 1e-6)
        << "seed " << seed;
  }
}

TEST(Allocator, MatchesExhaustiveActivitySingleRegister) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const AllocationProblem p =
        random_problem(seed, 5, 1, energy::RegisterModel::kActivity);
    AllocatorOptions opts;
    opts.style = GraphStyle::kAllPairs;
    const AllocationResult r = allocate(p, opts);
    const auto best =
        exhaustive_allocate(p, energy::RegisterModel::kActivity);
    ASSERT_TRUE(r.feasible) << "seed " << seed << ": " << r.message;
    ASSERT_TRUE(best.has_value()) << "seed " << seed;
    EXPECT_NEAR(r.activity_energy.total(), best->energy, 1e-6)
        << "seed " << seed;
  }
}

TEST(Allocator, MatchesExhaustiveWithRestrictedAccess) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AllocationProblem p = random_problem(
        seed, 5, 2, energy::RegisterModel::kStatic, /*access_period=*/3);
    if (p.segments.size() > 18) continue;
    AllocatorOptions opts;
    opts.style = GraphStyle::kAllPairs;
    const AllocationResult r = allocate(p, opts);
    const auto best =
        exhaustive_allocate(p, energy::RegisterModel::kStatic);
    ASSERT_EQ(r.feasible, best.has_value()) << "seed " << seed;
    if (r.feasible) {
      EXPECT_NEAR(r.static_energy.total(), best->energy, 1e-6)
          << "seed " << seed;
    }
  }
}

TEST(Allocator, SolverChoiceDoesNotChangeEnergy) {
  for (std::uint64_t seed = 40; seed <= 50; ++seed) {
    const AllocationProblem p =
        random_problem(seed, 10, 3, energy::RegisterModel::kActivity);
    double first = -1;
    for (auto solver : {netflow::SolverKind::kSuccessiveShortestPaths,
                        netflow::SolverKind::kCycleCanceling,
                        netflow::SolverKind::kNetworkSimplex}) {
      AllocatorOptions opts;
      opts.solver = solver;
      const AllocationResult r = allocate(p, opts);
      ASSERT_TRUE(r.feasible) << r.message;
      if (first < 0) {
        first = r.model_energy;
      } else {
        EXPECT_NEAR(r.model_energy, first, 1e-9);
      }
    }
  }
}

TEST(Allocator, ModelConsistencyOnRandomInstances) {
  for (std::uint64_t seed = 60; seed <= 90; ++seed) {
    for (auto model : {energy::RegisterModel::kStatic,
                       energy::RegisterModel::kActivity}) {
      for (auto style :
           {GraphStyle::kDensityRegions, GraphStyle::kAllPairs}) {
        const AllocationProblem p = random_problem(
            seed, 10, 2 + static_cast<int>(seed % 4), model,
            seed % 2 == 0 ? 1 : 2);
        AllocatorOptions opts;
        opts.style = style;
        const AllocationResult r = allocate(p, opts);
        if (!r.feasible) continue;  // Forced overload: fine.
        expect_model_consistency(p, r);
      }
    }
  }
}

TEST(Allocator, DensityGraphPinsMemoryToMinimum) {
  // The §7 guarantee: with the density-region graph (and registers
  // clearly cheaper than memory) exactly R variables cross every peak in
  // registers, so the memory needs exactly maxdensity - R locations.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const AllocationProblem p =
        random_problem(seed, 12, 2, energy::RegisterModel::kStatic);
    const int peak = p.max_density();
    if (peak <= p.num_registers) continue;
    const AllocationResult r = allocate(p);
    ASSERT_TRUE(r.feasible) << r.message;
    EXPECT_EQ(r.stats.mem_locations, peak - p.num_registers)
        << "seed " << seed;
  }
}

TEST(Allocator, AllPairsNeverWorseThanDensityGraph) {
  // The all-pairs graph explores a superset of assignments, so its
  // optimum can only be at least as good.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const AllocationProblem p =
        random_problem(seed, 9, 2, energy::RegisterModel::kActivity);
    AllocatorOptions dens;
    dens.style = GraphStyle::kDensityRegions;
    AllocatorOptions pairs;
    pairs.style = GraphStyle::kAllPairs;
    const AllocationResult rd = allocate(p, dens);
    const AllocationResult rp = allocate(p, pairs);
    ASSERT_TRUE(rd.feasible && rp.feasible);
    EXPECT_LE(rp.model_energy, rd.model_energy + 1e-9) << "seed " << seed;
  }
}

TEST(Allocator, MoreRegistersNeverHurt) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    double prev = std::numeric_limits<double>::infinity();
    for (int R = 0; R <= 5; ++R) {
      AllocationProblem p =
          random_problem(seed, 8, R, energy::RegisterModel::kStatic);
      const AllocationResult r = allocate(p);
      ASSERT_TRUE(r.feasible) << r.message;
      EXPECT_LE(r.static_energy.total(), prev + 1e-9)
          << "seed " << seed << " R " << R;
      prev = r.static_energy.total();
    }
  }
}

TEST(Allocator, KernelBlocksEndToEnd) {
  for (const ir::BasicBlock& bb :
       {workloads::make_fir(8), workloads::make_iir_biquad(),
        workloads::make_elliptic_wave_filter(),
        workloads::make_fft_butterfly(), workloads::make_dct4()}) {
    const sched::Schedule s = sched::list_schedule(bb, {2, 1});
    energy::EnergyParams params;
    params.register_model = energy::RegisterModel::kActivity;
    const AllocationProblem p = make_problem_from_block(
        bb, s, 4, params, workloads::random_inputs(bb, 32, 11));
    const AllocationResult r = allocate(p);
    ASSERT_TRUE(r.feasible) << bb.name() << ": " << r.message;
    expect_model_consistency(p, r);
    // With registers available some traffic must leave memory.
    const AllocationProblem p0 = make_problem_from_block(
        bb, s, 0, params, {});
    const AllocationResult r0 = allocate(p0);
    ASSERT_TRUE(r0.feasible);
    EXPECT_LT(r.stats.mem_accesses(), r0.stats.mem_accesses())
        << bb.name();
  }
}

TEST(Allocator, RspDensityMatchesPaperScale) {
  const ir::BasicBlock bb = workloads::make_rsp(6);
  const sched::Schedule s = sched::list_schedule(bb, {2, 2});
  energy::EnergyParams params;
  const AllocationProblem p = make_problem_from_block(bb, s, 16, params);
  // The paper's RSP instance reports a maximum lifetime density of 26;
  // the proxy should be in that neighbourhood.
  EXPECT_GE(p.max_density(), 20);
  EXPECT_LE(p.max_density(), 40);
  const AllocationResult r = allocate(p);
  ASSERT_TRUE(r.feasible) << r.message;
  expect_model_consistency(p, r);
}

// The default solver (kAuto) against a fixed SSP on both sides of the
// selector's threshold: R = 12 runs SSP, R = 13 the network simplex.
// Fuzz problems of both models, big enough that 13 registers still bind
// on many of them: same feasibility, bit-equal objective, clean audit.
TEST(Allocator, DefaultSolverMatchesSspAtTheThreshold) {
  audit::DiffFuzzOptions fuzz;
  fuzz.max_vars = 40;
  fuzz.max_steps = 30;
  int simplex_solves = 0;
  int binding = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    AllocationProblem p = audit::fuzz_problem(seed, fuzz);
    if (p.max_density() > 13) ++binding;
    for (const int r : {12, 13}) {
      p.num_registers = r;
      AllocatorOptions ssp;
      ssp.solver = netflow::SolverKind::kSuccessiveShortestPaths;
      const AllocationResult want = allocate(p, ssp);
      const AllocationResult got = allocate(p);
      ASSERT_EQ(got.feasible, want.feasible)
          << "seed " << seed << " R=" << r << ": " << got.message;
      ASSERT_TRUE(got.solve_diagnostics.auto_selected);
      EXPECT_EQ(got.solve_diagnostics.auto_choice,
                r <= 12 ? netflow::SolverKind::kSuccessiveShortestPaths
                        : netflow::SolverKind::kNetworkSimplex);
      if (!got.feasible) continue;
      if (r == 13) ++simplex_solves;
      EXPECT_EQ(got.flow_cost, want.flow_cost) << "seed " << seed << " R=" << r;
      EXPECT_EQ(got.model_energy, want.model_energy)
          << "seed " << seed << " R=" << r;
      const audit::AuditReport report = audit::audit_result(p, got);
      EXPECT_TRUE(report.clean())
          << "seed " << seed << " R=" << r << ": " << report.summary();
    }
  }
  EXPECT_GT(simplex_solves, 150);
  EXPECT_GT(binding, 50);
}

TEST(AllocateSweep, MatchesIndividualSolves) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    AllocationProblem p =
        random_problem(seed, 10, 1, energy::RegisterModel::kActivity);
    const std::vector<int> counts = {0, 1, 2, 4, 8};
    const std::vector<AllocationResult> sweep = allocate_sweep(p, counts);
    ASSERT_EQ(sweep.size(), counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      p.num_registers = counts[i];
      const AllocationResult single = allocate(p);
      ASSERT_EQ(sweep[i].feasible, single.feasible)
          << "seed " << seed << " R " << counts[i];
      if (single.feasible) {
        EXPECT_NEAR(sweep[i].model_energy, single.model_energy, 1e-9)
            << "seed " << seed << " R " << counts[i];
        EXPECT_TRUE(validate_assignment(p, sweep[i].assignment).empty());
      }
    }
  }
}

TEST(AllocateSweep, EmptyCountsAndInvalidProblems) {
  const AllocationProblem p =
      random_problem(3, 5, 2, energy::RegisterModel::kStatic);
  EXPECT_TRUE(allocate_sweep(p, {}).empty());
}

}  // namespace
}  // namespace lera::alloc
