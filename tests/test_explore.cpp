#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "pipeline/explore.hpp"
#include "workloads/kernels.hpp"

namespace lera::pipeline {
namespace {

TEST(Explore, EvaluatesAllCandidates) {
  const ir::BasicBlock bb = workloads::make_elliptic_wave_filter();
  engine::EngineOptions opts;
  const engine::ExploreResult out = engine::Engine(opts).explore(bb);
  EXPECT_EQ(out.candidates.size(),
            opts.resource_options.size() + opts.slack_options.size());
  ASSERT_GE(out.best, 0);
  const engine::ScheduleCandidate& best =
      out.candidates[static_cast<std::size_t>(out.best)];
  EXPECT_TRUE(best.feasible);
  for (const engine::ScheduleCandidate& c : out.candidates) {
    if (c.feasible) {
      EXPECT_LE(best.energy, c.energy + 1e-9);
      EXPECT_TRUE(c.schedule.verify(bb).empty()) << c.label;
    }
  }
}

TEST(Explore, DeadlineFiltersSlowSchedules) {
  const ir::BasicBlock bb = workloads::make_fir(8);
  engine::EngineOptions strict;
  strict.deadline = sched::asap(bb).length(bb);  // Only critical path.
  const engine::ExploreResult out = engine::Engine(strict).explore(bb);
  for (const engine::ScheduleCandidate& c : out.candidates) {
    if (c.feasible) {
      EXPECT_LE(c.length, strict.deadline) << c.label;
    }
  }
}

TEST(Explore, TighterResourcesStretchSchedulesAndLowerDensity) {
  const ir::BasicBlock bb = workloads::make_rsp(4);
  engine::EngineOptions opts;
  opts.resource_options = {{1, 1}, {4, 4}};
  opts.slack_options = {};
  const engine::ExploreResult out = engine::Engine(opts).explore(bb);
  ASSERT_EQ(out.candidates.size(), 2u);
  const auto& tight = out.candidates[0];
  const auto& loose = out.candidates[1];
  EXPECT_GT(tight.length, loose.length);
  // A stretched schedule spreads lifetimes: density cannot grow.
  EXPECT_LE(tight.max_density, loose.max_density + 2);
}

TEST(Explore, BestBeatsDefaultChoice) {
  // The winner can only improve on blindly taking the first candidate.
  const ir::BasicBlock bb = workloads::make_fft_butterfly();
  engine::EngineOptions opts;
  opts.num_registers = 3;
  const engine::ExploreResult out = engine::Engine(opts).explore(bb);
  ASSERT_GE(out.best, 0);
  const auto& first = out.candidates[0];
  const auto& best = out.candidates[static_cast<std::size_t>(out.best)];
  if (first.feasible) {
    EXPECT_LE(best.energy, first.energy + 1e-9);
  }
}

TEST(SizeRegisterFile, FindsTheKnee) {
  const ir::BasicBlock bb = workloads::make_elliptic_wave_filter();
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  energy::EnergyParams params;
  const alloc::AllocationProblem p =
      alloc::make_problem_from_block(bb, s, 1, params);
  const RegisterFileSizing sizing = size_register_file(p, 0.05);
  ASSERT_GT(sizing.registers, 0);
  EXPECT_LE(sizing.registers, p.max_density());
  EXPECT_LE(sizing.energy, sizing.asymptote * 1.05 + 1e-9);

  // One register fewer must violate the tolerance (it is the knee).
  if (sizing.registers > 0) {
    alloc::AllocationProblem smaller = p;
    smaller.num_registers = sizing.registers - 1;
    const alloc::AllocationResult r = alloc::allocate(smaller);
    if (r.feasible) {
      EXPECT_GT(r.energy(smaller), sizing.asymptote * 1.05);
    }
  }
}

TEST(SizeRegisterFile, ZeroToleranceNeedsNearFullFile) {
  const ir::BasicBlock bb = workloads::make_fir(6);
  const sched::Schedule s = sched::list_schedule(bb, {2, 1});
  energy::EnergyParams params;
  const alloc::AllocationProblem p =
      alloc::make_problem_from_block(bb, s, 1, params);
  const RegisterFileSizing strict = size_register_file(p, 0.0);
  const RegisterFileSizing loose = size_register_file(p, 0.5);
  EXPECT_GE(strict.registers, loose.registers);
}

}  // namespace
}  // namespace lera::pipeline
