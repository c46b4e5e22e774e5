#include "alloc/incremental.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "workloads/random_gen.hpp"

// Incremental-edit repair: re-solving an edited instance from the
// previous optimal flow must be indistinguishable from a cold solve —
// the 100-seed differential sweep asserts the repaired objective is
// bit-equal to the cold solve's for every edit class (add a variable,
// remove a variable, shift a lifetime), and that repairs actually
// happen (the machinery is exercised, not silently falling back).

namespace lera::alloc {
namespace {

AllocationProblem random_problem(std::uint64_t seed, int num_vars,
                                 int registers) {
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = num_vars;
  lopts.num_steps = 14;
  lopts.max_reads = 2;
  std::vector<lifetime::Lifetime> lts =
      workloads::random_lifetimes(seed, lopts);
  // Stable unique names so the repair can match variables by name.
  for (std::size_t v = 0; v < lts.size(); ++v) {
    lts[v].name = "v" + std::to_string(v);
  }
  energy::ActivityMatrix act(lts.size());
  return make_problem(std::move(lts), lopts.num_steps, registers,
                      energy::EnergyParams{}, std::move(act));
}

AllocationProblem rebuild(const AllocationProblem& p,
                          std::vector<lifetime::Lifetime> lts) {
  energy::ActivityMatrix act(lts.size());
  return make_problem(std::move(lts), p.num_steps, p.num_registers,
                      p.params, std::move(act));
}

/// One of three edit classes, chosen by seed: add a variable, remove
/// one, or shift one lifetime a step later.
AllocationProblem edited(const AllocationProblem& p, std::uint64_t seed) {
  std::vector<lifetime::Lifetime> lts = p.lifetimes;
  switch (seed % 3) {
    case 0: {  // Add a short-lived variable.
      lifetime::Lifetime extra;
      extra.name = "added";
      extra.write_time = 1 + static_cast<int>(seed % 5);
      extra.read_times = {extra.write_time + 2};
      lts.push_back(extra);
      break;
    }
    case 1: {  // Remove the last variable.
      if (lts.size() > 2) lts.pop_back();
      break;
    }
    default: {  // Shift one variable's lifetime a step later.
      lifetime::Lifetime& lt = lts[seed % lts.size()];
      if (lt.read_times.back() < p.num_steps) {
        lt.write_time += 1;
        for (int& r : lt.read_times) r += 1;
      }
      break;
    }
  }
  return rebuild(p, std::move(lts));
}

TEST(Incremental, DifferentialSweepMatchesColdSolve) {
  AllocatorOptions cold_opts;
  cold_opts.certify = true;
  IncrementalStats totals;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    IncrementalAllocator inc;
    const AllocationProblem base =
        random_problem(seed, 4 + static_cast<int>(seed % 5), 2);
    const AllocationResult first = inc.solve(base);
    const AllocationResult cold_first = allocate(base, cold_opts);
    ASSERT_EQ(first.feasible, cold_first.feasible) << "seed " << seed;
    if (first.feasible) {
      EXPECT_EQ(first.model_energy, cold_first.model_energy)
          << "seed " << seed;
    }

    const AllocationProblem next = edited(base, seed);
    const AllocationResult repaired = inc.solve(next);
    const AllocationResult cold = allocate(next, cold_opts);
    ASSERT_EQ(repaired.feasible, cold.feasible) << "seed " << seed;
    if (cold.feasible) {
      // Bit-equal objective: a repair that cannot prove optimality must
      // have fallen back to a cold solve, so there is no tolerance.
      EXPECT_EQ(repaired.model_energy, cold.model_energy)
          << "seed " << seed;
      EXPECT_TRUE(validate_assignment(next, repaired.assignment).empty())
          << "seed " << seed;
    }
    const IncrementalStats& s = inc.stats();
    totals.cold_solves += s.cold_solves;
    totals.repairs_attempted += s.repairs_attempted;
    totals.repairs_succeeded += s.repairs_succeeded;
    totals.repair_fallbacks += s.repair_fallbacks;
  }
  // The sweep must exercise the repair path for real: most edits are
  // small, so certified repairs should dominate fallbacks.
  EXPECT_GT(totals.repairs_attempted, 0);
  EXPECT_GT(totals.repairs_succeeded, 0);
  EXPECT_EQ(totals.repairs_succeeded + totals.repair_fallbacks,
            totals.repairs_attempted);
}

TEST(Incremental, ResetForcesColdSolve) {
  IncrementalAllocator inc;
  const AllocationProblem p = random_problem(1, 5, 2);
  ASSERT_TRUE(inc.solve(p).feasible);
  EXPECT_EQ(inc.stats().cold_solves, 1);
  inc.reset();
  ASSERT_TRUE(inc.solve(p).feasible);
  EXPECT_EQ(inc.stats().cold_solves, 2);
  EXPECT_EQ(inc.stats().repairs_attempted, 0);
}

TEST(Incremental, IdenticalResubmissionRepairsInstantly) {
  IncrementalAllocator inc;
  const AllocationProblem p = random_problem(2, 6, 2);
  const AllocationResult first = inc.solve(p);
  ASSERT_TRUE(first.feasible);
  const AllocationResult again = inc.solve(p);
  ASSERT_TRUE(again.feasible);
  EXPECT_EQ(again.model_energy, first.model_energy);
  EXPECT_GE(inc.stats().repairs_succeeded, 1);
}

TEST(Incremental, IdenticalStaticResubmissionNeedsNoAugmentations) {
  // The static model takes the sparse encoding, whose hub arcs and hub
  // nodes are keyed by event time: the resubmitted baseline maps onto
  // every arc and node, so the repair has nothing to drain.
  int hits = 0;
  std::int64_t augmentations = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    IncrementalAllocator inc;
    const AllocationProblem p =
        random_problem(seed, 4 + static_cast<int>(seed % 9), 2);
    ASSERT_TRUE(uses_sparse_encoding(p));
    ASSERT_TRUE(inc.solve(p).feasible) << "seed " << seed;
    const AllocationResult again = inc.solve(p);
    ASSERT_TRUE(again.feasible) << "seed " << seed;
    if (again.solve_diagnostics.warm_start_hit) ++hits;
    augmentations += again.solve_diagnostics.perf.augmentations;
  }
  EXPECT_EQ(hits, 50);
  EXPECT_EQ(augmentations, 0);
}

TEST(Incremental, GateRefusalIsNotAFallback) {
  // A register-count change fails the repair gate before any repair
  // runs: that solve is cold, not a failed repair, so the accounting
  // identity succeeded + fallbacks == attempted must still hold.
  IncrementalAllocator inc;
  AllocationProblem p = random_problem(3, 6, 2);
  ASSERT_TRUE(inc.solve(p).feasible);
  p.num_registers = 3;
  ASSERT_TRUE(inc.solve(p).feasible);
  const IncrementalStats& s = inc.stats();
  EXPECT_EQ(s.cold_solves, 2);
  EXPECT_EQ(s.repairs_attempted, 0);
  EXPECT_EQ(s.repair_fallbacks, 0);
  EXPECT_EQ(s.repairs_succeeded + s.repair_fallbacks, s.repairs_attempted);
}

TEST(Incremental, RepairCarriesTheRobustSolveDiagnostics) {
  // A repair is a solve_robust warm attempt like any other, so its
  // result reports through the standard diagnostics.
  IncrementalAllocator inc;
  const AllocationProblem p = random_problem(2, 6, 2);
  ASSERT_TRUE(inc.solve(p).feasible);
  const AllocationResult again = inc.solve(p);
  ASSERT_TRUE(again.feasible) << again.message;
  ASSERT_EQ(inc.stats().repairs_succeeded, 1);
  const netflow::SolveDiagnostics& d = again.solve_diagnostics;
  ASSERT_EQ(d.attempts.size(), 1u);
  EXPECT_EQ(d.attempts.front().note, "warm-start");
  EXPECT_TRUE(d.attempts.front().certified);
  EXPECT_TRUE(d.warm_start_attempted);
  EXPECT_TRUE(d.warm_start_hit);
  EXPECT_EQ(d.certification, netflow::CertificationVerdict::kPassed);
  EXPECT_EQ(d.perf.warm_start_hits, 1);
  EXPECT_GT(d.wall_seconds, 0);
}

}  // namespace
}  // namespace lera::alloc
