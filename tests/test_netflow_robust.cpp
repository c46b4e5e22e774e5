#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "energy/quantize.hpp"
#include "netflow/netflow.hpp"

/// Behavioural tests of the hardened solve path: instance validation,
/// iteration/time budgets, the solver fallback chain, certification of
/// every accepted answer, and the deterministic fault-injection harness
/// that proves the certification layer catches corrupted solutions.

namespace lera::netflow {
namespace {

/// Small transport instance with a unique optimum (cost 12).
Graph simple_transport() {
  Graph g(2);
  g.add_arc(0, 1, 5, 3);
  g.set_supply(0, 4);
  g.set_supply(1, -4);
  return g;
}

/// Multi-path instance that needs several augmentations / pivots.
Graph diamond(Flow supply = 6) {
  Graph g(4);
  g.add_arc(0, 1, 4, 1);
  g.add_arc(0, 2, 4, 2);
  g.add_arc(1, 3, 4, 1);
  g.add_arc(2, 3, 4, 2);
  g.add_arc(1, 2, 2, 1);
  g.set_supply(0, supply);
  g.set_supply(3, -supply);
  return g;
}

// ---------------------------------------------------------------------
// validate_instance

TEST(ValidateInstance, AcceptsWellFormedInstances) {
  const InstanceReport report = validate_instance(diamond());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.warnings.empty());
}

TEST(ValidateInstance, RejectsUnbalancedSupply) {
  Graph g = simple_transport();
  g.add_supply(0, 1);  // Total supply now +1.
  const InstanceReport report = validate_instance(g);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors.front().find("unbalanced"), std::string::npos);
}

TEST(ValidateInstance, RejectsOversizedSupplyAndCapacityAndCost) {
  Graph g(2);
  g.add_arc(0, 1, kInfFlow + 1, kInfCost + 1);
  g.set_supply(0, kInfFlow + 1);
  g.set_supply(1, -(kInfFlow + 1));
  const InstanceReport report = validate_instance(g);
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.errors.size(), 3u);  // Supply, capacity, cost.
}

TEST(ValidateInstance, WarnsWhenWorstCaseObjectiveOverflows) {
  // Each arc is individually in range but |cost|*capacity overflows.
  Graph g(2);
  g.add_arc(0, 1, kInfFlow, kInfCost);
  g.set_supply(0, 1);
  g.set_supply(1, -1);
  const InstanceReport report = validate_instance(g);
  EXPECT_TRUE(report.ok());  // A warning, not a rejection.
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings.front().find("overflow"), std::string::npos);
}

// ---------------------------------------------------------------------
// solve_robust basics

TEST(SolveRobust, OptimalWithCleanDiagnostics) {
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(diamond(), {}, &diag);
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.cost, solve(diamond()).cost);
  EXPECT_EQ(diag.attempts.size(), 1u);
  EXPECT_EQ(diag.fallbacks_taken, 0);
  EXPECT_EQ(diag.certification, CertificationVerdict::kPassed);
  EXPECT_TRUE(diag.instance_errors.empty());
  EXPECT_FALSE(diag.message.empty());
  EXPECT_GE(diag.wall_seconds, 0.0);
  EXPECT_FALSE(diag.summary().empty());
}

TEST(SolveRobust, BadInstanceNeverReachesASolver) {
  Graph g = simple_transport();
  g.add_supply(0, 3);  // Unbalanced.
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, {}, &diag);
  EXPECT_EQ(sol.status, SolveStatus::kBadInstance);
  EXPECT_FALSE(sol.message.empty());
  EXPECT_TRUE(diag.attempts.empty());
  ASSERT_FALSE(diag.instance_errors.empty());
  EXPECT_EQ(diag.certification, CertificationVerdict::kNotRun);
}

TEST(SolveRobust, InfeasibleCrossCheckedByASecondSolver) {
  Graph g(3);  // Demand 3 through capacity-2 arcs: infeasible.
  g.add_arc(0, 1, 2, 1);
  g.add_arc(1, 2, 2, 1);
  g.set_supply(0, 3);
  g.set_supply(2, -3);
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, {}, &diag);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_GE(diag.attempts.size(), 2u);  // Verdict confirmed, not trusted.
}

TEST(SolveRobust, IterationBudgetSurfacesAsBudgetExceeded) {
  SolveOptions options;
  options.chain = {SolverKind::kSuccessiveShortestPaths};
  options.max_iterations_per_solver = 1;  // Diamond needs more than one.
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(diamond(), options, &diag);
  EXPECT_EQ(sol.status, SolveStatus::kBudgetExceeded);
  EXPECT_FALSE(sol.message.empty());
  ASSERT_EQ(diag.attempts.size(), 1u);
  EXPECT_EQ(diag.attempts[0].status, SolveStatus::kBudgetExceeded);
}

TEST(SolveRobust, BudgetExhaustionFallsThroughTheChain) {
  // The budget is per attempt: when the primary runs out, the chain
  // moves on instead of aborting the whole solve. The diamond needs
  // several SSP augmentations, so the primary must trip; whether a
  // one-iteration fallback can still finish is solver-dependent, but
  // either way the exhaustion is recorded and nothing uncertified leaks.
  SolveOptions options;
  options.chain = {SolverKind::kSuccessiveShortestPaths,
                   SolverKind::kNetworkSimplex,
                   SolverKind::kCycleCanceling};
  options.max_iterations_per_solver = 1;
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(diamond(), options, &diag);
  ASSERT_FALSE(diag.attempts.empty());
  EXPECT_EQ(diag.attempts.front().status, SolveStatus::kBudgetExceeded);
  if (sol.optimal()) {
    EXPECT_EQ(sol.cost, solve(diamond()).cost);
    EXPECT_GE(diag.fallbacks_taken, 1);
    EXPECT_EQ(diag.certification, CertificationVerdict::kPassed);
  } else {
    EXPECT_EQ(sol.status, SolveStatus::kBudgetExceeded);
    EXPECT_EQ(diag.attempts.size(), 3u);
  }
}

TEST(SolveRobust, WallClockBudgetIsHonoured) {
  SolveOptions options;
  options.deadline = Deadline::after(1e-12);  // Validation alone exceeds this.
  const FlowSolution sol = solve_robust(diamond(), options);
  EXPECT_EQ(sol.status, SolveStatus::kBudgetExceeded);
}

TEST(SolveRobust, StFlowVariantMatchesPlainStFlow) {
  // The allocator's entry point: fixed-value s-t flow.
  Graph g(4);
  g.add_arc(0, 1, 2, 5);
  g.add_arc(0, 2, 2, 1);
  g.add_arc(1, 3, 2, 1);
  g.add_arc(2, 3, 2, 4);
  SolveDiagnostics diag;
  const FlowSolution robust = solve_st_flow_robust(g, 0, 3, 2, {}, &diag);
  const FlowSolution plain = solve_st_flow(g, 0, 3, 2);
  ASSERT_TRUE(robust.optimal());
  ASSERT_TRUE(plain.optimal());
  EXPECT_EQ(robust.cost, plain.cost);
  EXPECT_EQ(diag.certification, CertificationVerdict::kPassed);
}

// ---------------------------------------------------------------------
// Fault injection and certification

TEST(SolveRobust, CorruptedFirstAttemptIsCaughtAndCorrected) {
  const Graph g = diamond();
  const Cost reference = solve(g).cost;

  FaultInjector injector(7);  // Corrupts the first optimal answer only.
  SolveOptions options;
  options.post_solve_hook = injector.hook();
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, options, &diag);

  ASSERT_EQ(injector.faults_injected(), 1) << "fault did not apply";
  ASSERT_TRUE(sol.optimal()) << diag.summary();
  EXPECT_EQ(sol.cost, reference);
  EXPECT_GE(diag.fallbacks_taken, 1);
  EXPECT_EQ(diag.certification, CertificationVerdict::kPassed);
  ASSERT_EQ(diag.attempts.size(), 2u);
  EXPECT_FALSE(diag.attempts[0].certified);
  EXPECT_NE(diag.attempts[0].note.find("certification failed"),
            std::string::npos);
  // The rejected backend is not re-run: the next one answers.
  EXPECT_TRUE(diag.attempts[1].certified);
  EXPECT_NE(diag.attempts[1].solver, diag.attempts[0].solver);
  EXPECT_EQ(diag.solver_used, diag.attempts[1].solver);
}

TEST(SolveRobust, AllAttemptsCorruptedSurfacesAsUncertified) {
  const Graph g = diamond();
  FaultInjectorOptions fopts;
  fopts.max_faulty_attempts = 1000;  // Corrupt every answer in the chain.
  FaultInjector injector(11, fopts);
  SolveOptions options;
  options.post_solve_hook = injector.hook();
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(g, options, &diag);

  EXPECT_EQ(sol.status, SolveStatus::kUncertified);
  EXPECT_FALSE(sol.message.empty());
  EXPECT_EQ(diag.certification, CertificationVerdict::kFailed);
  EXPECT_EQ(injector.faults_injected(),
            static_cast<int>(diag.attempts.size()));
  // Each backend of the default chain runs exactly once.
  ASSERT_EQ(diag.attempts.size(), 2u);
  EXPECT_NE(diag.attempts[0].solver, diag.attempts[1].solver);
  for (const SolveAttempt& attempt : diag.attempts) {
    EXPECT_FALSE(attempt.certified);
  }
}

TEST(FaultInjection, DeterministicInTheSeed) {
  const Graph g = diamond();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FlowSolution a = solve(g);
    FlowSolution b = solve(g);
    FaultInjector ia(seed);
    FaultInjector ib(seed);
    ia.perturb(g, a);
    ib.perturb(g, b);
    ASSERT_EQ(ia.log(), ib.log()) << "seed " << seed;
    EXPECT_EQ(a.arc_flow, b.arc_flow) << "seed " << seed;
    EXPECT_EQ(a.cost, b.cost) << "seed " << seed;
  }
}

TEST(FaultInjection, EveryFaultBreaksCertification) {
  const Graph g = diamond();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    FlowSolution sol = solve(g);
    ASSERT_TRUE(sol.optimal());
    FaultInjector injector(seed);
    injector.perturb(g, sol);
    ASSERT_EQ(injector.faults_injected(), 1) << "seed " << seed;
    // The perturbed answer must flunk the feasibility-level checks:
    // either the flow itself is invalid or the reported cost lies.
    const CheckResult feasible = check_feasible(g, sol.arc_flow);
    Cost actual = 0;
    const bool cost_ok = checked_flow_cost(g, sol.arc_flow, actual) &&
                         actual == sol.cost;
    EXPECT_FALSE(feasible.ok && cost_ok)
        << "seed " << seed << ": undetectable fault "
        << (injector.log().empty() ? "?" : injector.log().front());
  }
}

// ---------------------------------------------------------------------
// Overflow-checked arithmetic (satellite: checked_add / checked_mul)

TEST(CheckedArithmetic, AddAndMulDetectOverflow) {
  const Cost max = std::numeric_limits<Cost>::max();
  Cost out = 0;
  EXPECT_TRUE(checked_add(max - 1, 1, out));
  EXPECT_EQ(out, max);
  EXPECT_FALSE(checked_add(max, 1, out));
  EXPECT_FALSE(checked_add(-max, -2, out));
  EXPECT_TRUE(checked_mul(max / 2, 2, out));
  EXPECT_FALSE(checked_mul(max / 2, 3, out));
  EXPECT_FALSE(checked_mul(max, max, out));
  EXPECT_TRUE(checked_mul(0, max, out));
  EXPECT_EQ(out, 0);
}

TEST(CheckedArithmetic, SaturateCostClampsToTheSafeRange) {
  EXPECT_EQ(saturate_cost(0), 0);
  EXPECT_EQ(saturate_cost(kInfCost), kInfCost);
  EXPECT_EQ(saturate_cost(kInfCost + 1), kInfCost);
  EXPECT_EQ(saturate_cost(std::numeric_limits<Cost>::max()), kInfCost);
  EXPECT_EQ(saturate_cost(-kInfCost - 1), -kInfCost);
  EXPECT_EQ(saturate_cost(std::numeric_limits<Cost>::min()), -kInfCost);
}

TEST(CheckedArithmetic, FlowCostSaturatesNearInt64Max) {
  // Two arcs whose exact cost sum would overflow int64.
  Graph g(2);
  const Cost huge = std::numeric_limits<Cost>::max() / 2;
  g.add_arc(0, 1, 2, huge);
  g.add_arc(0, 1, 2, huge);
  const std::vector<Flow> flow = {2, 2};  // 2*huge + 2*huge overflows.
  Cost total = 0;
  EXPECT_FALSE(checked_flow_cost(g, flow, total));
  EXPECT_EQ(flow_cost(g, flow), kInfCost);  // Saturates, no UB.

  const std::vector<Flow> negative = {-2, -2};
  EXPECT_EQ(flow_cost(g, negative), -kInfCost);

  const std::vector<Flow> wrong_size = {1};
  EXPECT_FALSE(checked_flow_cost(g, wrong_size, total));
  EXPECT_EQ(flow_cost(g, wrong_size), 0);

  const std::vector<Flow> fits = {1, 0};
  EXPECT_TRUE(checked_flow_cost(g, fits, total));
  EXPECT_EQ(total, huge);
  EXPECT_EQ(flow_cost(g, fits), huge);
}

TEST(CheckedArithmetic, QuantizerSaturatesOutOfRangeEnergies) {
  const energy::Quantizer q(1e-6);
  EXPECT_EQ(q.quantize(1e60), kInfCost);
  EXPECT_EQ(q.quantize(-1e60), -kInfCost);
  EXPECT_EQ(q.quantize(std::numeric_limits<double>::infinity()), kInfCost);
  EXPECT_EQ(q.quantize(-std::numeric_limits<double>::infinity()),
            -kInfCost);
  EXPECT_EQ(q.quantize(std::numeric_limits<double>::quiet_NaN()), kInfCost);
  EXPECT_EQ(q.quantize(2.0), 2000000);  // Ordinary values unaffected.
}

}  // namespace
}  // namespace lera::netflow
