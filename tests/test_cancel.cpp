#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "netflow/netflow.hpp"

/// Tests of the cooperative-cancellation primitives (CancelToken,
/// Deadline) and of SolveGuard's adaptive wall-clock polling — the
/// foundation the engine's deadline/cancellation supervision stands on.

namespace lera::netflow {
namespace {

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
// CancelToken

TEST(CancelToken, DefaultTokenIsInert) {
  CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  t.request_cancel();  // No-op, no crash.
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, MakeRequestCancelIsStickyAndShared) {
  CancelToken t = CancelToken::make();
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(t.cancelled());
  CancelToken copy = t;  // Copies share the flag.
  t.request_cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(copy.cancelled());
  t.request_cancel();  // Idempotent.
  EXPECT_TRUE(t.cancelled());
}

TEST(CancelToken, ChildInheritsAncestorCancellation) {
  CancelToken root = CancelToken::make();
  CancelToken mid = root.child();
  CancelToken leaf = mid.child();
  EXPECT_FALSE(leaf.cancelled());
  root.request_cancel();
  EXPECT_TRUE(mid.cancelled());
  EXPECT_TRUE(leaf.cancelled());
}

TEST(CancelToken, ChildCancellationDoesNotPropagateUp) {
  CancelToken root = CancelToken::make();
  CancelToken child = root.child();
  CancelToken sibling = root.child();
  child.request_cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(root.cancelled());
  EXPECT_FALSE(sibling.cancelled());
}

TEST(CancelToken, ChildOfInertTokenIsIndependentlyCancellable) {
  CancelToken child = CancelToken{}.child();
  EXPECT_TRUE(child.valid());
  EXPECT_FALSE(child.cancelled());
  child.request_cancel();
  EXPECT_TRUE(child.cancelled());
}

// ---------------------------------------------------------------------
// Deadline

TEST(DeadlineTest, DefaultIsUnlimited) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
}

TEST(DeadlineTest, AfterZeroOrNegativeIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::after(0).expired());
  EXPECT_TRUE(Deadline::after(-1).expired());
  EXPECT_LE(Deadline::after(-1).remaining_seconds(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineHasPositiveRemaining) {
  const Deadline d = Deadline::after(60);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 30.0);
  EXPECT_LE(d.remaining_seconds(), 60.0);
}

TEST(DeadlineTest, EarlierPicksTheTighterDeadline) {
  const Deadline none;
  const Deadline soon = Deadline::after(1);
  const Deadline late = Deadline::after(100);
  EXPECT_TRUE(Deadline::earlier(none, none).unlimited());
  EXPECT_FALSE(Deadline::earlier(none, soon).unlimited());
  EXPECT_LE(Deadline::earlier(soon, late).remaining_seconds(), 1.0);
  EXPECT_LE(Deadline::earlier(late, soon).remaining_seconds(), 1.0);
}

// ---------------------------------------------------------------------
// SolveGuard: cancellation + adaptive wall-clock polling

TEST(SolveGuard, TokenStopsTickingAndSetsCancelled) {
  SolveGuard guard;
  guard.cancel = CancelToken::make();
  guard.start();
  EXPECT_TRUE(guard.tick());
  guard.cancel.request_cancel();
  // The adaptive stride may defer the poll a few ticks; it must fire
  // well before the old fixed 256-tick stride would have.
  bool stopped = false;
  for (int i = 0; i < 512 && !stopped; ++i) stopped = !guard.tick();
  EXPECT_TRUE(stopped);
  EXPECT_TRUE(guard.cancelled);
  EXPECT_TRUE(guard.exceeded);
  EXPECT_FALSE(guard.time_exceeded);
  EXPECT_FALSE(guard.tick());  // Stays stopped.
}

TEST(SolveGuard, IterationBudgetStillExactAndUnpolled) {
  SolveGuard guard;
  guard.max_iterations = 5;
  guard.start();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(guard.tick());
  EXPECT_FALSE(guard.tick());
  EXPECT_TRUE(guard.exceeded);
  EXPECT_FALSE(guard.cancelled);
  EXPECT_FALSE(guard.time_exceeded);
  EXPECT_EQ(guard.iterations, 6);
}

TEST(SolveGuard, WallClockGranularityStopsNearTheBudget) {
  // Regression for the fixed every-256-ticks poll: with ~1 ms
  // iterations, a 10 ms budget used to run for ~256 ms before the
  // first clock check. The adaptive stride must stop within a small
  // multiple of the budget even with slow iterations.
  SolveGuard guard;
  guard.max_seconds = 0.010;
  guard.start();
  const auto t0 = std::chrono::steady_clock::now();
  bool stopped = false;
  for (int i = 0; i < 1000 && !stopped; ++i) {
    stopped = !guard.tick();
    if (!stopped) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(stopped);
  EXPECT_TRUE(guard.time_exceeded);
  EXPECT_TRUE(guard.exceeded);
  // Generous CI margin, still far below the ~256 ms the old fixed
  // stride needed for this iteration cost.
  EXPECT_LT(elapsed_ms, 100.0);
}

TEST(SolveGuard, FastIterationsAmortiseThePolling) {
  // With no time budget and no token there is nothing to poll; a tight
  // tick loop must not be re-reading the clock.
  SolveGuard guard;
  guard.start();
  for (int i = 0; i < 1 << 20; ++i) ASSERT_TRUE(guard.tick());
  EXPECT_EQ(guard.iterations, 1 << 20);
  EXPECT_FALSE(guard.exceeded);
}

// ---------------------------------------------------------------------
// Cancellation through the solve stack

TEST(SolveCancel, PreCancelledTokenNeverReachesASolver) {
  SolveGuard guard;
  guard.cancel = CancelToken::make();
  guard.cancel.request_cancel();
  const FlowSolution sol = solve(diamond(), SolverKind::kNetworkSimplex,
                                 &guard);
  EXPECT_EQ(sol.status, SolveStatus::kCancelled);
  EXPECT_NE(sol.message.find("cancelled"), std::string::npos);
  EXPECT_TRUE(guard.cancelled);
  EXPECT_EQ(guard.iterations, 0);
}

TEST(SolveCancel, CancelledStatusHasAName) {
  EXPECT_EQ(to_string(SolveStatus::kCancelled), "cancelled");
}

TEST(SolveRobustCancel, PreCancelledTokenShortCircuits) {
  SolveOptions options;
  options.cancel = CancelToken::make();
  options.cancel.request_cancel();
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(diamond(), options, &diag);
  EXPECT_EQ(sol.status, SolveStatus::kCancelled);
  EXPECT_TRUE(diag.cancelled);
  EXPECT_TRUE(diag.attempts.empty());
  EXPECT_NE(diag.message.find("cancelled"), std::string::npos);
}

TEST(SolveRobustCancel, CancellationIsNotABudgetVerdict) {
  // The same configuration without cancellation solves fine; with a
  // fired token the verdict must be kCancelled, never a masquerading
  // kBudgetExceeded (callers treat the two very differently).
  SolveOptions options;
  options.deadline = Deadline::after(60);  // Roomy budget: not the cause.
  options.cancel = CancelToken::make();
  options.cancel.request_cancel();
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(diamond(), options, &diag);
  EXPECT_EQ(sol.status, SolveStatus::kCancelled);
  EXPECT_FALSE(diag.deadline_hit);
}

TEST(SolveRobustCancel, ExpiredDeadlineSurfacesAsBudgetWithDeadlineHit) {
  SolveOptions options;
  options.deadline = Deadline::after(0);
  SolveDiagnostics diag;
  const FlowSolution sol = solve_robust(diamond(), options, &diag);
  EXPECT_EQ(sol.status, SolveStatus::kBudgetExceeded);
  EXPECT_TRUE(diag.deadline_hit);
  EXPECT_FALSE(diag.cancelled);
  EXPECT_TRUE(diag.attempts.empty());
}

TEST(SolveRobustCancel, UnlimitedDeadlineChangesNothing) {
  // The supervision fields at their defaults are bit-identical to the
  // pre-supervision solve path: same attempts, same summary string.
  SolveDiagnostics plain;
  const FlowSolution a = solve_robust(diamond(), {}, &plain);
  SolveOptions with_fields;
  with_fields.deadline = Deadline();  // Explicit default.
  with_fields.cancel = CancelToken();
  SolveDiagnostics supervised;
  const FlowSolution b = solve_robust(diamond(), with_fields, &supervised);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.arc_flow, b.arc_flow);
  EXPECT_EQ(plain.summary(), supervised.summary());
}

}  // namespace
}  // namespace lera::netflow
