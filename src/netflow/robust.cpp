#include "netflow/robust.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <sstream>

#include "netflow/select.hpp"
#include "netflow/validate.hpp"
#include "netflow/warm.hpp"
#include "netflow/workspace.hpp"

namespace lera::netflow {

std::string to_string(CertifyLevel level) {
  switch (level) {
    case CertifyLevel::kFeasible:
      return "feasible";
    case CertifyLevel::kOptimal:
      return "optimal";
  }
  return "unknown";
}

std::string to_string(CertificationVerdict verdict) {
  switch (verdict) {
    case CertificationVerdict::kNotRun:
      return "not-run";
    case CertificationVerdict::kPassed:
      return "passed";
    case CertificationVerdict::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string SolveDiagnostics::summary() const {
  std::ostringstream os;
  os << message;
  if (!attempts.empty()) {
    os << " [attempts:";
    for (const SolveAttempt& a : attempts) {
      os << " " << to_string(a.solver) << "=" << to_string(a.status);
      if (!a.certified && !a.note.empty()) os << "(rejected)";
    }
    os << " cert=" << to_string(certification) << "]";
  }
  if (auto_selected) {
    os << " [auto: " << to_string(auto_choice) << " | " << auto_features
       << "]";
  }
  return os.str();
}

InstanceReport validate_instance(const Graph& g) {
  InstanceReport report;
  auto error = [&report](const std::string& m) { report.errors.push_back(m); };

  if (g.total_supply() != 0) {
    error("unbalanced instance: total supply is " +
          std::to_string(g.total_supply()) +
          ", a feasible b-flow requires 0");
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Flow b = g.supply(v);
    if (b > kInfFlow || b < -kInfFlow) {
      error("node " + std::to_string(v) + " supply " + std::to_string(b) +
            " exceeds the safe magnitude kInfFlow");
    }
  }

  Cost worst_case = 0;
  bool worst_case_overflow = false;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    // Built only when a finding is reported: every robust solve runs
    // this loop, and almost every instance is clean.
    const auto label = [a]() { return "arc " + std::to_string(a); };
    if (arc.tail < 0 || arc.tail >= g.num_nodes() || arc.head < 0 ||
        arc.head >= g.num_nodes()) {
      error(label() + " has an endpoint outside the node range");
      continue;
    }
    if (arc.lower < 0) {
      error(label() + " has negative lower bound " +
            std::to_string(arc.lower));
    }
    if (arc.lower > arc.upper) {
      error(label() + " has lower bound " + std::to_string(arc.lower) +
            " above capacity " + std::to_string(arc.upper));
    }
    if (arc.upper > kInfFlow) {
      error(label() + " capacity " + std::to_string(arc.upper) +
            " exceeds the safe magnitude kInfFlow");
    }
    if (arc.cost > kInfCost || arc.cost < -kInfCost) {
      error(label() + " cost " + std::to_string(arc.cost) +
            " exceeds the overflow-safe magnitude kInfCost");
    }
    // Overflow-checked worst-case objective magnitude |cost| * capacity.
    Cost term = 0;
    const Cost abs_cost = arc.cost < 0 ? -arc.cost : arc.cost;
    const Flow cap = std::max<Flow>(arc.upper, 0);
    if (!checked_mul(abs_cost, cap, term) ||
        !checked_add(worst_case, term, worst_case)) {
      worst_case_overflow = true;
    }
  }
  if (worst_case_overflow) {
    report.warnings.push_back(
        "worst-case |cost|*capacity sum overflows Cost; objective values "
        "near the optimum may be unreliable");
  }
  return report;
}

namespace {

std::vector<SolverKind> effective_chain(const Graph& g,
                                        const SolveOptions& options,
                                        SolveDiagnostics& diag,
                                        SolverWorkspace& ws) {
  std::vector<SolverKind> chain = options.chain;
  if (chain.empty()) {
    chain = {SolverKind::kNetworkSimplex,
             SolverKind::kSuccessiveShortestPaths};
  }
  // Expand SolverKind::kAuto in place: measure the instance once, ask
  // the shape-based selector for a concrete backend, and record the
  // decision so logs and tests can see why it was made.
  if (std::find(chain.begin(), chain.end(), SolverKind::kAuto) !=
      chain.end()) {
    InstanceShape shape = measure_shape(g);
    shape.warm_cache_match =
        options.warm_cache != nullptr && options.warm_cache->matches(g);
    const SolverKind choice = select_solver(shape);
    diag.auto_selected = true;
    diag.auto_choice = choice;
    diag.auto_features = shape.summary();
    ++ws.counters.auto_selections;
    std::replace(chain.begin(), chain.end(), SolverKind::kAuto, choice);
  }
  // Drop duplicates, keeping first occurrences, so each backend runs at
  // most once: re-running the identical deterministic algorithm cannot
  // change the answer.
  std::vector<SolverKind> unique;
  for (SolverKind kind : chain) {
    if (std::find(unique.begin(), unique.end(), kind) == unique.end()) {
      unique.push_back(kind);
    }
  }
  return unique;
}

/// Runs the configured certification checks; returns true when the
/// answer passes, otherwise false with the reason in \p why.
bool certify_answer(const Graph& g, const FlowSolution& sol,
                    CertifyLevel level, std::string& why) {
  const CheckResult feasible = check_feasible(g, sol.arc_flow);
  if (!feasible.ok) {
    why = "not a feasible b-flow: " + feasible.message;
    return false;
  }
  Cost actual = 0;
  if (!checked_flow_cost(g, sol.arc_flow, actual)) {
    why = "flow cost overflows Cost";
    return false;
  }
  if (actual != sol.cost) {
    why = "reported cost " + std::to_string(sol.cost) +
          " does not match recomputed cost " + std::to_string(actual);
    return false;
  }
  if (level == CertifyLevel::kOptimal && !certify_optimal(g, sol.arc_flow)) {
    why = "residual network has a negative-cost cycle (non-optimal)";
    return false;
  }
  return true;
}

}  // namespace

FlowSolution solve_robust(const Graph& g, const SolveOptions& options,
                          SolveDiagnostics* diagnostics) {
  SolveDiagnostics local;
  SolveDiagnostics& diag = diagnostics != nullptr ? *diagnostics : local;
  diag = SolveDiagnostics{};

  // All attempts run through one scratch arena: the caller's, or a
  // throwaway local one so the perf counters are populated either way.
  SolverWorkspace local_ws;
  SolverWorkspace* ws =
      options.workspace != nullptr ? options.workspace : &local_ws;
  // Baseline first, so this solve's reuse hit lands in its own delta.
  const PerfCounters perf_base = ws->counters;
  if (ws->used) ++ws->counters.workspace_reuse_hits;
  ws->used = true;

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  auto ns_since = [](std::chrono::steady_clock::time_point from) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - from)
        .count();
  };
  auto finish = [&](FlowSolution sol) {
    diag.wall_seconds = elapsed();
    diag.perf = ws->counters.delta_since(perf_base);
    return sol;
  };
  auto cancelled_verdict = [&]() {
    diag.cancelled = true;
    FlowSolution out;
    out.status = SolveStatus::kCancelled;
    out.message = "cancelled by caller";
    diag.message = "cancelled after " +
                   std::to_string(diag.attempts.size()) + " attempt(s)";
    return finish(out);
  };

  if (options.cancel.cancelled()) return cancelled_verdict();

  const auto t_validate = std::chrono::steady_clock::now();
  const InstanceReport report = validate_instance(g);
  ws->counters.validate_ns += ns_since(t_validate);
  diag.instance_errors = report.errors;
  diag.instance_warnings = report.warnings;
  if (!report.ok()) {
    FlowSolution bad;
    bad.status = SolveStatus::kBadInstance;
    bad.message = report.errors.front();
    if (report.errors.size() > 1) {
      bad.message += " (+" + std::to_string(report.errors.size() - 1) +
                     " more finding(s))";
    }
    diag.message = "rejected: " + bad.message;
    return finish(bad);
  }

  // Timed wrapper for the certification checks. Certification builds
  // its own residual / adjacency structures, so it can hit allocation
  // failure like any solver; that is not a corrupted answer, and
  // certify_oom lets callers route it down the memory path instead.
  bool certify_oom = false;
  auto certify_timed = [&](const FlowSolution& sol, CertifyLevel level,
                           std::string& why) {
    const auto t_cert = std::chrono::steady_clock::now();
    certify_oom = false;
    bool ok = false;
    try {
      ok = certify_answer(g, sol, level, why);
    } catch (const std::bad_alloc&) {
      why = "certification: allocation failed (out of memory)";
      certify_oom = true;
      diag.memory_hit = true;
    }
    ws->counters.certify_ns += ns_since(t_cert);
    return ok;
  };

  // Resolve the chain (kAuto expansion included) before the warm-start
  // attempt, so the auto-selection story lands in the diagnostics even
  // when the warm path answers without touching the chain.
  const std::vector<SolverKind> chain =
      effective_chain(g, options, diag, *ws);

  // Memory budgeting: each attempt pre-charges its backend's predicted
  // footprint; a denial skips that backend (kMemoryExceeded attempt)
  // and falls through the chain like any other per-attempt failure.
  const bool budgeted = options.memory_budget.valid();
  const InstanceShape mem_shape = budgeted ? measure_shape(g) : InstanceShape{};
  MemoryBudget mem_budget = options.memory_budget;
  /// Charges \p kind's predicted bytes; returns an un-ok() charge (and
  /// records the denial) when the budget refuses.
  auto charge_attempt = [&](SolverKind kind) {
    BudgetCharge charge;
    if (budgeted) {
      const std::int64_t want = estimate_solver_bytes(mem_shape, kind);
      diag.memory_estimated_bytes =
          std::max(diag.memory_estimated_bytes, want);
      charge = BudgetCharge(mem_budget, want);
      if (charge.ok()) {
        ws->counters.mem_charged_bytes += want;
        ws->counters.mem_peak_bytes =
            std::max(ws->counters.mem_peak_bytes, mem_budget.used());
      } else {
        diag.memory_hit = true;
        ++ws->counters.mem_denials;
      }
    }
    return charge;
  };

  // Certified optima, warm or cold, refresh the warm-start cache; a
  // refused store keeps the previous entry and is counted.
  auto refresh_warm_cache = [&](const FlowSolution& sol) {
    if (options.warm_cache == nullptr) return;
    diag.warm_store_attempted = true;
    diag.warm_store = options.warm_cache->store(g, sol.arc_flow);
    if (diag.warm_store != WarmStoreOutcome::kStored) {
      ++ws->counters.warm_store_rejects;
    }
  };

  // One solver attempt, warm or cold: a guard under the per-attempt
  // iteration cap and the \p remaining seconds of the deadline, the
  // timed solve, the test hook and the attempt record. The caller
  // judges the answer.
  auto run_attempt = [&](SolverKind kind, bool warm, double remaining,
                         SolveAttempt& attempt) {
    SolveGuard guard;
    guard.max_iterations = options.max_iterations_per_solver;
    guard.cancel = options.cancel;
    if (!options.deadline.unlimited()) guard.max_seconds = remaining;
    const double t_attempt = elapsed();
    const auto t_solve = std::chrono::steady_clock::now();
    FlowSolution sol;
    if (warm) {
      guard.start();
      try {
        sol = resolve_warm(g, *options.warm_cache, &guard, ws);
      } catch (const std::bad_alloc&) {
        sol.status = SolveStatus::kMemoryExceeded;
        sol.message = "warm-start: allocation failed (out of memory)";
        diag.memory_hit = true;
      }
      // resolve_warm reports a fired token as a spent budget; solve()
      // already tells the two apart.
      if (guard.cancelled) sol.status = SolveStatus::kCancelled;
    } else {
      sol = solve(g, kind, &guard, ws);
    }
    ws->counters.solve_ns += ns_since(t_solve);
    if (sol.status == SolveStatus::kOptimal && options.post_solve_hook) {
      options.post_solve_hook(g, sol);
    }
    if (sol.status == SolveStatus::kBudgetExceeded && guard.time_exceeded) {
      diag.deadline_hit = true;
    }
    attempt.solver = kind;
    attempt.status = sol.status;
    attempt.iterations = guard.iterations;
    attempt.seconds = elapsed() - t_attempt;
    diag.iterations += guard.iterations;
    return sol;
  };

  // Warm start: when the cache holds a prior optimal flow for this very
  // topology, repair it for the new costs/capacities instead of solving
  // cold. The warm answer is certified like a cold one, so a stale or
  // wrong cache entry falls back to the cold chain instead of leaking
  // through.
  if (options.warm_cache != nullptr && options.warm_cache->matches(g)) {
    diag.warm_start_attempted = true;
    const double remaining = options.deadline.remaining_seconds();
    // The warm resolve runs the SSP machinery; budget it like an SSP
    // attempt. A denial just skips the warm path — the cold chain may
    // still find a backend that fits.
    const BudgetCharge warm_charge =
        charge_attempt(SolverKind::kSuccessiveShortestPaths);
    if (remaining > 0 && !(budgeted && !warm_charge.ok())) {
      SolveAttempt attempt;
      attempt.note = "warm-start";
      const FlowSolution sol = run_attempt(
          SolverKind::kSuccessiveShortestPaths, true, remaining, attempt);
      if (sol.status == SolveStatus::kCancelled) {
        diag.attempts.push_back(attempt);
        return cancelled_verdict();
      }
      if (sol.status == SolveStatus::kOptimal) {
        std::string why;
        if (certify_timed(sol, options.certify, why)) {
          attempt.certified = true;
          diag.attempts.push_back(attempt);
          diag.solver_used = SolverKind::kSuccessiveShortestPaths;
          diag.certification = CertificationVerdict::kPassed;
          diag.warm_start_hit = true;
          ++ws->counters.warm_start_hits;
          diag.message = "optimal via warm-start resolve";
          refresh_warm_cache(sol);
          return finish(sol);
        }
        attempt.note = "warm-start rejected: " + why;
      } else {
        attempt.note = "warm-start fell back to cold solve";
      }
      diag.attempts.push_back(attempt);
    }
  }
  if (options.warm_cache != nullptr && !diag.warm_start_hit) {
    ++ws->counters.warm_start_misses;
  }

  int infeasible_votes = 0;
  FlowSolution uncertified;
  bool have_uncertified = false;
  bool budget_hit = false;

  // One attempt per backend (effective_chain drops duplicates): an
  // answer that flunks certification falls through to the next backend.
  for (SolverKind kind : chain) {
    if (options.cancel.cancelled()) return cancelled_verdict();
    const double remaining = options.deadline.remaining_seconds();
    if (remaining <= 0) {
      budget_hit = true;
      diag.deadline_hit = true;
      break;
    }
    const BudgetCharge mem_charge = charge_attempt(kind);
    if (budgeted && !mem_charge.ok()) {
      SolveAttempt denied;
      denied.solver = kind;
      denied.status = SolveStatus::kMemoryExceeded;
      denied.note = "memory budget refused predicted footprint (" +
                    std::to_string(estimate_solver_bytes(mem_shape, kind)) +
                    " bytes)";
      diag.attempts.push_back(denied);
      continue;
    }

    SolveAttempt attempt;
    FlowSolution sol = run_attempt(kind, false, remaining, attempt);
    switch (sol.status) {
      case SolveStatus::kOptimal: {
        std::string why;
        if (certify_timed(sol, options.certify, why)) {
          attempt.certified = true;
          diag.attempts.push_back(attempt);
          diag.solver_used = kind;
          diag.fallbacks_taken = static_cast<int>(diag.attempts.size()) - 1;
          diag.certification = CertificationVerdict::kPassed;
          diag.message = "optimal via " + to_string(kind) +
                         (diag.fallbacks_taken > 0
                              ? " after " +
                                    std::to_string(diag.fallbacks_taken) +
                                    " fallback(s)"
                              : "");
          refresh_warm_cache(sol);
          return finish(sol);
        }
        attempt.note = "certification failed: " + why;
        if (certify_oom) {
          // Out of memory while *checking* the answer, not a corrupted
          // answer: a typed memory attempt, and the next backend gets
          // its turn.
          attempt.status = SolveStatus::kMemoryExceeded;
        } else {
          uncertified = std::move(sol);
          have_uncertified = true;
        }
        diag.attempts.push_back(attempt);
        break;
      }
      case SolveStatus::kInfeasible: {
        ++infeasible_votes;
        diag.attempts.push_back(attempt);
        if (infeasible_votes >= 2) {
          diag.fallbacks_taken = static_cast<int>(diag.attempts.size()) - 1;
          diag.message = "infeasible (confirmed by " +
                         std::to_string(infeasible_votes) + " solver(s))";
          FlowSolution inf;
          inf.status = SolveStatus::kInfeasible;
          return finish(inf);
        }
        break;
      }
      case SolveStatus::kBudgetExceeded:
        budget_hit = true;
        attempt.note = sol.message;
        diag.attempts.push_back(attempt);
        break;
      case SolveStatus::kCancelled:
        attempt.note = sol.message;
        diag.attempts.push_back(attempt);
        return cancelled_verdict();
      case SolveStatus::kMemoryExceeded:
        // A std::bad_alloc escaped the solver and was mapped at the
        // solve() boundary; fall through the chain — a cheaper backend
        // may still fit.
        diag.memory_hit = true;
        attempt.note = sol.message;
        diag.attempts.push_back(attempt);
        break;
      case SolveStatus::kBadInstance:
      case SolveStatus::kUncertified:
        // Unreachable after validate_instance, but fail loud, not wrong.
        attempt.note = sol.message;
        diag.attempts.push_back(attempt);
        diag.message = "rejected by " + to_string(kind) + ": " + sol.message;
        return finish(sol);
    }
  }

  diag.fallbacks_taken =
      std::max(0, static_cast<int>(diag.attempts.size()) - 1);

  if (have_uncertified) {
    // Every optimality claim flunked certification: surface the failure
    // loudly instead of returning a plausible-but-wrong flow.
    diag.certification = CertificationVerdict::kFailed;
    uncertified.status = SolveStatus::kUncertified;
    uncertified.message =
        "every solver answer failed certification; flow must not be used";
    if (infeasible_votes > 0) {
      uncertified.message += " (chain verdicts also conflict: " +
                             std::to_string(infeasible_votes) +
                             " infeasible vote(s))";
    }
    diag.message = uncertified.message;
    return finish(uncertified);
  }
  if (infeasible_votes > 0) {
    diag.message = "infeasible (single solver verdict, chain exhausted)";
    FlowSolution inf;
    inf.status = SolveStatus::kInfeasible;
    return finish(inf);
  }
  FlowSolution out;
  if (budget_hit) {
    out.status = SolveStatus::kBudgetExceeded;
    out.message = "iteration/time budget exhausted across " +
                  std::to_string(diag.attempts.size()) + " attempt(s)";
  } else {
    // The chain is never empty, so every attempt ended in a budget
    // denial or a real allocation failure: the typed memory verdict,
    // mirroring the deadline path so callers (allocator, engine,
    // server) can degrade gracefully.
    out.status = SolveStatus::kMemoryExceeded;
    out.message = "memory budget exhausted across " +
                  std::to_string(diag.attempts.size()) + " attempt(s)";
  }
  diag.message = out.message;
  return finish(out);
}

FlowSolution solve_st_flow_robust(const Graph& g, NodeId s, NodeId t,
                                  Flow value, const SolveOptions& options,
                                  SolveDiagnostics* diagnostics) {
  Graph copy = g;
  copy.add_supply(s, value);
  copy.add_supply(t, -value);
  return solve_robust(copy, options, diagnostics);
}

}  // namespace lera::netflow
