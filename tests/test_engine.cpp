#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_gen.hpp"

namespace lera::engine {
namespace {

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SizeOnePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(4, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i % 7 == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
}

// ---------------------------------------------------------------------
// Helpers

ir::TaskGraph paper_example_app() {
  // Paper-flavoured application: the elliptic wave filter (the paper's
  // benchmark kernel) feeding an FFT stage and an RSP detector.
  ir::TaskGraph tg;
  const ir::TaskId ewf =
      tg.add_task("ewf", workloads::make_elliptic_wave_filter());
  const ir::TaskId fft =
      tg.add_task("fft", workloads::make_fft_butterfly(), {ewf});
  tg.add_task("detect", workloads::make_rsp(3), {fft});
  tg.add_task("filter", workloads::make_fir(6), {ewf});
  return tg;
}

ir::TaskGraph random_app(std::uint64_t seed, int num_tasks,
                         int ops_per_task = 18) {
  ir::TaskGraph tg;
  workloads::RandomDfgOptions dopts;
  dopts.num_ops = ops_per_task;
  for (int i = 0; i < num_tasks; ++i) {
    std::vector<ir::TaskId> deps;
    if (i > 0) deps.push_back(static_cast<ir::TaskId>(i - 1));
    tg.add_task("t" + std::to_string(i),
                workloads::random_dfg(seed + static_cast<std::uint64_t>(i),
                                      dopts),
                std::move(deps));
  }
  return tg;
}

alloc::AllocationProblem random_problem(std::uint64_t seed) {
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 24;
  lopts.num_steps = 16;
  energy::EnergyParams params;
  params.register_model = energy::RegisterModel::kActivity;
  return alloc::make_problem(
      workloads::random_lifetimes(seed, lopts), lopts.num_steps, 4, params,
      workloads::random_activity(seed + 1,
                                 static_cast<std::size_t>(lopts.num_vars)));
}

void expect_same_result(const alloc::AllocationResult& a,
                        const alloc::AllocationResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.degraded, b.degraded) << what;
  EXPECT_EQ(a.flow_cost, b.flow_cost) << what;
  EXPECT_EQ(a.model_energy, b.model_energy) << what;
  EXPECT_EQ(a.registers_used, b.registers_used) << what;
  EXPECT_EQ(a.static_energy.total(), b.static_energy.total()) << what;
  EXPECT_EQ(a.activity_energy.total(), b.activity_energy.total()) << what;
  EXPECT_EQ(a.stats.mem_accesses(), b.stats.mem_accesses()) << what;
  EXPECT_EQ(a.stats.reg_accesses(), b.stats.reg_accesses()) << what;
  EXPECT_EQ(a.stats.mem_locations, b.stats.mem_locations) << what;
  ASSERT_EQ(a.assignment.size(), b.assignment.size()) << what;
  for (std::size_t s = 0; s < a.assignment.size(); ++s) {
    EXPECT_EQ(a.assignment.location(s), b.assignment.location(s))
        << what << " segment " << s;
  }
}

/// Field-for-field equality of two pipeline reports — the determinism
/// guarantee is *bit-identical*, so doubles compare with ==.
void expect_same_report(const PipelineReport& a, const PipelineReport& b) {
  EXPECT_EQ(a.all_feasible, b.all_feasible);
  EXPECT_EQ(a.infeasible_tasks, b.infeasible_tasks);
  EXPECT_EQ(a.tasks_degraded, b.tasks_degraded);
  EXPECT_EQ(a.total_solver_fallbacks, b.total_solver_fallbacks);
  EXPECT_EQ(a.total_static_energy, b.total_static_energy);
  EXPECT_EQ(a.total_activity_energy, b.total_activity_energy);
  EXPECT_EQ(a.total_mem_accesses, b.total_mem_accesses);
  EXPECT_EQ(a.total_reg_accesses, b.total_reg_accesses);
  EXPECT_EQ(a.peak_mem_locations, b.peak_mem_locations);
  EXPECT_EQ(a.peak_mem_read_ports, b.peak_mem_read_ports);
  EXPECT_EQ(a.peak_mem_write_ports, b.peak_mem_write_ports);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const TaskReport& ta = a.tasks[i];
    const TaskReport& tb = b.tasks[i];
    EXPECT_EQ(ta.task, tb.task);
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.feasible, tb.feasible);
    EXPECT_EQ(ta.failure_reason, tb.failure_reason);
    EXPECT_EQ(ta.schedule_length, tb.schedule_length);
    EXPECT_EQ(ta.max_density, tb.max_density);
    EXPECT_EQ(ta.solve_summary, tb.solve_summary);
    expect_same_result(ta.result, tb.result, ta.name);
    EXPECT_EQ(ta.layout.feasible, tb.layout.feasible);
    EXPECT_EQ(ta.layout.locations, tb.layout.locations);
    EXPECT_EQ(ta.layout.address, tb.layout.address);
    EXPECT_EQ(ta.layout.optimized_energy, tb.layout.optimized_energy);
    EXPECT_EQ(ta.layout.naive_energy, tb.layout.naive_energy);
  }
}

// ---------------------------------------------------------------------
// Determinism: parallel == sequential, bit for bit.

TEST(Engine, RunDeterministicAcrossThreadCountsPaperExample) {
  const ir::TaskGraph tg = paper_example_app();
  EngineOptions opts;
  opts.num_registers = 5;

  opts.threads = 1;
  const PipelineReport sequential = Engine(opts).run(tg);
  // threads = 0 resolves to every hardware thread.
  for (int threads : {0, 2, 4, 8}) {
    opts.threads = threads;
    expect_same_report(sequential, Engine(opts).run(tg));
  }
}

TEST(Engine, RunDeterministicAcrossThreadCountsRandomGraphs) {
  for (std::uint64_t seed : {11u, 23u}) {
    const ir::TaskGraph tg = random_app(seed, 6);
    EngineOptions opts;
    opts.num_registers = 4;
    opts.trace_seed = seed;

    opts.threads = 1;
    const PipelineReport sequential = Engine(opts).run(tg);
    opts.threads = 8;
    expect_same_report(sequential, Engine(opts).run(tg));
  }
}

TEST(Engine, ExploreDeterministicAcrossThreadCounts) {
  const ir::BasicBlock bb = workloads::make_elliptic_wave_filter();
  EngineOptions opts;
  opts.threads = 1;
  const ExploreResult sequential = Engine(opts).explore(bb);
  // threads = 0 resolves to every hardware thread.
  for (int threads : {0, 8}) {
    opts.threads = threads;
    const ExploreResult parallel = Engine(opts).explore(bb);
    EXPECT_EQ(sequential.best, parallel.best);
    ASSERT_EQ(sequential.candidates.size(), parallel.candidates.size());
    for (std::size_t i = 0; i < sequential.candidates.size(); ++i) {
      const ScheduleCandidate& a = sequential.candidates[i];
      const ScheduleCandidate& b = parallel.candidates[i];
      EXPECT_EQ(a.label, b.label);
      EXPECT_EQ(a.length, b.length);
      EXPECT_EQ(a.max_density, b.max_density);
      EXPECT_EQ(a.feasible, b.feasible);
      EXPECT_EQ(a.energy, b.energy);
    }
  }
}

// ---------------------------------------------------------------------
// Batched solving

TEST(Engine, AllocateBatchMatchesSequentialSolves) {
  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    problems.push_back(random_problem(seed));
  }
  EngineOptions opts;
  opts.threads = 4;
  const std::vector<alloc::AllocationResult> batch =
      Engine(opts).allocate_batch(problems);
  ASSERT_EQ(batch.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const alloc::AllocationResult lone = alloc::allocate(problems[i]);
    expect_same_result(lone, batch[i], "problem " + std::to_string(i));
  }
}

TEST(Engine, ConcurrencyStress64SolvesAcross8Threads) {
  // >= 64 batched solves across 8 threads; every result must be
  // feasible, optimal and land in its submission slot.
  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 100; seed < 164; ++seed) {
    problems.push_back(random_problem(seed));
  }
  EngineOptions opts;
  opts.threads = 8;
  const Engine engine(opts);
  EXPECT_EQ(engine.threads(), 8);
  const std::vector<alloc::AllocationResult> batch =
      engine.allocate_batch(problems);
  ASSERT_EQ(batch.size(), 64u);
  // Spot-check slot placement against fresh sequential solves.
  for (std::size_t i : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
    expect_same_result(alloc::allocate(problems[i]), batch[i],
                       "slot " + std::to_string(i));
  }
  for (const alloc::AllocationResult& r : batch) {
    EXPECT_TRUE(r.feasible);
    EXPECT_FALSE(r.degraded);
  }
}

TEST(Engine, SessionDeliversResultsByTicket) {
  EngineOptions opts;
  opts.threads = 8;
  const Engine engine(opts);
  Session session = engine.open_session();

  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 200; seed < 264; ++seed) {
    problems.push_back(random_problem(seed));
  }
  for (std::size_t i = 0; i < problems.size(); ++i) {
    EXPECT_EQ(session.submit(problems[i]), i);
  }
  EXPECT_EQ(session.submitted(), problems.size());

  // Tickets resolve out of submission order without deadlock.
  expect_same_result(alloc::allocate(problems[63]), session.result(63),
                     "ticket 63");
  expect_same_result(alloc::allocate(problems[0]), session.result(0),
                     "ticket 0");

  const std::vector<alloc::AllocationResult> all = session.collect();
  ASSERT_EQ(all.size(), problems.size());
  expect_same_result(alloc::allocate(problems[31]), all[31], "collected 31");
}

// ---------------------------------------------------------------------
// Per-task failure visibility

TEST(Engine, InfeasibleTasksAreNamedInTheReport) {
  // Force infeasibility: a memory access period > 1 creates forced
  // (register-only) segments, and R=1 cannot cover the butterfly's
  // parallel lifetimes. Degradation off so the failure surfaces.
  ir::TaskGraph tg;
  tg.add_task("tiny", workloads::make_fir(2));
  tg.add_task("wide", workloads::make_fft_butterfly());

  EngineOptions opts;
  opts.num_registers = 1;
  opts.split.access.period = 3;
  opts.degrade_on_solver_failure = false;
  opts.alloc.fallback_to_baseline = false;
  const PipelineReport report = Engine(opts).run(tg);

  ASSERT_EQ(report.tasks.size(), 2u);
  bool any_infeasible = false;
  for (const TaskReport& tr : report.tasks) {
    EXPECT_EQ(tr.feasible, tr.result.feasible) << tr.name;
    if (!tr.feasible) {
      any_infeasible = true;
      EXPECT_FALSE(tr.failure_reason.empty()) << tr.name;
      EXPECT_NE(tr.solve_summary.find("infeasible"), std::string::npos)
          << tr.name << ": " << tr.solve_summary;
      EXPECT_NE(std::find(report.infeasible_tasks.begin(),
                          report.infeasible_tasks.end(), tr.task),
                report.infeasible_tasks.end())
          << tr.name;
    } else {
      EXPECT_TRUE(tr.failure_reason.empty()) << tr.name;
    }
  }
  ASSERT_TRUE(any_infeasible)
      << "expected at least one infeasible task in this configuration";
  EXPECT_FALSE(report.all_feasible);
  EXPECT_EQ(report.infeasible_tasks.empty(), report.all_feasible);
}

TEST(Engine, FeasibleRunHasNoInfeasibleTasks) {
  EngineOptions opts;
  opts.num_registers = 6;
  const PipelineReport report = Engine(opts).run(paper_example_app());
  EXPECT_TRUE(report.all_feasible);
  EXPECT_TRUE(report.infeasible_tasks.empty());
  for (const TaskReport& tr : report.tasks) {
    EXPECT_TRUE(tr.feasible) << tr.name;
    EXPECT_TRUE(tr.failure_reason.empty()) << tr.name;
  }
}

// ---------------------------------------------------------------------
// Auditing

TEST(Engine, AuditOffIsBitIdenticalToPreAuditReports) {
  // audit_level = kOff must not perturb a single byte of the report:
  // same graph, same options, audit off vs on, non-audit fields equal.
  const ir::TaskGraph tg = paper_example_app();
  EngineOptions off;
  off.threads = 2;
  EngineOptions on = off;
  on.audit_level = audit::AuditLevel::kFullCost;

  const PipelineReport a = Engine(off).run(tg);
  const PipelineReport b = Engine(on).run(tg);
  expect_same_report(a, b);  // Compares every non-audit field.

  EXPECT_EQ(a.tasks_with_audit_findings, 0);
  for (const TaskReport& tr : a.tasks) {
    EXPECT_FALSE(tr.audit.audited) << tr.name;
    EXPECT_FALSE(tr.result.audit.audited) << tr.name;
  }
  for (const TaskReport& tr : b.tasks) {
    EXPECT_TRUE(tr.audit.audited) << tr.name;
    EXPECT_TRUE(tr.audit.clean()) << tr.name << ": "
                                  << tr.audit.summary();
  }
}

TEST(Engine, AuditFindingsPropagateThroughRunWithoutTeardown) {
  // An impossible port budget turns every task with storage traffic
  // into an audited failure — but the solves themselves must all still
  // complete and the report must stay fully populated.
  EngineOptions opts;
  opts.threads = 4;
  opts.audit_level = audit::AuditLevel::kFullCost;
  opts.audit_ports = alloc::PortLimits{};
  opts.audit_ports->mem_read_ports = 0;
  opts.audit_ports->mem_write_ports = 0;
  opts.audit_ports->reg_read_ports = 0;
  opts.audit_ports->reg_write_ports = 0;

  const PipelineReport report = Engine(opts).run(paper_example_app());
  EXPECT_TRUE(report.all_feasible);
  EXPECT_GT(report.tasks_with_audit_findings, 0);
  int with_findings = 0;
  for (const TaskReport& tr : report.tasks) {
    EXPECT_TRUE(tr.feasible) << tr.name;  // Audit never kills a solve.
    EXPECT_TRUE(tr.audit.audited) << tr.name;
    if (!tr.audit.clean()) {
      ++with_findings;
      EXPECT_TRUE(tr.audit.has(audit::FindingKind::kPortOverload))
          << tr.name << ": " << tr.audit.summary();
    }
  }
  EXPECT_EQ(with_findings, report.tasks_with_audit_findings);
}

TEST(Engine, ExploreCandidatesCarryTheirAuditVerdict) {
  EngineOptions opts;
  opts.threads = 4;
  opts.audit_level = audit::AuditLevel::kFullCost;
  opts.audit_ports = alloc::PortLimits{};
  opts.audit_ports->mem_read_ports = 0;
  opts.audit_ports->mem_write_ports = 0;
  opts.audit_ports->reg_read_ports = 0;
  opts.audit_ports->reg_write_ports = 0;

  const ExploreResult explored =
      Engine(opts).explore(workloads::make_elliptic_wave_filter());
  ASSERT_GE(explored.best, 0);
  for (const ScheduleCandidate& c : explored.candidates) {
    if (!c.feasible) continue;
    EXPECT_TRUE(c.audit.audited) << c.label;
    EXPECT_TRUE(c.audit.has(audit::FindingKind::kPortOverload))
        << c.label << ": " << c.audit.summary();
  }
}

TEST(Engine, AllocateBatchAuditsEveryResultWithoutTeardown) {
  EngineOptions opts;
  opts.threads = 4;
  opts.audit_level = audit::AuditLevel::kFullCost;
  opts.audit_ports = alloc::PortLimits{};
  opts.audit_ports->mem_read_ports = 0;
  opts.audit_ports->mem_write_ports = 0;
  opts.audit_ports->reg_read_ports = 0;
  opts.audit_ports->reg_write_ports = 0;
  const Engine engine(opts);

  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    problems.push_back(random_problem(seed));
  }
  const std::vector<alloc::AllocationResult> results =
      engine.allocate_batch(problems);
  ASSERT_EQ(results.size(), problems.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].feasible) << "problem " << i;
    EXPECT_TRUE(results[i].audit.audited) << "problem " << i;
    // Every one of these problems has storage traffic, so the zero-port
    // budget must flag every single slot — siblings never mask findings.
    EXPECT_TRUE(results[i].audit.has(audit::FindingKind::kPortOverload))
        << "problem " << i << ": " << results[i].audit.summary();
  }
}

TEST(Engine, AllocateBatchAuditOffLeavesResultsUntouched) {
  EngineOptions off;
  off.threads = 2;
  EngineOptions on = off;
  on.audit_level = audit::AuditLevel::kLegality;

  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    problems.push_back(random_problem(seed));
  }
  const auto a = Engine(off).allocate_batch(problems);
  const auto b = Engine(on).allocate_batch(problems);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_result(a[i], b[i], "problem " + std::to_string(i));
    EXPECT_FALSE(a[i].audit.audited);
    EXPECT_TRUE(b[i].audit.audited);
    EXPECT_TRUE(b[i].audit.clean()) << b[i].audit.summary();
  }
}

TEST(Engine, SessionCarriesAuditVerdicts) {
  EngineOptions opts;
  opts.threads = 4;
  opts.audit_level = audit::AuditLevel::kFullCost;
  const Engine engine(opts);
  Session session = engine.open_session();

  std::vector<std::size_t> tickets;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    tickets.push_back(session.submit(random_problem(seed)));
  }
  const std::vector<alloc::AllocationResult> results = session.collect();
  ASSERT_EQ(results.size(), tickets.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].feasible) << "ticket " << i;
    EXPECT_TRUE(results[i].audit.audited) << "ticket " << i;
    EXPECT_TRUE(results[i].audit.clean())
        << "ticket " << i << ": " << results[i].audit.summary();
  }
}

TEST(Engine, SessionAuditFindingsDoNotBlockSiblingTickets) {
  EngineOptions opts;
  opts.threads = 4;
  opts.audit_level = audit::AuditLevel::kFullCost;
  opts.audit_ports = alloc::PortLimits{};
  opts.audit_ports->mem_read_ports = 0;
  const Engine engine(opts);
  Session session = engine.open_session();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    session.submit(random_problem(seed));
  }
  const std::vector<alloc::AllocationResult> results = session.collect();
  int flagged = 0;
  for (const alloc::AllocationResult& r : results) {
    EXPECT_TRUE(r.feasible);
    if (!r.audit.clean()) ++flagged;
  }
  // Memory-heavy random problems with 4 registers always read memory
  // somewhere, so the zero-read-port budget flags them all — and every
  // sibling solve still delivered a result.
  EXPECT_EQ(flagged, static_cast<int>(results.size()));
}

// ---------------------------------------------------------------------
// Deadlines: the anytime contract

TEST(Engine, RunDeadlineReturnsPartialReportPromptly) {
  // A 1 ms run deadline on a 24-task graph: most tasks cannot even
  // start. run() must come back promptly with every task accounted for,
  // the curtailed ones flagged — and no task may carry an unflagged
  // (silently uncertified) flow answer. 60-op tasks keep the whole graph
  // over ten times the deadline (about 13 ms with 4 threads on a 4-core
  // Xeon); 18-op tasks on the sparse flow graph can all finish in 1 ms.
  const ir::TaskGraph tg = random_app(7, 24, 60);
  EngineOptions opts;
  opts.threads = 4;
  opts.num_registers = 4;
  opts.run_deadline_seconds = 0.001;
  const Engine engine(opts);

  const auto t0 = std::chrono::steady_clock::now();
  const PipelineReport report = engine.run(tg);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ASSERT_EQ(report.tasks.size(), 24u);
  EXPECT_GT(report.tasks_timed_out, 0);
  EXPECT_EQ(report.timed_out_tasks.size(),
            static_cast<std::size_t>(report.tasks_timed_out));
  for (const TaskReport& tr : report.tasks) {
    if (tr.timed_out) {
      // Anytime answers only: when the *solve itself* ran out of time,
      // the answer is either degraded to the certified-by-construction
      // baseline or honestly infeasible — never an unflagged,
      // uncertified flow. (A task may also be flagged because only its
      // relayout was skipped; its completed flow answer stands.)
      if (tr.result.timed_out) {
        EXPECT_TRUE(tr.result.degraded || !tr.feasible) << tr.name;
      }
      EXPECT_NE(std::find(report.timed_out_tasks.begin(),
                          report.timed_out_tasks.end(), tr.task),
                report.timed_out_tasks.end())
          << tr.name;
      if (!tr.feasible) {
        EXPECT_FALSE(tr.failure_reason.empty()) << tr.name;
      }
    }
  }
  // "Deadline + small epsilon": in-flight solves wind down at their
  // next guard poll. Generous bound so sanitizer builds pass, still
  // orders of magnitude below running the whole graph.
  EXPECT_LT(elapsed, 10.0);

  const EngineStats stats = engine.stats();
  // Skipped-outright tasks never count as started solves.
  EXPECT_LT(stats.solves_started, 24);
  EXPECT_EQ(stats.solves_completed, stats.solves_started);
}

TEST(Engine, TaskDeadlineDegradesToAnytimeBaseline) {
  // A per-task deadline that has already expired when each solve
  // starts: the flow phase is cancelled immediately and every task
  // falls back to the two-phase baseline, flagged timed_out — an
  // anytime answer instead of a silent hang or a silent lie.
  EngineOptions opts;
  opts.threads = 2;
  opts.num_registers = 6;
  opts.task_deadline_seconds = 1e-9;
  const Engine engine(opts);
  const PipelineReport report = engine.run(paper_example_app());

  ASSERT_EQ(report.tasks.size(), 4u);
  EXPECT_EQ(report.tasks_timed_out, 4);
  for (const TaskReport& tr : report.tasks) {
    EXPECT_TRUE(tr.timed_out) << tr.name;
    EXPECT_TRUE(tr.result.degraded || !tr.feasible) << tr.name;
    EXPECT_NE(tr.solve_summary.find("[timed out]"), std::string::npos)
        << tr.name << ": " << tr.solve_summary;
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.solves_started, 4);
  EXPECT_EQ(stats.solves_completed, 4);
  EXPECT_EQ(stats.solves_timed_out, 4);
  EXPECT_EQ(stats.solves_cancelled, 0);
}

TEST(Engine, StatsCountCleanWork) {
  EngineOptions opts;
  opts.threads = 2;
  const Engine engine(opts);

  const EngineStats fresh = engine.stats();
  EXPECT_EQ(fresh.solves_started, 0);
  EXPECT_EQ(fresh.solves_completed, 0);

  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    problems.push_back(random_problem(seed));
  }
  const auto results = engine.allocate_batch(problems);
  ASSERT_EQ(results.size(), 8u);

  const EngineStats after = engine.stats();
  EXPECT_EQ(after.solves_started, 8);
  EXPECT_EQ(after.solves_completed, 8);
  EXPECT_EQ(after.solves_cancelled, 0);
  EXPECT_EQ(after.solves_timed_out, 0);
  EXPECT_EQ(after.solves_degraded, 0);
}

TEST(Engine, PerfTotalsEqualTheFoldOfPerSolveCounters) {
  // Memory accesses only at even steps force some segments into
  // registers, so the solves run the lower-bound reduction too.
  workloads::RandomLifetimeOptions lopts;
  lopts.num_vars = 12;
  lopts.num_steps = 12;
  lifetime::SplitOptions split;
  split.access.period = 2;
  const alloc::AllocationProblem p = alloc::make_problem(
      workloads::random_lifetimes(7, lopts), lopts.num_steps, 6,
      energy::EnergyParams{},
      energy::ActivityMatrix(static_cast<std::size_t>(lopts.num_vars)),
      split);
  ASSERT_TRUE(std::any_of(
      p.segments.begin(), p.segments.end(),
      [](const lifetime::Segment& s) { return s.forced_register; }));

  EngineOptions opts;
  opts.threads = 1;
  const Engine engine(opts);
  const auto results = engine.allocate_batch({p, p, p});
  netflow::PerfCounters fold;
  for (const alloc::AllocationResult& r : results) {
    ASSERT_TRUE(r.feasible) << r.message;
    fold.add(r.solve_diagnostics.perf);
  }
  const netflow::PerfCounters totals = engine.stats().perf;
  EXPECT_EQ(totals.summary(), fold.summary());
  // One leased workspace serves all three solves; the last two reuse it.
  EXPECT_EQ(totals.workspace_reuse_hits, 2);
}

// ---------------------------------------------------------------------
// Session: non-blocking APIs and cancellation

TEST(Engine, SessionNonBlockingApis) {
  EngineOptions opts;
  opts.threads = 2;
  const Engine engine(opts);
  Session session = engine.open_session();

  // Unknown tickets: peek says nothing yet, nothing blocks.
  EXPECT_EQ(session.try_result(0), nullptr);
  EXPECT_EQ(session.status(99), TicketStatus::kPending);
  EXPECT_FALSE(session.wait_for(99, 0.0));

  const alloc::AllocationProblem p = random_problem(5);
  const std::size_t ticket = session.submit(p);
  EXPECT_TRUE(session.wait_for(ticket, 60.0));
  EXPECT_EQ(session.status(ticket), TicketStatus::kDone);
  const alloc::AllocationResult* r = session.try_result(ticket);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->feasible);
  EXPECT_FALSE(r->cancelled);
  EXPECT_FALSE(r->timed_out);
  expect_same_result(alloc::allocate(p), *r, "non-blocking ticket");

  EXPECT_EQ(to_string(TicketStatus::kPending), "pending");
  EXPECT_EQ(to_string(TicketStatus::kRunning), "running");
  EXPECT_EQ(to_string(TicketStatus::kDone), "done");
  EXPECT_EQ(to_string(TicketStatus::kCancelled), "cancelled");
  session.collect();
}

TEST(Engine, SessionPerRequestDeadlineArmsAtSubmission) {
  EngineOptions opts;
  opts.threads = 2;
  const Engine engine(opts);
  Session session = engine.open_session();

  // Ticket 0: a deadline that expired before any worker could pick the
  // job up — queue wait counts, so the solve must surface timed_out
  // with at most a baseline (degraded) answer.
  const std::size_t rushed = session.submit(random_problem(3), 1e-9);
  // Ticket 1: the same engine, no deadline — completely unaffected.
  const alloc::AllocationProblem p = random_problem(4);
  const std::size_t calm = session.submit(p);

  const alloc::AllocationResult& r0 = session.result(rushed);
  EXPECT_TRUE(r0.timed_out);
  EXPECT_TRUE(r0.degraded || !r0.feasible);
  const alloc::AllocationResult& r1 = session.result(calm);
  EXPECT_FALSE(r1.timed_out);
  EXPECT_FALSE(r1.degraded);
  expect_same_result(alloc::allocate(p), r1, "calm ticket");
  session.collect();
}

TEST(Engine, SessionCancelSingleTicketLeavesSiblingsAlone) {
  EngineOptions opts;
  opts.threads = 2;
  const Engine engine(opts);
  Session session = engine.open_session();

  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 50; seed < 66; ++seed) {
    problems.push_back(random_problem(seed));
  }
  for (const alloc::AllocationProblem& p : problems) session.submit(p);
  const std::size_t last = problems.size() - 1;
  session.cancel(last);
  session.cancel(last);   // Idempotent.
  session.cancel(9999);   // Unknown ticket: harmless no-op.

  const std::vector<alloc::AllocationResult> results = session.collect();
  ASSERT_EQ(results.size(), problems.size());
  // The cancelled ticket raced the workers: it either got withdrawn or
  // had already finished — both are terminal, neither hangs.
  EXPECT_TRUE(results[last].cancelled || results[last].feasible);
  // Its siblings must be entirely untouched by the cancellation.
  for (std::size_t i = 0; i < last; ++i) {
    EXPECT_FALSE(results[i].cancelled) << "ticket " << i;
    expect_same_result(alloc::allocate(problems[i]), results[i],
                       "ticket " + std::to_string(i));
  }
}

TEST(Engine, SessionCancelAllWindsDownEveryTicket) {
  // Every solve waits in its post-solve hook until cancel_all() has
  // returned, so at most one solve per worker can finish before the
  // cancellation, however the threads are scheduled.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  EngineOptions opts;
  opts.threads = 4;
  opts.alloc.solve.post_solve_hook = [released](const netflow::Graph&,
                                                netflow::FlowSolution&) {
    released.wait();
  };
  const Engine engine(opts);
  Session session = engine.open_session();
  constexpr std::size_t kN = 32;
  for (std::uint64_t seed = 1; seed <= kN; ++seed) {
    session.submit(random_problem(seed));
  }
  session.cancel_all();
  release.set_value();

  // collect() must not hang: cancelled jobs still run and fast-exit.
  const std::vector<alloc::AllocationResult> results = session.collect();
  ASSERT_EQ(results.size(), kN);
  std::int64_t cancelled = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TicketStatus st = session.status(i);
    EXPECT_TRUE(st == TicketStatus::kDone || st == TicketStatus::kCancelled)
        << "ticket " << i << " ended " << to_string(st);
    if (results[i].cancelled) {
      ++cancelled;
      EXPECT_FALSE(results[i].feasible) << "ticket " << i;
    }
  }
  // The hook holds the workers, so every ticket no worker had taken when
  // cancel_all() fired is withdrawn.
  EXPECT_GE(cancelled, static_cast<std::int64_t>(kN) - opts.threads);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.solves_started, static_cast<std::int64_t>(kN));
  EXPECT_EQ(stats.solves_completed, static_cast<std::int64_t>(kN));
  EXPECT_EQ(stats.solves_cancelled, cancelled);

  // Cancellation is sticky: later submissions on this session are
  // born-cancelled and still reach a terminal state.
  const std::size_t late = session.submit(random_problem(99));
  const alloc::AllocationResult& r = session.result(late);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(session.status(late), TicketStatus::kCancelled);
}

TEST(Engine, SessionCancelAllStressUnderContention) {
  // TSan target: hammer cancellation and status polling against an
  // 8-thread session mid-flight. The invariants under fire: no data
  // race, no hang, and every ticket reaches a terminal state.
  EngineOptions opts;
  opts.threads = 8;
  const Engine engine(opts);
  Session session = engine.open_session();
  constexpr std::size_t kN = 64;

  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    problems.push_back(random_problem(300 + seed));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    session.submit(problems[i % problems.size()]);
  }

  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    std::size_t t = 0;
    while (!stop.load()) {
      session.cancel(t % kN);
      t += 7;  // Visit tickets in a scrambled order.
      std::this_thread::yield();
    }
  });
  std::thread poller([&] {
    std::size_t t = 0;
    while (!stop.load()) {
      (void)session.status(t % kN);
      (void)session.try_result(t % kN);
      (void)session.submitted();
      ++t;
      std::this_thread::yield();
    }
  });

  for (std::size_t i = 16; i < kN; ++i) {
    session.submit(problems[i % problems.size()]);
    if (i == kN / 2) session.cancel_all();
  }
  session.cancel_all();

  const std::vector<alloc::AllocationResult> results = session.collect();
  stop.store(true);
  canceller.join();
  poller.join();

  ASSERT_EQ(results.size(), kN);
  std::int64_t cancelled = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const TicketStatus st = session.status(i);
    EXPECT_TRUE(st == TicketStatus::kDone || st == TicketStatus::kCancelled)
        << "ticket " << i << " ended " << to_string(st);
    if (results[i].cancelled) ++cancelled;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.solves_started, static_cast<std::int64_t>(kN));
  EXPECT_EQ(stats.solves_completed, static_cast<std::int64_t>(kN));
  EXPECT_EQ(stats.solves_cancelled, cancelled);
}

TEST(Engine, SessionWaitForCancelAllRaceStress) {
  // TSan target for the wait_for / cancel_all ordering: 8 threads park
  // inside wait_for with finite timeouts while cancel_all fires
  // repeatedly mid-submission. The contract under fire: wait_for must
  // never miss the terminal-state wakeup (no waiter hangs past the
  // collect()), every blocked waiter eventually sees its ticket done,
  // and no access to the shared session state races.
  EngineOptions opts;
  opts.threads = 4;
  const Engine engine(opts);
  Session session = engine.open_session();
  constexpr std::size_t kN = 48;

  for (std::size_t i = 0; i < kN / 2; ++i) {
    session.submit(random_problem(500 + i));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> observed{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < 8; ++w) {
    waiters.emplace_back([&, w] {
      std::size_t t = static_cast<std::size_t>(w);
      while (!stop.load()) {
        // Mix of instant polls and real blocking waits, across tickets
        // both existing and not-yet-submitted.
        if (session.wait_for(t % kN, (w % 2) == 0 ? 0.0 : 0.005)) {
          observed.fetch_add(1, std::memory_order_relaxed);
        }
        t += 13;
      }
    });
  }
  std::thread canceller([&] {
    while (!stop.load()) {
      session.cancel_all();
      std::this_thread::yield();
    }
  });

  for (std::size_t i = kN / 2; i < kN; ++i) {
    session.submit(random_problem(600 + i));
  }

  // Every ticket must reach a terminal state despite the storm; a hang
  // here is the bug this test exists to catch.
  const std::vector<alloc::AllocationResult> results = session.collect();
  // And a waiter blocked on any ticket must now return promptly.
  for (std::size_t t = 0; t < kN; ++t) {
    EXPECT_TRUE(session.wait_for(t, 5.0)) << "ticket " << t;
  }
  stop.store(true);
  for (std::thread& w : waiters) w.join();
  canceller.join();

  ASSERT_EQ(results.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const TicketStatus st = session.status(i);
    EXPECT_TRUE(st == TicketStatus::kDone || st == TicketStatus::kCancelled)
        << "ticket " << i << " ended " << to_string(st);
  }
  EXPECT_GT(observed.load(), 0);
}

TEST(Engine, DestructionDrainsOutstandingSessionWork) {
  // Destroying the Engine mid-flight fires the shutdown token: queued
  // session jobs still run (the pool drains), but they fast-exit, so
  // teardown is prompt and every slot is written before the pool joins.
  auto engine = std::make_unique<Engine>([] {
    EngineOptions opts;
    opts.threads = 4;
    return opts;
  }());
  Session session = engine->open_session();
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    session.submit(random_problem(seed));
  }
  const auto t0 = std::chrono::steady_clock::now();
  engine.reset();  // Graceful drain.
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 10.0);
  // The pool is gone, so every ticket is terminal by construction.
  const std::vector<alloc::AllocationResult> results = session.collect();
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].cancelled || results[i].feasible)
        << "ticket " << i;
  }
}

TEST(Engine, ShutdownTokenIsExposedForChaining) {
  netflow::CancelToken chained;
  {
    const Engine engine;
    chained = engine.shutdown_token().child();
    EXPECT_FALSE(chained.cancelled());
  }
  EXPECT_TRUE(chained.cancelled());  // ~Engine fired the parent.
}

// ---------------------------------------------------------------------
// One solve path: every entry point's solves see the same supervision,
// audit, stats and cache.

TEST(Engine, EveryEntryPointSolvesUnderTheSameCapAndAudit) {
  EngineOptions opts;
  opts.threads = 2;
  opts.max_bytes_per_solve = 64;  // Too small for any flow attempt.
  opts.alloc.fallback_to_baseline = true;
  opts.audit_level = audit::AuditLevel::kFullCost;
  const Engine engine(opts);
  const auto expect_refused = [](const alloc::AllocationResult& r,
                                 const std::string& what) {
    EXPECT_TRUE(r.memory_exceeded) << what;
    EXPECT_TRUE(r.degraded) << what;
    EXPECT_TRUE(r.audit.audited) << what;
  };

  const PipelineReport report = engine.run(paper_example_app());
  for (const TaskReport& tr : report.tasks) {
    expect_refused(tr.result, "task " + tr.name);
  }

  std::vector<alloc::AllocationProblem> problems;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    problems.push_back(random_problem(seed));
  }
  const std::vector<alloc::AllocationResult> batch =
      engine.allocate_batch(problems);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_refused(batch[i], "batch " + std::to_string(i));
  }

  Session session = engine.open_session();
  for (const alloc::AllocationProblem& p : problems) session.submit(p);
  const std::vector<alloc::AllocationResult> tickets = session.collect();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    expect_refused(tickets[i], "ticket " + std::to_string(i));
  }

  // explore() keeps energies and audits, not results, so its refusals
  // show in the stats.
  const std::int64_t refused_before = engine.stats().solves_memory_exceeded;
  const ExploreResult explored = engine.explore(workloads::make_fir(6));
  EXPECT_EQ(engine.stats().solves_memory_exceeded - refused_before,
            static_cast<std::int64_t>(explored.candidates.size()));

  // Each solve is booked exactly once, whichever entry point ran it.
  const std::int64_t solves = static_cast<std::int64_t>(
      report.tasks.size() + batch.size() + tickets.size() +
      explored.candidates.size());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.solves_started, solves);
  EXPECT_EQ(stats.solves_completed, solves);
  EXPECT_EQ(stats.solves_memory_exceeded, solves);
}

TEST(Engine, AllocateBatchAndSessionsShareOneCache) {
  EngineOptions opts;
  opts.threads = 2;
  opts.cache_entries = 16;
  opts.alloc.certify = true;  // Only certified answers are cached.
  const Engine engine(opts);
  const alloc::AllocationProblem a = random_problem(1);
  const alloc::AllocationProblem b = random_problem(2);
  Session session = engine.open_session();

  // allocate_batch solves a, a Session hits it; a Session solves b,
  // allocate_batch hits it.
  const alloc::AllocationResult cold_a = engine.allocate_batch({a}).front();
  const alloc::AllocationResult hit_a = session.result(session.submit(a));
  const alloc::AllocationResult cold_b = session.result(session.submit(b));
  const alloc::AllocationResult hit_b = engine.allocate_batch({b}).front();
  ASSERT_TRUE(cold_a.feasible && cold_b.feasible);
  expect_same_result(cold_a, hit_a, "a");
  expect_same_result(cold_b, hit_b, "b");

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.solves_started, 2);
  EXPECT_EQ(stats.solves_completed, 2);
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_EQ(stats.cache.insertions, 2);
  EXPECT_EQ(stats.cache.hits, 2);
}

}  // namespace
}  // namespace lera::engine
