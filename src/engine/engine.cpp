#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>

#include "audit/audit.hpp"
#include "sched/force_directed.hpp"

namespace lera::engine {

namespace {

/// Arms the run-wide deadline for one entry-point call.
netflow::Deadline run_deadline_of(const EngineOptions& options) {
  return options.run_deadline_seconds > 0
             ? netflow::Deadline::after(options.run_deadline_seconds)
             : netflow::Deadline();
}

/// One request's effective deadline: the tighter of the run-wide
/// deadline and a fresh per-request one.
netflow::Deadline request_deadline(const EngineOptions& options,
                                   const netflow::Deadline& run_deadline) {
  netflow::Deadline d = run_deadline;
  if (options.task_deadline_seconds > 0) {
    d = netflow::Deadline::earlier(
        d, netflow::Deadline::after(options.task_deadline_seconds));
  }
  return d;
}

/// Uniform random 16-bit input rows for activity measurement. Seeded per
/// task (trace_seed + task_id), so the trace — and therefore the whole
/// allocation — is a pure function of the task and the options, not of
/// the thread that happens to run it.
std::vector<std::vector<std::int64_t>> make_trace(const ir::BasicBlock& bb,
                                                  int samples,
                                                  std::uint64_t seed) {
  int inputs = 0;
  for (const ir::Operation& op : bb.ops()) {
    if (op.opcode == ir::Opcode::kInput) ++inputs;
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> dist(-32768, 32767);
  std::vector<std::vector<std::int64_t>> rows(
      static_cast<std::size_t>(samples));
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(inputs));
    for (auto& v : row) v = dist(rng);
  }
  return rows;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      memory_budget_(netflow::MemoryBudget::make(options_.max_bytes_total)),
      bank_(memory_budget_),
      cache_(AllocCacheOptions{options_.cache_entries, options_.cache_bytes,
                               options_.cache_audit_rate},
             memory_budget_.child(0)),
      pool_(std::make_unique<ThreadPool>(options_.threads)) {}

Engine::~Engine() {
  // Graceful drain: fire the shutdown token first so every queued or
  // in-flight solve (Session jobs included — their tokens chain to this
  // one) winds down at its next poll, then join the pool. The pool
  // destructor runs the remaining queue, so every ticket still reaches
  // a terminal state; it just reaches it fast.
  shutdown_.request_cancel();
  pool_.reset();
}

alloc::AllocationResult Engine::solve(const alloc::AllocationProblem& p,
                                      alloc::AllocatorOptions a,
                                      const netflow::Deadline& deadline,
                                      const netflow::CancelToken& cancel,
                                      bool use_cache) const {
  // A hit serves a certified, already-audited result without booking a
  // solve. The fingerprint is computed once and reused for the insert.
  std::optional<alloc::FingerprintResult> fp;
  if (use_cache && cache_.enabled()) {
    fp = alloc::fingerprint_problem(p);
    if (auto hit = cache_.lookup(p, *fp)) return std::move(*hit);
  }

  // Supervision only tightens what the caller set: the deadline is the
  // earlier of the two, and a caller's own memory budget is kept.
  a.solve.cancel = cancel;
  a.solve.deadline = netflow::Deadline::earlier(a.solve.deadline, deadline);
  if (!a.solve.memory_budget.valid() && memory_budget_.valid()) {
    a.solve.memory_budget = memory_budget_.child(options_.max_bytes_per_solve);
  }
  std::unique_ptr<netflow::SolverWorkspace> ws = bank_.acquire();
  a.solve.workspace = ws.get();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++totals_.solves_started;
  }
  alloc::AllocationResult r = alloc::allocate(p, a);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++totals_.solves_completed;
    totals_.solves_cancelled += r.cancelled;
    totals_.solves_timed_out += r.timed_out;
    totals_.solves_degraded += r.degraded;
    totals_.solves_memory_exceeded += r.memory_exceeded;
    totals_.perf.add(r.solve_diagnostics.perf);
  }

  // Auditing is observation-only: it never alters the allocation,
  // throws, or stops sibling solves, so one bad result in a batch still
  // leaves every other slot intact.
  if (options_.audit_level != audit::AuditLevel::kOff) {
    audit::AuditOptions aopts;
    aopts.level = options_.audit_level;
    aopts.ports = options_.audit_ports;
    r.audit = audit::audit_result(p, r, aopts);
  }
  if (fp.has_value()) cache_.insert(*fp, r);
  bank_.release(std::move(ws));
  return r;
}

EngineStats Engine::stats() const {
  EngineStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s = totals_;
  }
  s.memory_bytes_in_use = memory_budget_.used();
  s.memory_peak_bytes = memory_budget_.peak();
  s.memory_denials = memory_budget_.denials();
  s.cache = cache_.stats();
  // Fold into the perf totals (solves leave the cache_* fields at 0) so
  // LERA_PERF lines carry them too.
  netflow::PerfCounters cache_perf;
  cache_perf.cache_hits = s.cache.hits;
  cache_perf.cache_misses = s.cache.misses;
  cache_perf.cache_evictions = s.cache.evictions + s.cache.audit_evictions;
  cache_perf.cache_audit_samples = s.cache.audit_samples;
  cache_perf.cache_bytes = s.cache.bytes_in_use;
  s.perf.add(cache_perf);
  return s;
}

PipelineReport Engine::run(const ir::TaskGraph& graph) const {
  const netflow::Deadline run_deadline = run_deadline_of(options_);
  const std::vector<ir::TaskId> order = graph.topological_order();
  std::vector<TaskReport> tasks(order.size());

  // Fan the independent per-task solves out; slot i belongs to the i-th
  // task in topological order regardless of which thread solves it. Each
  // is one task's end of the §5 methodology: schedule, trace, allocate,
  // re-pack memory — a pure function of (task, options).
  pool_->parallel_for(order.size(), [&](std::size_t i) {
    const ir::Task& task = graph.task(order[i]);
    TaskReport& tr = tasks[i];
    tr.task = task.id;
    tr.name = task.name;

    // Anytime contract: work not yet started when the run deadline
    // fires (or the engine shuts down) is skipped outright and flagged —
    // the report stays partial-but-honest instead of blocking past the
    // deadline on tasks nobody will wait for.
    if (run_deadline.expired()) {
      tr.timed_out = true;
      tr.failure_reason = "run deadline expired before the task started";
      tr.solve_summary = "[skipped: run deadline expired]";
      return;
    }
    if (shutdown_.cancelled()) {
      tr.failure_reason = "cancelled before the task started";
      tr.solve_summary = "[skipped: cancelled]";
      return;
    }

    const sched::Schedule schedule =
        sched::list_schedule(task.block, options_.resources);
    tr.schedule_length = schedule.length(task.block);
    const auto trace =
        options_.trace_samples > 0
            ? make_trace(task.block, options_.trace_samples,
                         options_.trace_seed +
                             static_cast<std::uint64_t>(task.id))
            : std::vector<std::vector<std::int64_t>>{};
    const alloc::AllocationProblem p = alloc::make_problem_from_block(
        task.block, schedule, options_.num_registers, options_.params, trace,
        options_.split);
    tr.max_density = p.max_density();

    const netflow::Deadline deadline =
        request_deadline(options_, run_deadline);
    alloc::AllocatorOptions alloc_options = options_.alloc;
    alloc_options.fallback_to_baseline |= options_.degrade_on_solver_failure;
    tr.result = solve(p, std::move(alloc_options), deadline, shutdown_,
                      /*use_cache=*/false);
    tr.audit = tr.result.audit;
    tr.feasible = tr.result.feasible;
    tr.timed_out = tr.result.timed_out;
    tr.solve_summary = tr.result.solve_diagnostics.summary();
    if (tr.result.degraded) {
      tr.solve_summary += " [degraded to two-phase baseline]";
    }
    if (tr.result.timed_out) {
      tr.solve_summary += " [timed out]";
    }
    if (!tr.feasible) {
      tr.failure_reason = tr.result.message.empty()
                              ? "allocation infeasible"
                              : tr.result.message;
      tr.solve_summary += " [infeasible: " + tr.failure_reason + "]";
      return;
    }

    if (options_.relayout_memory) {
      // The relayout flow is not worth starting on an expired deadline;
      // the allocation above is complete and usable without it.
      if (deadline.expired()) {
        tr.timed_out = true;
        tr.solve_summary += " [relayout skipped: deadline expired]";
      } else {
        tr.layout = alloc::optimize_memory_layout(
            p, tr.result.assignment, options_.alloc.quantizer,
            options_.alloc.solver);
      }
    }
  });

  // Aggregate sequentially in topological order: the report is built in
  // exactly the order the sequential pipeline built it, so parallel and
  // sequential runs are field-for-field identical.
  PipelineReport report;
  report.tasks.reserve(tasks.size());
  for (TaskReport& tr : tasks) {
    if (tr.result.degraded) ++report.tasks_degraded;
    if (tr.timed_out) {
      ++report.tasks_timed_out;
      report.timed_out_tasks.push_back(tr.task);
    }
    if (tr.audit.audited && !tr.audit.clean()) {
      ++report.tasks_with_audit_findings;
    }
    report.total_solver_fallbacks +=
        tr.result.solve_diagnostics.fallbacks_taken;
    if (!tr.feasible) {
      report.all_feasible = false;
      report.infeasible_tasks.push_back(tr.task);
      report.tasks.push_back(std::move(tr));
      continue;
    }
    report.total_static_energy += tr.result.static_energy.total();
    report.total_activity_energy += tr.result.activity_energy.total();
    report.total_mem_accesses += tr.result.stats.mem_accesses();
    report.total_reg_accesses += tr.result.stats.reg_accesses();
    report.peak_mem_locations =
        std::max(report.peak_mem_locations, tr.result.stats.mem_locations);
    report.peak_mem_read_ports = std::max(report.peak_mem_read_ports,
                                          tr.result.stats.mem_read_ports);
    report.peak_mem_write_ports = std::max(
        report.peak_mem_write_ports, tr.result.stats.mem_write_ports);
    report.tasks.push_back(std::move(tr));
  }
  return report;
}

ExploreResult Engine::explore(const ir::BasicBlock& bb) const {
  const netflow::Deadline run_deadline = run_deadline_of(options_);
  ExploreResult out;

  // Candidate generation is cheap and order-defining: do it inline.
  for (const sched::Resources& res : options_.resource_options) {
    ScheduleCandidate c;
    c.label = "list " + std::to_string(res.alus) + "alu/" +
              std::to_string(res.muls) + "mul";
    c.schedule = sched::list_schedule(bb, res);
    out.candidates.push_back(std::move(c));
  }
  const int critical_path = sched::asap(bb).length(bb);
  for (int slack : options_.slack_options) {
    ScheduleCandidate c;
    c.label = "force-directed +" + std::to_string(slack);
    c.schedule = sched::force_directed_schedule(bb, critical_path + slack);
    out.candidates.push_back(std::move(c));
  }

  // Candidate evaluation (problem build + optimal allocation) is the
  // expensive part and candidates are independent: fan out.
  pool_->parallel_for(out.candidates.size(), [&](std::size_t i) {
    ScheduleCandidate& c = out.candidates[i];
    c.length = c.schedule.length(bb);
    // Same anytime contract as run(): candidates not started when the
    // run deadline fires (or the engine shuts down) stay infeasible
    // instead of blocking the explore past its budget.
    if (run_deadline.expired() || shutdown_.cancelled()) return;
    const alloc::AllocationProblem p = alloc::make_problem_from_block(
        bb, c.schedule, options_.num_registers, options_.params, {},
        options_.split);
    c.max_density = p.max_density();
    alloc::AllocationResult r =
        solve(p, options_.alloc, request_deadline(options_, run_deadline),
              shutdown_, /*use_cache=*/false);
    c.audit = std::move(r.audit);
    if (r.feasible &&
        (options_.deadline == 0 || c.length <= options_.deadline)) {
      c.feasible = true;
      c.energy = r.energy(p);
    }
  });

  for (std::size_t i = 0; i < out.candidates.size(); ++i) {
    const ScheduleCandidate& c = out.candidates[i];
    if (!c.feasible) continue;
    if (out.best < 0 ||
        c.energy <
            out.candidates[static_cast<std::size_t>(out.best)].energy) {
      out.best = static_cast<int>(i);
    }
  }
  return out;
}

std::vector<alloc::AllocationResult> Engine::allocate_batch(
    const std::vector<alloc::AllocationProblem>& problems) const {
  const netflow::Deadline run_deadline = run_deadline_of(options_);
  std::vector<alloc::AllocationResult> results(problems.size());
  pool_->parallel_for(problems.size(), [&](std::size_t i) {
    // Anytime contract: problems not started when the run deadline
    // fires (or the engine shuts down) are skipped before paying the
    // flow-graph build, flagged on their result.
    if (run_deadline.expired()) {
      results[i].timed_out = true;
      results[i].message = "run deadline expired before the solve started";
      return;
    }
    if (shutdown_.cancelled()) {
      results[i].cancelled = true;
      results[i].message = "cancelled before the solve started";
      return;
    }
    results[i] =
        solve(problems[i], options_.alloc,
              request_deadline(options_, run_deadline), shutdown_,
              /*use_cache=*/true);
  });
  return results;
}

// --- Session ------------------------------------------------------------

std::string to_string(TicketStatus status) {
  switch (status) {
    case TicketStatus::kPending:
      return "pending";
    case TicketStatus::kRunning:
      return "running";
    case TicketStatus::kDone:
      return "done";
    case TicketStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// Shared between the Session handle and in-flight pool jobs, so a
/// Session can be moved (or destroyed) while solves are still running.
struct Session::State {
  std::mutex mutex;
  std::condition_variable done_changed;
  /// Slot i holds ticket i's result. deque-of-slots semantics via
  /// unique_ptr: growing the vector never moves a slot a worker writes.
  std::vector<std::unique_ptr<alloc::AllocationResult>> results;
  std::vector<bool> done;
  std::vector<bool> running;
  /// Ticket i's cancel token: a child of `all`, which is itself a child
  /// of the engine's shutdown token, so cancel(ticket) < cancel_all() <
  /// ~Engine each widen the blast radius without extra bookkeeping.
  std::vector<netflow::CancelToken> tokens;
  netflow::CancelToken all;
};

Session::Session(const Engine& engine)
    : engine_(&engine), state_(std::make_shared<State>()) {
  state_->all = engine.shutdown_.child();
}

std::size_t Session::submit(alloc::AllocationProblem problem) {
  return submit(std::move(problem), 0);
}

std::size_t Session::submit(alloc::AllocationProblem problem,
                            double deadline_seconds) {
  std::size_t ticket;
  alloc::AllocationResult* slot;
  netflow::CancelToken token;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    ticket = state_->results.size();
    state_->results.push_back(std::make_unique<alloc::AllocationResult>());
    state_->done.push_back(false);
    state_->running.push_back(false);
    state_->tokens.push_back(state_->all.child());
    token = state_->tokens.back();
    slot = state_->results.back().get();
  }
  // Per-request deadline, armed at submission so queue wait counts
  // against it — a deadline is a promise to the requester, not to the
  // worker that eventually picks the job up.
  const double budget = deadline_seconds > 0
                            ? deadline_seconds
                            : engine_->options_.task_deadline_seconds;
  const netflow::Deadline deadline =
      budget > 0 ? netflow::Deadline::after(budget) : netflow::Deadline();
  // The job owns its problem and a share of the state; it never touches
  // the Session handle, so moving/destroying the Session is safe. It
  // reaches the Engine directly: ~Engine drains the pool before any
  // other member goes, so no job outlives it.
  engine_->pool_->submit([engine = engine_, state = state_, slot,
                          problem = std::move(problem), ticket, token,
                          deadline] {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->running[ticket] = true;
    }
    *slot = engine->solve(problem, engine->options_.alloc, deadline, token,
                          /*use_cache=*/true);
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->running[ticket] = false;
      state->done[ticket] = true;
    }
    state->done_changed.notify_all();
  });
  return ticket;
}

std::size_t Session::submitted() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->results.size();
}

const alloc::AllocationResult& Session::result(std::size_t ticket) const {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->done_changed.wait(
      lock, [&] { return ticket < state_->done.size() &&
                         state_->done[ticket]; });
  return *state_->results[ticket];
}

const alloc::AllocationResult* Session::try_result(
    std::size_t ticket) const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (ticket >= state_->done.size() || !state_->done[ticket]) {
    return nullptr;
  }
  return state_->results[ticket].get();
}

bool Session::wait_for(std::size_t ticket, double seconds) const {
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->done_changed.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [&] { return ticket < state_->done.size() && state_->done[ticket]; });
}

TicketStatus Session::status(std::size_t ticket) const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (ticket >= state_->done.size()) return TicketStatus::kPending;
  if (state_->done[ticket]) {
    return state_->results[ticket]->cancelled ? TicketStatus::kCancelled
                                              : TicketStatus::kDone;
  }
  if (state_->tokens[ticket].cancelled()) return TicketStatus::kCancelled;
  return state_->running[ticket] ? TicketStatus::kRunning
                                 : TicketStatus::kPending;
}

void Session::cancel(std::size_t ticket) {
  netflow::CancelToken token;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (ticket >= state_->tokens.size()) return;
    token = state_->tokens[ticket];
  }
  token.request_cancel();
}

void Session::cancel_all() { state_->all.request_cancel(); }

std::vector<alloc::AllocationResult> Session::collect() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->done_changed.wait(lock, [&] {
    return std::all_of(state_->done.begin(), state_->done.end(),
                       [](bool d) { return d; });
  });
  std::vector<alloc::AllocationResult> out;
  out.reserve(state_->results.size());
  for (auto& r : state_->results) out.push_back(std::move(*r));
  return out;
}

}  // namespace lera::engine
