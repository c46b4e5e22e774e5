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

/// The supervision state one Engine entry point threads into its
/// solves: the run-wide deadline (armed at entry), the cancel token the
/// solves observe, and the shared stats. All observation-only until a
/// knob is set — a default Supervision leaves the solve path
/// bit-identical to the unsupervised engine.
struct Supervision {
  netflow::Deadline run_deadline;
  netflow::CancelToken cancel;
  detail::EngineStatsCore* stats = nullptr;
  detail::ContextBank* bank = nullptr;
  /// Engine-wide memory budget; every solve charges a child of it.
  netflow::MemoryBudget memory_budget;
};

/// Checks a workspace out of the bank for one allocator call and
/// threads it into the solve options; returns it on destruction.
class ContextLease {
 public:
  ContextLease(detail::ContextBank& bank, alloc::AllocatorOptions& a)
      : bank_(bank), ws_(bank.acquire()) {
    a.solve.workspace = ws_.get();
  }

  ~ContextLease() { bank_.release(std::move(ws_)); }

  ContextLease(const ContextLease&) = delete;
  ContextLease& operator=(const ContextLease&) = delete;

 private:
  detail::ContextBank& bank_;
  std::unique_ptr<netflow::SolverWorkspace> ws_;
};

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

/// Threads the supervision knobs into one solve's allocator options.
/// Only knobs that are actually set override anything, so a caller's
/// hand-rolled SolveOptions keep working.
void apply_supervision(alloc::AllocatorOptions& a, const EngineOptions& o,
                       const netflow::Deadline& deadline,
                       const netflow::CancelToken& cancel,
                       const netflow::MemoryBudget& memory_budget) {
  a.solve.cancel = cancel;
  a.solve.deadline = netflow::Deadline::earlier(a.solve.deadline, deadline);
  // Per-solve budget: a child of the engine-wide ledger, capped by
  // max_bytes_per_solve. Inert (tracking nothing) only when the caller
  // already threaded a budget of their own.
  if (!a.solve.memory_budget.valid() && memory_budget.valid()) {
    a.solve.memory_budget = memory_budget.child(o.max_bytes_per_solve);
  }
}

/// Books one finished allocator call into the stats core.
void record_solve(detail::EngineStatsCore* stats,
                  const alloc::AllocationResult& r) {
  if (stats == nullptr) return;
  stats->completed.fetch_add(1, std::memory_order_relaxed);
  if (r.cancelled) stats->cancelled.fetch_add(1, std::memory_order_relaxed);
  if (r.timed_out) stats->timed_out.fetch_add(1, std::memory_order_relaxed);
  if (r.degraded) stats->degraded.fetch_add(1, std::memory_order_relaxed);
  if (r.memory_exceeded) {
    stats->memory_exceeded.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(stats->perf_mutex);
  stats->perf.add(r.solve_diagnostics.perf);
}

/// Maps the engine's audit knobs onto the auditor and stamps the
/// verdict into the result. Auditing is observation-only: it never
/// alters the allocation, throws, or stops sibling solves, so one bad
/// result in a batch still leaves every other slot intact.
void maybe_audit(const alloc::AllocationProblem& p,
                 alloc::AllocationResult& r,
                 const EngineOptions& options) {
  if (options.audit_level == audit::AuditLevel::kOff) return;
  audit::AuditOptions aopts;
  aopts.level = options.audit_level;
  aopts.ports = options.audit_ports;
  r.audit = audit::audit_result(p, r, aopts);
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

/// One task's end of the §5 methodology: schedule, trace, allocate,
/// re-pack memory. Pure function of (task, options) — safe to run on any
/// thread concurrently with other tasks.
TaskReport solve_task(const ir::Task& task, const EngineOptions& options,
                      const Supervision& sup) {
  TaskReport tr;
  tr.task = task.id;
  tr.name = task.name;

  // Anytime contract: work not yet started when the run deadline fires
  // (or the run is cancelled) is skipped outright and flagged — the
  // report stays partial-but-honest instead of blocking past the
  // deadline on tasks nobody will wait for.
  if (sup.run_deadline.expired()) {
    tr.timed_out = true;
    tr.failure_reason = "run deadline expired before the task started";
    tr.solve_summary = "[skipped: run deadline expired]";
    return tr;
  }
  if (sup.cancel.cancelled()) {
    tr.failure_reason = "cancelled before the task started";
    tr.solve_summary = "[skipped: cancelled]";
    return tr;
  }

  const sched::Schedule schedule =
      sched::list_schedule(task.block, options.resources);
  tr.schedule_length = schedule.length(task.block);

  const auto trace =
      options.trace_samples > 0
          ? make_trace(task.block, options.trace_samples,
                       options.trace_seed +
                           static_cast<std::uint64_t>(task.id))
          : std::vector<std::vector<std::int64_t>>{};
  const alloc::AllocationProblem p = alloc::make_problem_from_block(
      task.block, schedule, options.num_registers, options.params, trace,
      options.split);
  tr.max_density = p.max_density();

  const netflow::Deadline deadline =
      request_deadline(options, sup.run_deadline);
  alloc::AllocatorOptions alloc_options = options.alloc;
  alloc_options.fallback_to_baseline =
      alloc_options.fallback_to_baseline ||
      options.degrade_on_solver_failure;
  apply_supervision(alloc_options, options, deadline, sup.cancel,
                    sup.memory_budget);
  const ContextLease lease(*sup.bank, alloc_options);
  if (sup.stats != nullptr) {
    sup.stats->started.fetch_add(1, std::memory_order_relaxed);
  }
  tr.result = alloc::allocate(p, alloc_options);
  record_solve(sup.stats, tr.result);
  maybe_audit(p, tr.result, options);
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
    return tr;
  }

  if (options.relayout_memory) {
    // The relayout flow is not worth starting on an expired deadline;
    // the allocation above is complete and usable without it.
    if (deadline.expired()) {
      tr.timed_out = true;
      tr.solve_summary += " [relayout skipped: deadline expired]";
    } else {
      tr.layout = alloc::optimize_memory_layout(
          p, tr.result.assignment, options.alloc.quantizer,
          options.alloc.solver);
    }
  }
  return tr;
}

/// Candidate evaluation for explore(): schedule is prebuilt (cheap and
/// sequential); the expensive problem build + allocation runs here, on
/// any thread.
ScheduleCandidate evaluate_candidate(const ir::BasicBlock& bb,
                                     ScheduleCandidate c,
                                     const EngineOptions& options,
                                     const Supervision& sup) {
  c.length = c.schedule.length(bb);
  // Same anytime contract as solve_task: candidates not started when
  // the run deadline fires (or the run is cancelled) stay infeasible
  // instead of blocking the explore past its budget.
  if (sup.run_deadline.expired() || sup.cancel.cancelled()) return c;
  const alloc::AllocationProblem p = alloc::make_problem_from_block(
      bb, c.schedule, options.num_registers, options.params, {},
      options.split);
  c.max_density = p.max_density();
  alloc::AllocatorOptions alloc_options = options.alloc;
  apply_supervision(alloc_options, options,
                    request_deadline(options, sup.run_deadline), sup.cancel,
                    sup.memory_budget);
  const ContextLease lease(*sup.bank, alloc_options);
  if (sup.stats != nullptr) {
    sup.stats->started.fetch_add(1, std::memory_order_relaxed);
  }
  const alloc::AllocationResult r = alloc::allocate(p, alloc_options);
  record_solve(sup.stats, r);
  if (r.feasible && (options.deadline == 0 || c.length <= options.deadline)) {
    c.feasible = true;
    c.energy = r.energy(p);
  }
  return c;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      memory_budget_(netflow::MemoryBudget::make(options_.max_bytes_total)),
      stats_core_(std::make_shared<detail::EngineStatsCore>()),
      bank_(std::make_shared<detail::ContextBank>()),
      cache_(options_.cache_entries > 0
                 ? std::make_shared<AllocCache>(
                       AllocCacheOptions{options_.cache_entries,
                                         options_.cache_bytes,
                                         options_.cache_audit_rate},
                       memory_budget_.child(0))
                 : nullptr),
      pool_(std::make_unique<ThreadPool>(options_.threads)) {
  // Pooled (idle) workspaces count against the engine-wide budget.
  bank_->set_budget(memory_budget_);
}

Engine::~Engine() {
  // Graceful drain: fire the shutdown token first so every queued or
  // in-flight solve (Session jobs included — their tokens chain to this
  // one) winds down at its next poll, then join the pool. The pool
  // destructor runs the remaining queue, so every ticket still reaches
  // a terminal state; it just reaches it fast.
  shutdown_.request_cancel();
  pool_.reset();
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.solves_started = stats_core_->started.load(std::memory_order_relaxed);
  s.solves_completed =
      stats_core_->completed.load(std::memory_order_relaxed);
  s.solves_cancelled =
      stats_core_->cancelled.load(std::memory_order_relaxed);
  s.solves_timed_out =
      stats_core_->timed_out.load(std::memory_order_relaxed);
  s.solves_degraded = stats_core_->degraded.load(std::memory_order_relaxed);
  s.solves_memory_exceeded =
      stats_core_->memory_exceeded.load(std::memory_order_relaxed);
  s.memory_bytes_in_use = memory_budget_.used();
  s.memory_peak_bytes = memory_budget_.peak();
  s.memory_denials = memory_budget_.denials();
  {
    std::lock_guard<std::mutex> lock(stats_core_->perf_mutex);
    s.perf = stats_core_->perf;
  }
  if (cache_ != nullptr) {
    const AllocCacheStats cs = cache_->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_insertions = cs.insertions;
    s.cache_evictions = cs.evictions;
    s.cache_audit_samples = cs.audit_samples;
    s.cache_audit_evictions = cs.audit_evictions;
    s.cache_bytes_in_use = cs.bytes_in_use;
    s.cache_entries = cs.entries;
    // Fold into the perf totals (solves leave the cache_* fields at 0)
    // so LERA_PERF lines carry them too.
    netflow::PerfCounters cache_perf;
    cache_perf.cache_hits = cs.hits;
    cache_perf.cache_misses = cs.misses;
    cache_perf.cache_evictions = cs.evictions + cs.audit_evictions;
    cache_perf.cache_audit_samples = cs.audit_samples;
    cache_perf.cache_bytes = cs.bytes_in_use;
    s.perf.add(cache_perf);
  }
  return s;
}

PipelineReport Engine::run(const ir::TaskGraph& graph) const {
  const Supervision sup{run_deadline_of(options_), shutdown_,
                        stats_core_.get(), bank_.get(), memory_budget_};
  const std::vector<ir::TaskId> order = graph.topological_order();
  std::vector<TaskReport> tasks(order.size());

  // Fan the independent per-task solves out; slot i belongs to the i-th
  // task in topological order regardless of which thread solves it.
  pool_->parallel_for(order.size(), [&](std::size_t i) {
    tasks[i] = solve_task(graph.task(order[i]), options_, sup);
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
  const Supervision sup{run_deadline_of(options_), shutdown_,
                        stats_core_.get(), bank_.get(), memory_budget_};
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
    out.candidates[i] =
        evaluate_candidate(bb, std::move(out.candidates[i]), options_, sup);
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
  const Supervision sup{run_deadline_of(options_), shutdown_,
                        stats_core_.get(), bank_.get(), memory_budget_};
  std::vector<alloc::AllocationResult> results(problems.size());
  pool_->parallel_for(problems.size(), [&](std::size_t i) {
    // Anytime contract: problems not started when the run deadline
    // fires (or the engine shuts down) are skipped before paying the
    // flow-graph build, flagged on their result.
    if (sup.run_deadline.expired()) {
      results[i].timed_out = true;
      results[i].message = "run deadline expired before the solve started";
      return;
    }
    if (sup.cancel.cancelled()) {
      results[i].cancelled = true;
      results[i].message = "cancelled before the solve started";
      return;
    }
    // Cache consult: a hit serves a certified, already-audited result
    // without booking a solve. The fingerprint is computed once and
    // reused for the post-solve insert.
    std::optional<alloc::FingerprintResult> fp;
    if (cache_ != nullptr && cache_->enabled()) {
      fp = alloc::fingerprint_problem(problems[i]);
      if (auto hit = cache_->lookup(problems[i], *fp)) {
        results[i] = std::move(*hit);
        return;
      }
    }
    alloc::AllocatorOptions alloc_options = options_.alloc;
    apply_supervision(alloc_options, options_,
                      request_deadline(options_, sup.run_deadline),
                      sup.cancel, sup.memory_budget);
    const ContextLease lease(*sup.bank, alloc_options);
    sup.stats->started.fetch_add(1, std::memory_order_relaxed);
    results[i] = alloc::allocate(problems[i], alloc_options);
    record_solve(sup.stats, results[i]);
    maybe_audit(problems[i], results[i], options_);
    if (fp.has_value()) cache_->insert(*fp, results[i]);
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
  // The job owns its problem and a share of the state (and of the
  // engine's stats); it never touches the Session handle, so
  // moving/destroying the Session is safe.
  engine_->pool_->submit(
      [state = state_, slot, problem = std::move(problem),
       options = engine_->options_, ticket, token, deadline,
       stats = engine_->stats_core_, bank = engine_->bank_,
       cache = engine_->cache_, memory_budget = engine_->memory_budget_] {
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          state->running[ticket] = true;
        }
        // Cache consult, as in allocate_batch: a hit serves without a
        // solve and the fingerprint is reused for the insert.
        std::optional<alloc::FingerprintResult> fp;
        bool served_from_cache = false;
        if (cache != nullptr && cache->enabled()) {
          fp = alloc::fingerprint_problem(problem);
          if (auto hit = cache->lookup(problem, *fp)) {
            *slot = std::move(*hit);
            served_from_cache = true;
          }
        }
        if (!served_from_cache) {
          alloc::AllocatorOptions alloc_options = options.alloc;
          apply_supervision(alloc_options, options, deadline, token,
                            memory_budget);
          const ContextLease lease(*bank, alloc_options);
          stats->started.fetch_add(1, std::memory_order_relaxed);
          *slot = alloc::allocate(problem, alloc_options);
          record_solve(stats.get(), *slot);
          maybe_audit(problem, *slot, options);
          if (fp.has_value()) cache->insert(*fp, *slot);
        }
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
