#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/fingerprint.hpp"
#include "alloc/memory_layout.hpp"
#include "alloc/ports.hpp"
#include "audit/report.hpp"
#include "engine/alloc_cache.hpp"
#include "engine/thread_pool.hpp"
#include "ir/task_graph.hpp"
#include "netflow/cancel.hpp"
#include "netflow/membudget.hpp"
#include "netflow/workspace.hpp"
#include "sched/schedule.hpp"

/// \file engine.hpp
/// The parallel allocation engine: one front door for every batched
/// solve in the system. The paper (§5) applies the network-flow
/// allocator "to each basic block in each task" — those per-task solves
/// are independent, as are the schedule candidates of an exploration and
/// the instances of a design sweep, so the Engine fans them out across a
/// thread pool while guaranteeing *bit-identical* results to the
/// sequential code path: work item i always lands in result slot i, and
/// every aggregation runs sequentially in a fixed order.
///
/// Construct an Engine once from EngineOptions (the unified option core
/// that PipelineOptions / ExploreOptions used to copy-paste), then:
///
///   engine::Engine eng(opts);
///   engine::PipelineReport rep = eng.run(task_graph);
///   engine::ExploreResult  exp = eng.explore(bb);
///   auto results = eng.allocate_batch(problems);
///   engine::Session s = eng.open_session();   // incremental batching
///
/// The legacy free functions pipeline::run_pipeline and
/// pipeline::explore_schedules are thin wrappers over this API.

namespace lera::engine {

/// Unified option core. Absorbs the fields that were duplicated across
/// pipeline::PipelineOptions, pipeline::ExploreOptions and the bench
/// mains: the solve core (num_registers / params / split / alloc) is
/// specified once, here, and every Engine entry point reads it.
struct EngineOptions {
  // --- Shared solve core ------------------------------------------------
  int num_registers = 4;
  energy::EnergyParams params;
  lifetime::SplitOptions split;
  alloc::AllocatorOptions alloc;

  // --- Execution --------------------------------------------------------
  /// Worker threads for batched solves. 0 = all hardware threads;
  /// 1 = strictly sequential on the caller's thread (no pool). Results
  /// are identical for every value — threads only buy wall clock.
  int threads = 0;

  // --- run(): scheduling + activity tracing -----------------------------
  sched::Resources resources{2, 1};
  /// Input samples used to measure Hamming activities (0 = use the
  /// default 0.5 activities instead of simulating).
  int trace_samples = 32;
  /// Per-task trace seeds are derived as trace_seed + task_id, so the
  /// measured activities do not depend on which thread runs the task.
  std::uint64_t trace_seed = 1;
  /// Run the second-stage memory reallocation flow per task.
  bool relayout_memory = true;
  /// Degrade a task to the two-phase baseline when its flow solve fails
  /// (bad instance, budget, certification), instead of marking the whole
  /// run infeasible. Downgrades are counted in PipelineReport and
  /// flagged per task; heavy-traffic runs fail loud, not wrong.
  bool degrade_on_solver_failure = true;

  // --- Auditing ---------------------------------------------------------
  /// Independent re-derivation of every solve's legality (and, at
  /// kFullCost, its energy accounting) by audit::audit_result. Findings
  /// land in AllocationResult::audit / TaskReport::audit; they never
  /// alter the allocation or tear down sibling solves, and kOff is
  /// bit-identical to the pre-audit engine.
  audit::AuditLevel audit_level = audit::AuditLevel::kOff;
  /// Optional §7 port budgets the auditor enforces on every result.
  std::optional<alloc::PortLimits> audit_ports;

  // --- explore(): schedule candidate generation -------------------------
  /// Latest acceptable schedule length in cycles (0 = no length limit).
  /// Unrelated to the wall-clock deadlines below.
  int deadline = 0;
  /// Resource sweeps for the list scheduler.
  std::vector<sched::Resources> resource_options{{1, 1}, {2, 1}, {2, 2}};
  /// Extra latency slack levels for force-directed schedules.
  std::vector<int> slack_options{0, 2, 4};

  // --- Supervision: deadlines -------------------------------------------
  /// With every knob here at its default, the engine's output is
  /// bit-identical to the unsupervised engine — the supervision layer
  /// only ever observes the solve path until a knob turns it on.
  ///
  /// Wall-clock budget for one solve request, in seconds (0 = none).
  /// Counted from when the request's task starts (run/explore) or from
  /// submission (Session::submit). An overrunning flow solve is
  /// cancelled and — under degrade_on_solver_failure / the allocator's
  /// fallback_to_baseline — degraded to the two-phase baseline, flagged
  /// timed_out + degraded: an anytime answer, never a silent hang.
  double task_deadline_seconds = 0;
  /// Wall-clock budget for one whole run()/explore()/allocate_batch()
  /// call, in seconds (0 = none). When it expires mid-run, work not yet
  /// started is skipped (flagged timed_out) and in-flight solves wind
  /// down as for task_deadline_seconds; the partial report still
  /// aggregates everything that did finish.
  double run_deadline_seconds = 0;

  // --- Memory budgeting -------------------------------------------------
  /// Byte cap for one solve request (0 = none). Each solve gets a child
  /// of the engine-wide budget with this cap; a backend whose predicted
  /// footprint does not fit is skipped (kMemoryExceeded) and — under
  /// degrade_on_solver_failure / fallback_to_baseline — the request
  /// degrades to the two-phase baseline, flagged memory_exceeded +
  /// degraded: a typed verdict, never an OOM kill.
  std::int64_t max_bytes_per_solve = 0;
  /// Byte cap shared by every concurrent solve plus the pooled
  /// workspaces of the context bank (0 = track-only: peak/in-use bytes
  /// still show up in EngineStats and the server's HEALTH line, but
  /// nothing is ever refused).
  std::int64_t max_bytes_total = 0;

  // --- Allocation cache (fingerprint -> certified result) ---------------
  /// Entry cap of the engine's AllocCache (0 = cache off; the default,
  /// which is bit-identical to the pre-cache engine). When on,
  /// allocate_batch and Session solves consult the cache by canonical
  /// fingerprint before solving and record certified answers after.
  std::size_t cache_entries = 0;
  /// Byte cap over all cached entries (0 = entry cap only). Cached
  /// bytes are charged against the engine-wide memory budget, so they
  /// show up in EngineStats and count against max_bytes_total.
  std::int64_t cache_bytes = 0;
  /// Re-audit every Nth cache hit before serving it (see
  /// AllocCacheOptions::audit_rate). 0 = never.
  std::uint32_t cache_audit_rate = 16;
};

/// Snapshot of the engine's supervision counters (Engine::stats()).
/// "Solves" are allocator calls the engine issued: one per task in
/// run(), one per candidate in explore(), one per problem in
/// allocate_batch() / Session::submit. Work skipped outright (run
/// deadline expired before start) is not a started solve.
struct EngineStats {
  std::int64_t solves_started = 0;
  std::int64_t solves_completed = 0;
  /// Completed solves a CancelToken withdrew (session cancel / engine
  /// shutdown); always also counted in solves_completed.
  std::int64_t solves_cancelled = 0;
  /// Completed solves whose flow phase ran out of wall clock.
  std::int64_t solves_timed_out = 0;
  /// Completed solves answered by the two-phase baseline.
  std::int64_t solves_degraded = 0;
  /// Completed solves a memory budget (or a real allocation failure)
  /// curtailed (AllocationResult::memory_exceeded); like timed_out, a
  /// memory-exceeded solve may still be feasible via the baseline.
  std::int64_t solves_memory_exceeded = 0;
  /// Bytes currently charged against the engine-wide memory budget
  /// (in-flight solves + pooled workspaces).
  std::int64_t memory_bytes_in_use = 0;
  /// High-water mark of memory_bytes_in_use over the engine's lifetime.
  std::int64_t memory_peak_bytes = 0;
  /// Charges the engine-wide budget refused (0 when max_bytes_total is
  /// 0 — per-solve denials land in solves_memory_exceeded instead).
  std::int64_t memory_denials = 0;
  /// Solver-level performance counters folded over every completed
  /// solve with netflow::PerfCounters::add (augmentations, heap traffic,
  /// workspace/warm-start hits, per-phase wall time). The cache_*
  /// counters below are folded into perf as well.
  netflow::PerfCounters perf;
  /// Allocation-cache counters (all 0 when cache_entries is 0).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_insertions = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t cache_audit_samples = 0;
  std::int64_t cache_audit_evictions = 0;
  std::int64_t cache_bytes_in_use = 0;
  std::int64_t cache_entries = 0;
};

namespace detail {
/// Counters behind EngineStats, shared (by shared_ptr) with queued
/// Session jobs so they outlive any one handle.
struct EngineStatsCore {
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> cancelled{0};
  std::atomic<std::int64_t> timed_out{0};
  std::atomic<std::int64_t> degraded{0};
  std::atomic<std::int64_t> memory_exceeded{0};
  /// Every completed solve's diagnostics folded in with
  /// netflow::PerfCounters::add, under perf_mutex.
  std::mutex perf_mutex;
  netflow::PerfCounters perf;
};

/// Mutex-guarded freelist of netflow::SolverWorkspaces, shared (by
/// shared_ptr) with queued Session jobs. Every solve leases one, so
/// repeated solves stop paying per-solve allocation; a workspace only
/// changes allocation behavior, never results. The pool has no thread
/// identity to key on, so solves check a workspace out for their
/// duration instead: at most pool-width workspaces ever exist, each used
/// strictly sequentially — which is exactly the SolverWorkspace
/// ownership contract.
///
/// Pooled (idle) workspaces retain their grown scratch arenas, so their
/// measured footprint is charged against the engine-wide memory budget
/// while they sit in the freelist: retained bytes show up in
/// EngineStats and count against max_bytes_total. A workspace the
/// budget refuses to pool is dropped (freed) instead — under memory
/// pressure the bank sheds capacity rather than busting the cap.
class ContextBank {
 public:
  /// Installs the engine-wide budget idle workspaces are charged
  /// against. Call before the first release(); an inert budget tracks
  /// nothing.
  void set_budget(netflow::MemoryBudget budget) {
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = std::move(budget);
  }

  std::unique_ptr<netflow::SolverWorkspace> acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) return std::make_unique<netflow::SolverWorkspace>();
    std::unique_ptr<netflow::SolverWorkspace> ws = std::move(free_.back());
    free_.pop_back();
    budget_.release(charged_.back());
    charged_.pop_back();
    return ws;
  }

  void release(std::unique_ptr<netflow::SolverWorkspace> ws) {
    if (ws == nullptr) return;
    const std::int64_t bytes = ws->footprint_bytes();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!budget_.try_charge(bytes)) return;  // Shed: free, don't pool.
    free_.push_back(std::move(ws));
    charged_.push_back(bytes);
  }

 private:
  std::mutex mutex_;
  netflow::MemoryBudget budget_;
  std::vector<std::unique_ptr<netflow::SolverWorkspace>> free_;
  /// Bytes charged for free_[i]; kept in lockstep with free_.
  std::vector<std::int64_t> charged_;
};
}  // namespace detail

struct TaskReport {
  ir::TaskId task = -1;
  std::string name;
  /// Mirror of result.feasible, hoisted so batch callers can scan for
  /// failures without digging into the allocation result.
  bool feasible = false;
  /// Why this task failed (empty when feasible): the allocator's
  /// diagnostic message, e.g. which resource could not be covered.
  std::string failure_reason;
  /// A wall-clock deadline curtailed this task: its solve was skipped or
  /// degraded, or its relayout was skipped (mirrors result.timed_out
  /// plus the skipped-outright cases). See PipelineReport::timed_out_tasks.
  bool timed_out = false;
  int schedule_length = 0;
  int max_density = 0;
  alloc::AllocationResult result;
  alloc::MemoryLayout layout;
  /// One-line robust-solve story for this task's allocation (solver
  /// used, fallbacks, certification verdict); see also
  /// result.solve_diagnostics for the full structure.
  std::string solve_summary;
  /// Mirror of result.audit (the independent auditor's verdict), hoisted
  /// like `feasible` so batch callers can scan without digging.
  audit::AuditReport audit;
};

struct PipelineReport {
  std::vector<TaskReport> tasks;
  bool all_feasible = true;
  /// Ids of the tasks whose allocation failed, in topological order
  /// (empty when all_feasible). TaskReport::failure_reason says why.
  std::vector<ir::TaskId> infeasible_tasks;

  /// Solver-robustness accounting across the run: tasks that fell back
  /// to the two-phase baseline, and solver fallbacks taken inside the
  /// flow solves that did succeed.
  int tasks_degraded = 0;
  int total_solver_fallbacks = 0;
  /// Tasks a wall-clock deadline curtailed (TaskReport::timed_out), in
  /// topological order. A timed-out task may still be feasible — the
  /// anytime contract degrades it to the baseline when possible — so
  /// this is disjoint bookkeeping from infeasible_tasks.
  int tasks_timed_out = 0;
  std::vector<ir::TaskId> timed_out_tasks;
  /// Tasks whose independent audit reported findings (0 when
  /// EngineOptions::audit_level is kOff).
  int tasks_with_audit_findings = 0;

  double total_static_energy = 0;
  double total_activity_energy = 0;
  int total_mem_accesses = 0;
  int total_reg_accesses = 0;
  /// Largest per-task memory image: the memory must be sized for the
  /// worst task (tasks execute in sequence, addresses are reused).
  int peak_mem_locations = 0;
  /// Largest port requirement over all tasks.
  int peak_mem_read_ports = 0;
  int peak_mem_write_ports = 0;
};

struct ScheduleCandidate {
  std::string label;
  sched::Schedule schedule;
  int length = 0;
  int max_density = 0;
  double energy = 0;       ///< Storage energy of the optimal allocation.
  bool feasible = false;
};

struct ExploreResult {
  std::vector<ScheduleCandidate> candidates;  ///< All evaluated.
  int best = -1;  ///< Index of the cheapest feasible candidate (or -1).
};

class Engine;

/// Lifecycle of one Session ticket. Every ticket reaches a terminal
/// state (kDone or kCancelled) even across cancellation and engine
/// shutdown: cancelled jobs still run, fast-exit at their first poll,
/// and publish a result with AllocationResult::cancelled set.
enum class TicketStatus {
  kPending,    ///< Queued, not yet picked up by a worker.
  kRunning,    ///< A worker is solving it right now.
  kDone,       ///< Result available (possibly timed-out/degraded).
  kCancelled,  ///< Cancellation requested or already took effect; the
               ///< result (once done) carries cancelled=true.
};

std::string to_string(TicketStatus status);

/// Incremental batched solving: submit problems as they become
/// available, read results by ticket. Work starts immediately on the
/// Engine's pool; results are indexed by submission order, never by
/// completion order. A Session must not outlive its Engine.
///
/// Supervision: every ticket carries its own CancelToken, chained
/// session -> engine, so cancel(ticket) withdraws one solve,
/// cancel_all() the whole session, and destroying the Engine the whole
/// world — in-flight solves wind down cooperatively at their next
/// guard poll rather than blocking to completion.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Enqueues one allocation solve; returns its ticket (the submission
  /// index, dense from 0). The request inherits the engine's
  /// task_deadline_seconds (counted from submission, queue wait
  /// included).
  std::size_t submit(alloc::AllocationProblem problem);

  /// \overload with an explicit per-request deadline in seconds from
  /// submission; <= 0 falls back to the engine's task_deadline_seconds.
  std::size_t submit(alloc::AllocationProblem problem,
                     double deadline_seconds);

  std::size_t submitted() const;

  /// Blocks until the solve behind \p ticket finishes. The reference is
  /// valid until the Session is destroyed.
  const alloc::AllocationResult& result(std::size_t ticket) const;

  /// Non-blocking peek: the result if \p ticket already finished,
  /// nullptr otherwise (including unknown tickets).
  const alloc::AllocationResult* try_result(std::size_t ticket) const;

  /// Blocks until \p ticket finishes or \p seconds elapse; true when
  /// the result is available.
  bool wait_for(std::size_t ticket, double seconds) const;

  TicketStatus status(std::size_t ticket) const;

  /// Withdraws one request. Queued jobs fast-exit when a worker reaches
  /// them; a running solve stops at its next guard poll. Idempotent;
  /// too late to matter once the ticket is done.
  void cancel(std::size_t ticket);

  /// Withdraws every request of this session, current and future.
  void cancel_all();

  /// Blocks until every submitted solve finishes and returns all
  /// results in submission order (cancelled tickets included, flagged
  /// on the result).
  std::vector<alloc::AllocationResult> collect();

 private:
  friend class Engine;
  struct State;
  explicit Session(const Engine& engine);

  const Engine* engine_;
  std::shared_ptr<State> state_;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Graceful drain: fires the engine-wide shutdown token (every queued
  /// or in-flight solve — Session jobs included — winds down at its
  /// next poll), then joins the pool. Never blocks on a full solve.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }
  /// Resolved thread count (options.threads with 0 expanded).
  int threads() const { return pool_->size(); }

  /// The paper's §5 methodology over a whole task graph: schedule every
  /// task, measure activities, allocate per block, re-pack memory, and
  /// aggregate. Task solves run in parallel; the report is bit-identical
  /// to a threads=1 run (and to the legacy pipeline::run_pipeline).
  PipelineReport run(const ir::TaskGraph& graph) const;

  /// Schedule/allocation co-exploration of one block: evaluates every
  /// list-schedule and force-directed candidate (in parallel) and marks
  /// the cheapest-energy feasible one.
  ExploreResult explore(const ir::BasicBlock& bb) const;

  /// Solves every problem with the engine's allocator options; results
  /// are in input order.
  std::vector<alloc::AllocationResult> allocate_batch(
      const std::vector<alloc::AllocationProblem>& problems) const;

  /// Opens an incremental batching session (see Session).
  Session open_session() const { return Session(*this); }

  /// Snapshot of the supervision counters. Counters are monotonic over
  /// the engine's lifetime and shared by every entry point and session.
  EngineStats stats() const;

  /// The engine-wide shutdown token (parent of every session token).
  /// Exposed so callers can chain their own tokens under the engine's
  /// lifetime; fired by ~Engine.
  netflow::CancelToken shutdown_token() const { return shutdown_; }

  /// The engine-wide memory budget (capped by max_bytes_total, track-
  /// only when that is 0). Every solve charges a child of it; the server
  /// reads used()/peak()/remaining() for HEALTH and admission.
  netflow::MemoryBudget memory_budget() const { return memory_budget_; }

 private:
  friend class Session;

  EngineOptions options_;
  netflow::CancelToken shutdown_{netflow::CancelToken::make()};
  /// Root of every per-solve budget chain; also charged for the context
  /// bank's pooled workspaces.
  netflow::MemoryBudget memory_budget_;
  /// Shared with queued Session jobs so it outlives any one handle.
  std::shared_ptr<detail::EngineStatsCore> stats_core_;
  /// Workspace freelist; shared with queued Session jobs like the stats
  /// core.
  std::shared_ptr<detail::ContextBank> bank_;
  /// Non-null when cache_entries > 0; shared with queued Session jobs.
  /// Entry bytes are charged against a child of memory_budget_.
  std::shared_ptr<AllocCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace lera::engine
