// The traced run: each workload's inputs replayed stage by stage through
// the public library functions, one span per call, beside the untraced
// entry-point call (Engine or Server) for the same input. Spans live in
// the benchmark only; the library itself is not instrumented.

#include <iostream>
#include <optional>
#include <set>
#include <unordered_set>

#include "alloc/allocator.hpp"
#include "alloc/fingerprint.hpp"
#include "alloc/memory_layout.hpp"
#include "engine/alloc_cache.hpp"
#include "netflow/robust.hpp"
#include "runs.hpp"
#include "sched/schedule.hpp"
#include "server/worker.hpp"
#include "spans.hpp"
#include "workloads/problem_io.hpp"

namespace perfbench {

namespace alloc = lera::alloc;
namespace engine = lera::engine;
namespace netflow = lera::netflow;
namespace server = lera::server;

namespace {

/// Per-solve counts the replay records where the work happens.
struct SolveCounts {
  std::vector<double> segments, arcs, augmentations, settles, heap_pushes;
  std::vector<double> footprint_ratio;
  std::int64_t useful = 0;    ///< Solves whose answer was accepted.
  std::int64_t attempts = 0;  ///< Solver attempts those solves made.
  /// Per group of requests: what the untraced entry-point call took for
  /// the same inputs. A request is its own group unless group_of puts it
  /// in another (pipeline-kernels: the pass of tasks one Engine::run
  /// covers).
  std::map<std::int64_t, double> untraced_ms;
  std::map<std::int64_t, std::int64_t> group_of;
};

/// allocate() for a valid problem, one span per stage: graph build, the
/// robust solve with the allocator's default chain (validate and certify
/// as children, from the solver's own phase timers), extraction and
/// evaluation.
alloc::AllocationResult traced_allocate(Tracer& tr, int parent,
                                        std::int64_t req,
                                        const alloc::AllocationProblem& p,
                                        const alloc::AllocatorOptions& opts,
                                        netflow::SolverWorkspace& ws,
                                        SolveCounts& counts) {
  alloc::AllocationResult result;
  alloc::FlowGraphSpec spec;
  {
    ScopedSpan s(tr, "alloc.graph_build", parent, req);
    spec = alloc::build_flow_graph(p, opts.style, opts.quantizer);
  }
  netflow::SolveOptions so = opts.solve;
  if (so.chain.empty()) {
    so.chain = {opts.solver, netflow::SolverKind::kNetworkSimplex,
                netflow::SolverKind::kSuccessiveShortestPaths,
                netflow::SolverKind::kCycleCanceling};
  }
  so.certify = opts.certify ? netflow::CertifyLevel::kOptimal
                            : netflow::CertifyLevel::kFeasible;
  so.workspace = &ws;
  // Track-only: measures the solve's charged peak, refuses nothing.
  so.memory_budget = netflow::MemoryBudget::make(0);
  netflow::FlowSolution sol;
  {
    ScopedSpan s(tr, "netflow.solve", parent, req);
    sol = netflow::solve_st_flow_robust(spec.graph, spec.s, spec.t,
                                        p.num_registers, so,
                                        &result.solve_diagnostics);
    const netflow::PerfCounters& perf = result.solve_diagnostics.perf;
    const double begin = tr.spans()[static_cast<std::size_t>(s.id())].start_ms;
    const double end = tr.now_ms();
    tr.add("netflow.validate", s.id(), req, begin,
           begin + static_cast<double>(perf.validate_ns) / 1e6);
    tr.add("netflow.certify", s.id(), req,
           end - static_cast<double>(perf.certify_ns) / 1e6, end);
  }
  const netflow::SolveDiagnostics& d = result.solve_diagnostics;
  counts.segments.push_back(static_cast<double>(p.segments.size()));
  counts.arcs.push_back(static_cast<double>(spec.graph.num_arcs()));
  counts.augmentations.push_back(static_cast<double>(d.perf.augmentations));
  counts.settles.push_back(static_cast<double>(d.perf.dijkstra_settles));
  counts.heap_pushes.push_back(static_cast<double>(d.perf.heap_pushes));
  counts.attempts += static_cast<std::int64_t>(d.attempts.size());
  const std::int64_t peak = so.memory_budget.peak();
  if (peak > 0) {
    counts.footprint_ratio.push_back(
        static_cast<double>(alloc::estimate_problem_footprint(p)) /
        static_cast<double>(peak));
  }
  if (!sol.optimal()) {
    result.message = "flow solve failed: " + sol.message;
    return result;
  }
  ++counts.useful;
  {
    ScopedSpan s(tr, "alloc.extract", parent, req);
    result.assignment = alloc::assignment_from_flow(p, spec, sol.arc_flow);
    result.message = alloc::validate_assignment(p, result.assignment);
  }
  if (!result.message.empty()) return result;
  result.feasible = true;
  result.flow_cost = sol.cost;
  result.model_energy = spec.base_energy + opts.quantizer.dequantize(sol.cost);
  {
    ScopedSpan s(tr, "alloc.evaluate", parent, req);
    alloc::finish_result(p, result);
  }
  return result;
}

/// Emits every per-layer metric from the spans plus what the workload
/// measured elsewhere (\p extra overrides and adds).
void emit_layers(const Tracer& tr, const SolveCounts& counts,
                 const std::map<std::string, double>& extra) {
  const auto requests = tr.per_request();
  std::map<std::string, std::vector<double>> self;  // Layer -> per request.
  std::vector<double> traced, overhead, tracing;
  // The server's own stages, which the untraced Engine call for a server
  // request does not include.
  static const std::set<std::string> kOutsideEngine = {
      "workloads.parse", "alloc.fingerprint", "engine.cache_lookup",
      "engine.cache_insert", "server.format"};
  struct Group {
    double inside = 0, outside = 0, traced = 0;
    int requests = 0;
  };
  std::map<std::int64_t, Group> groups;
  for (const auto& [req, rt] : requests) {
    const auto g = counts.group_of.find(req);
    Group& group = groups[g == counts.group_of.end() ? req : g->second];
    for (const auto& [name, ms] : rt.self_ms) {
      self[name].push_back(ms);
      if (name == "request") continue;
      (kOutsideEngine.count(name) != 0 ? group.outside : group.inside) += ms;
    }
    traced.push_back(rt.latency_ms);
    group.traced += rt.latency_ms;
    ++group.requests;
  }
  for (const auto& [id, g] : groups) {
    const auto u = counts.untraced_ms.find(id);
    if (u == counts.untraced_ms.end()) continue;
    // Per request, averaged over its group: traced latency = layer self
    // times + engine overhead (what the untraced Engine call adds around
    // the layer work it covers) + tracing overhead (what the replay adds
    // beyond the untraced call and the server's own stages).
    overhead.push_back((u->second - g.inside) / g.requests);
    tracing.push_back((g.traced - g.outside - u->second) / g.requests);
  }
  const auto layer = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  // Layers a workload does not run report 0; run_traced's workload
  // functions fill the ones measured outside the spans into `extra`.
  std::map<std::string, std::pair<double, std::string>> m = {
      {"workloads.parse_ms", {layer("workloads.parse"), "ms"}},
      {"sched.schedule_ms", {layer("sched.schedule"), "ms"}},
      {"lifetime.problem_build_ms", {layer("lifetime.problem_build"), "ms"}},
      {"lifetime.segments", {median(counts.segments), "count"}},
      {"alloc.graph_build_ms", {layer("alloc.graph_build"), "ms"}},
      {"alloc.graph_arcs", {median(counts.arcs), "count"}},
      {"alloc.extract_ms", {layer("alloc.extract"), "ms"}},
      {"alloc.evaluate_ms", {layer("alloc.evaluate"), "ms"}},
      {"alloc.layout_ms", {layer("alloc.layout"), "ms"}},
      {"alloc.fingerprint_ms", {layer("alloc.fingerprint"), "ms"}},
      {"alloc.footprint_over_actual",
       {median(counts.footprint_ratio), "ratio"}},
      {"alloc.footprint_over_actual_max",
       {counts.footprint_ratio.empty()
            ? 0.0
            : *std::max_element(counts.footprint_ratio.begin(),
                                counts.footprint_ratio.end()),
        "ratio"}},
      {"netflow.solve_ms", {layer("netflow.solve"), "ms"}},
      {"netflow.validate_ms", {layer("netflow.validate"), "ms"}},
      {"netflow.certify_ms", {layer("netflow.certify"), "ms"}},
      {"netflow.augmentations", {median(counts.augmentations), "count"}},
      {"netflow.settles", {median(counts.settles), "count"}},
      {"netflow.heap_pushes", {median(counts.heap_pushes), "count"}},
      {"netflow.attempts_per_solve",
       {counts.attempts > 0 ? static_cast<double>(counts.useful) /
                                  static_cast<double>(counts.attempts)
                            : 0.0,
        "ratio"}},
      {"engine.overhead_ms", {median(overhead), "ms"}},
      {"engine.cache_lookup_ms", {layer("engine.cache_lookup"), "ms"}},
      {"engine.cache_insert_ms", {layer("engine.cache_insert"), "ms"}},
      {"server.format_ms", {layer("server.format"), "ms"}},
      {"trace.latency_ms", {median(traced), "ms"}},
      {"trace.glue_ms", {layer("request"), "ms"}},
      {"trace.tracing_overhead_ms", {median(tracing), "ms"}},
      {"trace.requests", {static_cast<double>(requests.size()), "count"}},
      {"engine.workspace_reuse_ratio", {0.0, "ratio"}},
      {"engine.cache_hit_ratio", {0.0, "ratio"}},
      {"engine.cache_insertions", {0.0, "count"}},
      {"engine.cache_evictions", {0.0, "count"}},
      {"engine.cache_bytes", {0.0, "bytes"}},
      {"server.text_hit_ratio", {0.0, "ratio"}},
      {"server.hit_ms", {0.0, "ms"}},
      {"server.solve_ms", {0.0, "ms"}},
      {"server.queue_wait_ms", {0.0, "ms"}},
      {"server.transport_ms", {0.0, "ms"}},
      {"server.sheds", {0.0, "count"}},
  };
  for (const auto& [name, value] : extra) m.at(name).first = value;
  for (const auto& [name, vu] : m) emit_metric(name, vu.first, vu.second);
}

double reuse_ratio(const engine::EngineStats& s) {
  return s.perf.solves > 0 ? static_cast<double>(s.perf.workspace_reuse_hits) /
                                 static_cast<double>(s.perf.solves)
                           : 0.0;
}

Clock::time_point stop_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

Outcome trace_compile(const RunArgs& a, Tracer& tr, SolveCounts& counts,
                      std::map<std::string, double>& extra) {
  Outcome out;
  const CompileInputs in = make_compile_inputs(a.seed);
  engine::Engine eng(compile_engine_options());
  const alloc::AllocatorOptions opts = compile_engine_options().alloc;
  netflow::SolverWorkspace ws;
  {
    // Warm both paths once, unrecorded, as the untraced run's set-up does.
    Tracer scratch;
    SolveCounts ignored;
    eng.allocate_batch(in.pool.front().batch);
    traced_allocate(scratch, -1, 0, in.pool.front().batch.front(), opts, ws,
                    ignored);
  }
  // At least one full pass over the request order, so every input is
  // replayed.
  const Clock::time_point stop = stop_after(a.seconds);
  const auto cycle = static_cast<std::int64_t>(in.order.size());
  for (std::int64_t r = 0; Clock::now() < stop || r < cycle; ++r) {
    const auto idx = static_cast<std::size_t>(
        in.order[static_cast<std::size_t>(r) % in.order.size()]);
    const CompileInput& ci = in.pool[idx];
    const std::string what = "block " + std::to_string(idx);
    const Clock::time_point t0 = Clock::now();
    const std::vector<alloc::AllocationResult> direct =
        eng.allocate_batch(ci.batch);
    counts.untraced_ms[r] = ms_between(t0, Clock::now());
    check_result(direct.front(), ci.batch.front(), ci.key, *a.expected, out,
                 what);

    const int root = tr.begin("request", -1, r);
    const alloc::AllocationResult replay = traced_allocate(
        tr, root, r, ci.batch.front(), opts, ws, counts);
    tr.end(root);
    check_result(replay, ci.batch.front(), ci.key, *a.expected, out,
                 what + " replay");
  }
  extra["engine.workspace_reuse_ratio"] = reuse_ratio(eng.stats());
  return out;
}

/// Replays pipeline task \p task as request \p r and checks both the
/// replay's answer and the Engine's (\p rep) for it.
void replay_task(Tracer& t, SolveCounts& c, std::int64_t r,
                 const lera::ir::Task& task, const engine::TaskReport& rep,
                 std::uint64_t key, const engine::EngineOptions& o,
                 netflow::SolverWorkspace& ws, const RunArgs& a,
                 Outcome& out) {
  const int root = t.begin("request", -1, r);
  lera::sched::Schedule schedule;
  {
    ScopedSpan sp(t, "sched.schedule", root, r);
    schedule = lera::sched::list_schedule(task.block, o.resources);
  }
  std::optional<alloc::AllocationProblem> p;
  {
    // Trace evaluation (activity measurement) included.
    ScopedSpan sp(t, "lifetime.problem_build", root, r);
    const auto trace =
        engine_trace(task.block, o.trace_samples,
                     o.trace_seed + static_cast<std::uint64_t>(task.id));
    p = alloc::make_problem_from_block(task.block, schedule, o.num_registers,
                                       o.params, trace, o.split);
  }
  const alloc::AllocationResult replay =
      traced_allocate(t, root, r, *p, o.alloc, ws, c);
  alloc::MemoryLayout layout;
  if (replay.feasible) {
    ScopedSpan sp(t, "alloc.layout", root, r);
    layout = alloc::optimize_memory_layout(*p, replay.assignment,
                                           o.alloc.quantizer, o.alloc.solver);
  }
  t.end(root);

  const std::string what = "task " + task.name;
  check_result(rep.result, *p, key, *a.expected, out, what);
  check_result(replay, *p, key, *a.expected, out, what + " replay");
  ++out.attempted;
  const auto it = a.expected->find(key);
  if (it == a.expected->end() || !layout.feasible ||
      !close_rel(layout.optimized_energy, it->second.layout_energy, 1e-9) ||
      !close_rel(rep.layout.optimized_energy, layout.optimized_energy, 1e-9)) {
    out.fail_wrong(what + ": memory relayout energy mismatch");
  }
}

Outcome trace_pipeline(const RunArgs& a, Tracer& tr, SolveCounts& counts,
                       std::map<std::string, double>& extra) {
  Outcome out;
  const PipelineInputs in = make_pipeline_inputs(a.seed);
  const engine::EngineOptions& o = in.options;
  // The untraced counterpart of one replayed pass over the tasks is one
  // Engine::run of the whole graph with the workload's options, except
  // on one thread: the replay runs the tasks one after another too.
  engine::EngineOptions sequential = o;
  sequential.threads = 1;
  engine::Engine eng(sequential);
  const std::vector<lera::ir::Task>& tasks = in.graph.tasks();
  std::vector<std::uint64_t> keys;
  for (const lera::ir::Task& t : tasks) {
    keys.push_back(problem_key(pipeline_task_problem(t, o)));
  }
  netflow::SolverWorkspace ws;
  const auto n = static_cast<std::int64_t>(tasks.size());
  const Clock::time_point stop = stop_after(a.seconds);
  Tracer warm_tracer;
  SolveCounts warm_counts;
  for (std::int64_t pass = 0; Clock::now() < stop || pass < 2; ++pass) {
    // The first pass warms both paths and is not kept.
    Tracer& t = pass == 0 ? warm_tracer : tr;
    SolveCounts& c = pass == 0 ? warm_counts : counts;
    const Clock::time_point t0 = Clock::now();
    const engine::PipelineReport rep = eng.run(in.graph);
    c.untraced_ms[pass] = ms_between(t0, Clock::now());
    std::vector<const engine::TaskReport*> by_task(tasks.size(), nullptr);
    for (const engine::TaskReport& report : rep.tasks) {
      by_task.at(static_cast<std::size_t>(report.task)) = &report;
    }
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const std::int64_t r = pass * n + static_cast<std::int64_t>(ti);
      c.group_of[r] = pass;
      if (by_task[ti] == nullptr) {
        ++out.attempted;
        out.fail_wrong("task " + tasks[ti].name + ": missing from the report");
        continue;
      }
      replay_task(t, c, r, tasks[ti], *by_task[ti], keys[ti], o, ws, a, out);
    }
  }
  extra["engine.workspace_reuse_ratio"] = reuse_ratio(eng.stats());
  return out;
}

/// The server-side layers, from a real server run over the workload's
/// requests: its metrics windows, STATS counters and the client clock.
void server_layers(const server::Server& srv, const ServerSide& s,
                   const std::vector<double>& transport_ms,
                   std::map<std::string, double>& extra) {
  const double requests =
      std::max<double>(1.0, static_cast<double>(s.snapshot.solve_requests));
  const auto stat = [&](const char* k) {
    const auto it = s.stats.find(k);
    return it == s.stats.end() ? 0.0 : it->second;
  };
  extra["server.text_hit_ratio"] = stat("server_cache_text_hits") / requests;
  extra["server.hit_ms"] = median(s.window_hit_p50_ms);
  extra["server.solve_ms"] = median(s.window_solve_p50_ms);
  extra["server.queue_wait_ms"] = median(s.window_queue_p50_ms);
  extra["server.transport_ms"] = median(transport_ms);
  extra["server.sheds"] = static_cast<double>(s.snapshot.rejected_total);
  extra["engine.cache_hit_ratio"] =
      static_cast<double>(s.snapshot.cache_hits) / requests;
  extra["engine.cache_insertions"] = stat("server_cache_insertions");
  extra["engine.cache_evictions"] = stat("server_cache_evictions");
  extra["engine.cache_bytes"] = stat("server_cache_bytes");
  extra["engine.workspace_reuse_ratio"] = reuse_ratio(srv.engine().stats());
  for (int r = 0; r < server::kNumRejectReasons; ++r) {
    const std::int64_t n =
        s.snapshot.rejected_by_reason[static_cast<std::size_t>(r)];
    if (n > 0) {
      emit_metric(
          "server.sheds." + server::to_string(static_cast<server::RejectReason>(r)),
          static_cast<double>(n), "count");
    }
  }
}

/// Stage-by-stage replay of server requests, in order: the canonical
/// cache path (parse, fingerprint, lookup, format) for every request, the
/// solve stages for misses. The untraced counterpart of a problem's
/// first request is the same allocation through an Engine configured
/// like the server's.
void replay_requests(const std::vector<const ServeRequest*>& requests,
                     const RunArgs& a, Tracer& tr, SolveCounts& counts,
                     Outcome& out) {
  const server::ServerOptions so = serve_server_options();
  engine::EngineOptions eo = so.engine;
  eo.cache_entries = 0;
  eo.alloc.fallback_to_baseline = true;
  eo.threads = 1;
  engine::Engine eng(eo);
  engine::AllocCache cache(
      engine::AllocCacheOptions{so.engine.cache_entries, so.engine.cache_bytes,
                                so.engine.cache_audit_rate},
      netflow::MemoryBudget::make(0));
  netflow::SolverWorkspace ws;
  alloc::AllocatorOptions opts = eo.alloc;
  const bool static_model =
      so.engine.params.register_model == lera::energy::RegisterModel::kStatic;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto r = static_cast<std::int64_t>(i);
    const ServeRequest& req = *requests[i];
    const std::string what = "request " + std::to_string(i);
    // A problem's first request will miss: its untraced counterpart runs
    // first, as on the Engine workloads, so neither call finds the other
    // one's data warm in the processor caches.
    std::optional<double> untraced_ms;
    if (seen.insert(req.expect_key).second) {
      const lera::workloads::ProblemParseResult parsed =
          lera::workloads::parse_problem(*req.payload, so.engine.params);
      if (parsed.ok()) {
        const std::vector<alloc::AllocationProblem> batch{*parsed.problem};
        const Clock::time_point t0 = Clock::now();
        const std::vector<alloc::AllocationResult> direct =
            eng.allocate_batch(batch);
        untraced_ms = ms_between(t0, Clock::now());
        check_result(direct.front(), *parsed.problem, req.expect_key,
                     *a.expected, out, what);
      }
    }
    const int root = tr.begin("request", -1, r);
    std::optional<lera::workloads::ProblemParseResult> parsed;
    {
      ScopedSpan sp(tr, "workloads.parse", root, r);
      parsed = lera::workloads::parse_problem(*req.payload, so.engine.params);
    }
    if (!parsed->ok()) {
      tr.end(root);
      ++out.attempted;
      out.fail_wrong(what + ": parse failed");
      continue;
    }
    const alloc::AllocationProblem& p = *parsed->problem;
    std::optional<alloc::FingerprintResult> fp;
    {
      ScopedSpan sp(tr, "alloc.fingerprint", root, r);
      fp = alloc::fingerprint_problem(p);
    }
    std::optional<alloc::AllocationResult> hit;
    {
      ScopedSpan sp(tr, "engine.cache_lookup", root, r);
      hit = cache.lookup(p, *fp);
    }
    alloc::AllocationResult result;
    if (hit) {
      result = std::move(*hit);
    } else {
      result = traced_allocate(tr, root, r, p, opts, ws, counts);
      ScopedSpan sp(tr, "engine.cache_insert", root, r);
      cache.insert(*fp, result);
    }
    {
      std::string id = "r";
      id += std::to_string(i);
      ScopedSpan sp(tr, "server.format", root, r);
      server::format_verdict_line(
          id, result,
          hit ? server::Terminal::kCacheHit : server::Terminal::kServed, 0.0,
          so.echo_assignment, static_model);
    }
    tr.end(root);
    // Evicted problems miss again; they have no untraced counterpart.
    if (!hit && untraced_ms) counts.untraced_ms[r] = *untraced_ms;
    check_result(result, p, req.expect_key, *a.expected, out,
                 what + " replay");
  }
}

Outcome trace_serve(const RunArgs& a, Tracer& tr, SolveCounts& counts,
                    std::map<std::string, double>& extra) {
  Outcome out;
  const ServeInputs in = make_serve_inputs(a.seed, a.seconds);
  {
    server::Server srv(serve_server_options());
    const ServeObservation obs = drive_server(srv, in, *a.expected, out);
    server_layers(srv, obs.server, obs.transport_ms, extra);
  }
  std::vector<const ServeRequest*> requests;
  for (const ServeRequest& r : in.stream) requests.push_back(&r);
  replay_requests(requests, a, tr, counts, out);
  return out;
}

Outcome trace_hits(const RunArgs& a, Tracer& tr, SolveCounts& counts,
                   std::map<std::string, double>& extra) {
  Outcome out;
  const HitsInputs in = make_hits_inputs(a.seed);
  {
    server::Server srv(serve_server_options());
    const LoopObservation warm =
        closed_loop(srv, in.warmup, 0, *a.expected, out, true);
    const LoopObservation obs =
        closed_loop(srv, in.cycle, a.seconds, *a.expected, out, true);
    audit_first_answers(srv, warm, out);
    audit_first_answers(srv, obs, out);
    // The warm-up's windows hold the solves; the timed loop's the hits.
    ServerSide s = obs.server;
    for (auto [from, to] :
         {std::pair{&warm.server.window_solve_p50_ms, &s.window_solve_p50_ms},
          std::pair{&warm.server.window_queue_p50_ms,
                    &s.window_queue_p50_ms}}) {
      to->insert(to->begin(), from->begin(), from->end());
    }
    server_layers(srv, s, obs.transport_ms, extra);
  }
  // The warm-up, then one pass over the cycle.
  std::vector<const ServeRequest*> requests;
  for (const ServeRequest& r : in.warmup) requests.push_back(&r);
  for (const ServeRequest& r : in.cycle) requests.push_back(&r);
  replay_requests(requests, a, tr, counts, out);
  return out;
}

}  // namespace

Outcome run_traced(const RunArgs& args, const std::string& trace_path) {
  Tracer tr;
  SolveCounts counts;
  std::map<std::string, double> extra;
  Outcome out;
  switch (args.workload) {
    case Workload::kCompileLarge:
      out = trace_compile(args, tr, counts, extra);
      break;
    case Workload::kPipelineKernels:
      out = trace_pipeline(args, tr, counts, extra);
      break;
    case Workload::kServeRepeat:
      out = trace_serve(args, tr, counts, extra);
      break;    case Workload::kServeHits:
      out = trace_hits(args, tr, counts, extra);
      break;
  }
  emit_layers(tr, counts, extra);
  if (!trace_path.empty() && !tr.write_json(trace_path)) {
    std::cerr << "perfbench: cannot write " << trace_path << "\n";
  }
  return out;
}

}  // namespace perfbench
