#include "runs.hpp"

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "audit/audit.hpp"
#include "engine/engine.hpp"
#include "server/framing.hpp"
#include "server/stream.hpp"
#include "workloads/problem_io.hpp"

namespace perfbench {

namespace alloc = lera::alloc;
namespace engine = lera::engine;
namespace server = lera::server;

void check_result(const alloc::AllocationResult& r,
                  const alloc::AllocationProblem& p, std::uint64_t key,
                  const ExpectedMap& expected, Outcome& out,
                  const std::string& what) {
  ++out.attempted;
  const auto it = expected.find(key);
  if (it == expected.end()) {
    out.fail_wrong(what + ": no expected objective for key " + hex64(key));
  } else if (!r.feasible || r.degraded || r.timed_out) {
    out.fail(what + ": not an optimal answer (" + r.message + ")");
  } else if (!matches(it->second, r.flow_cost, r.energy(p))) {
    out.fail_wrong(what + ": objective " + std::to_string(r.energy(p)) +
                   " != expected " + std::to_string(it->second.energy));
  }
}

namespace {

/// Independent full-cost audit of a result the run produced.
void audit_output(const alloc::AllocationProblem& p,
                  const alloc::AllocationResult& r, Outcome& out,
                  const std::string& what) {
  ++out.attempted;
  lera::audit::AuditOptions opts;
  opts.level = lera::audit::AuditLevel::kFullCost;
  const lera::audit::AuditReport rep = lera::audit::audit_result(p, r, opts);
  if (!rep.clean()) out.fail_wrong(what + ": " + rep.summary());
}

void emit_latency(const std::vector<double>& lat_ms,
                  const std::vector<double>& miss_ms, double setup_s,
                  double per_s, const Outcome& out) {
  const Tail tail = tail_of(lat_ms);
  emit_metric("setup_s", setup_s, "s");
  emit_metric("solves_per_s", per_s, "1/s");
  emit_metric("latency_p50_ms", median(lat_ms), "ms");
  emit_metric("latency_tail_ms", tail.value_ms, "ms");
  emit_metric("latency_tail_pct", tail.percentile, "pct");
  emit_metric("latency_samples", static_cast<double>(tail.samples), "count");
  emit_metric("miss_latency_p50_ms", median(miss_ms), "ms");
  emit_metric("fail_ratio",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0,
              "ratio");
  emit_metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Runs `reset` then times `setup`, repeatedly, and returns the median
/// set-up time: at least kSetupRepeats times, and more (up to 25) while
/// the timed total stays under two seconds, so short set-ups still get a
/// steady median. The run uses the last set-up.
template <class Reset, class Setup>
double median_setup_s(Reset&& reset, Setup&& setup) {
  std::vector<double> s;
  double total = 0;
  while (s.size() < static_cast<std::size_t>(kSetupRepeats) ||
         (s.size() < 25 && total < 2.0)) {
    reset();
    const Clock::time_point t0 = Clock::now();
    setup();
    s.push_back(seconds_between(t0, Clock::now()));
    total += s.back();
  }
  return median(s);
}

Outcome run_compile(const RunArgs& a) {
  Outcome out;
  std::unique_ptr<CompileInputs> in;
  std::unique_ptr<engine::Engine> eng;
  std::vector<alloc::AllocationResult> warm;
  const double setup_s = median_setup_s(
      [&] {
        eng.reset();
        in.reset();
      },
      [&] {
        in = std::make_unique<CompileInputs>(make_compile_inputs(a.seed));
        eng = std::make_unique<engine::Engine>(compile_engine_options());
        // Warm-up: one solve of the smallest block starts the pool
        // threads and grows a leased workspace before the first request.
        warm = eng->allocate_batch(in->pool.front().batch);
      });
  check_result(warm.front(), in->pool.front().batch.front(),
               in->pool.front().key, *a.expected, out, "warm-up");

  // Closed loop: two callers, each with one allocate_batch in flight.
  std::mutex mutex;  // Guards out, lat, lat_block, last.
  std::vector<double> lat;
  std::vector<std::size_t> lat_block;
  std::vector<std::optional<alloc::AllocationResult>> last(in->pool.size());
  // The callers run in rounds: both send a block of the same size, and
  // the next round starts when both have their answer. Two concurrent
  // solves share memory bandwidth; pairing equal sizes keeps that
  // sharing the same from run to run instead of depending on how the
  // two callers happen to drift against each other. A run is a fixed
  // number of whole passes (see compile_passes).
  const std::size_t total_rounds =
      static_cast<std::size_t>(compile_passes(a.seconds)) *
      in->order.size() / 2;
  const Clock::time_point start = Clock::now();
  bool more = true;  // Written only by the barrier's completion step.
  std::size_t rounds = 0;
  std::barrier round_end(2,
                         [&]() noexcept { more = ++rounds < total_rounds; });
  const auto caller = [&](std::size_t t) {
    for (std::size_t round = 0; more; ++round) {
      const std::size_t i = 2 * round + t;
      const auto idx = static_cast<std::size_t>(in->order[i % in->order.size()]);
      const CompileInput& ci = in->pool[idx];
      const Clock::time_point t0 = Clock::now();
      std::vector<alloc::AllocationResult> r = eng->allocate_batch(ci.batch);
      const double ms = ms_between(t0, Clock::now());
      {
        std::lock_guard<std::mutex> lock(mutex);
        lat.push_back(ms);
        lat_block.push_back(idx);
        check_result(r.front(), ci.batch.front(), ci.key, *a.expected, out,
                     "block " + std::to_string(idx));
        last[idx] = std::move(r.front());
      }
      round_end.arrive_and_wait();
    }
  };
  std::thread t1(caller, 0), t2(caller, 1);
  t1.join();
  t2.join();
  const double elapsed = seconds_between(start, Clock::now());

  for (std::size_t i = 0; i < last.size(); ++i) {
    if (last[i]) {
      audit_output(in->pool[i].batch.front(), *last[i], out,
                   "audit block " + std::to_string(i));
    }
  }
  std::map<int, std::vector<double>> by_size;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    by_size[in->pool[lat_block[i]].vars].push_back(lat[i]);
  }
  for (const auto& [vars, v] : by_size) {
    emit_metric("latency_p50_ms.vars" + std::to_string(vars), median(v), "ms");
  }
  emit_latency(lat, lat, setup_s,
               static_cast<double>(lat.size()) / elapsed, out);
  return out;
}

Outcome run_pipeline(const RunArgs& a) {
  Outcome out;
  std::unique_ptr<PipelineInputs> in;
  std::unique_ptr<engine::Engine> eng;
  std::optional<engine::PipelineReport> warm;
  const double setup_s = median_setup_s(
      [&] {
        eng.reset();
        in.reset();
      },
      [&] {
        in = std::make_unique<PipelineInputs>(make_pipeline_inputs(a.seed));
        eng = std::make_unique<engine::Engine>(in->options);
        warm = eng->run(in->graph);  // Warm-up: one full pass.
      });

  // Checker state, outside the timed region: the problem and expected
  // objective of every task.
  std::vector<alloc::AllocationProblem> problems;
  std::vector<std::uint64_t> keys;
  for (const lera::ir::Task& t : in->graph.tasks()) {
    problems.push_back(pipeline_task_problem(t, in->options));
    keys.push_back(problem_key(problems.back()));
  }
  const auto check_report = [&](const engine::PipelineReport& rep) {
    for (std::size_t i = 0; i < rep.tasks.size(); ++i) {
      const engine::TaskReport& tr = rep.tasks[i];
      const auto id = static_cast<std::size_t>(tr.task);
      const std::string what = "task " + tr.name;
      const std::int64_t before = out.failed;
      check_result(tr.result, problems[id], keys[id], *a.expected, out, what);
      const auto it = a.expected->find(keys[id]);
      if (out.failed == before && it != a.expected->end() &&
          (!tr.layout.feasible ||
           !close_rel(tr.layout.optimized_energy, it->second.layout_energy,
                      1e-9))) {
        out.fail_wrong(what + ": memory relayout energy mismatch");
      }
    }
  };
  check_report(*warm);

  std::vector<double> lat;
  std::int64_t tasks_done = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  std::optional<engine::PipelineReport> last;
  while (Clock::now() < stop) {
    const Clock::time_point t0 = Clock::now();
    engine::PipelineReport rep = eng->run(in->graph);
    lat.push_back(ms_between(t0, Clock::now()));
    tasks_done += static_cast<std::int64_t>(rep.tasks.size());
    check_report(rep);
    last = std::move(rep);
  }
  const double elapsed = seconds_between(start, Clock::now());

  for (const engine::TaskReport& tr : last->tasks) {
    audit_output(problems[static_cast<std::size_t>(tr.task)], tr.result, out,
                 "audit task " + tr.name);
  }
  emit_latency(lat, lat, setup_s,
               static_cast<double>(tasks_done) / elapsed, out);
  return out;
}

// --- serve-repeat and serve-hits -----------------------------------------

/// STATS reply collector shared by a connection's reader.
struct StatsBox {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::string, double> values;
  bool done = false;
};

/// Called on a connection's reader thread for each verdict line: the
/// request index from its "r<index>" id, the line, and when it arrived.
using VerdictHandler =
    std::function<void(std::size_t, const std::string&, Clock::time_point)>;

/// One client connection: a MemoryChannel, the thread serving its far
/// end, and a reader thread passing response lines to a handler.
class Connection {
 public:
  Connection(server::Server& srv, StatsBox& stats, VerdictHandler on_verdict)
      : stats_(stats),
        on_verdict_(std::move(on_verdict)),
        server_thread_([this, &srv] { srv.serve(channel_.server_end()); }),
        reader_thread_([this] { read_loop(); }) {}

  ~Connection() { finish(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Thread-safe: a frame is written whole.
  void send(const server::Frame& f) {
    const std::string bytes = server::encode_frame(f);
    std::lock_guard<std::mutex> lock(send_mutex_);
    channel_.client_end().write(bytes);
  }

  /// Sends STATS and waits (up to ten seconds) for its reply.
  void request_stats() {
    server::Frame st;
    st.verb = server::FrameVerb::kStats;
    st.id = "stats";
    send(st);
    std::unique_lock<std::mutex> lock(stats_.mutex);
    stats_.cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return stats_.done; });
  }

  /// Ends the request stream and waits until every response is read.
  void finish() {
    if (finished_) return;
    finished_ = true;
    channel_.close_client_writes();
    if (server_thread_.joinable()) server_thread_.join();
    channel_.close_server_writes();
    if (reader_thread_.joinable()) reader_thread_.join();
  }

 private:
  void read_loop() {
    char buffer[8192];
    std::string acc;
    for (;;) {
      const std::ptrdiff_t n =
          channel_.client_end().read(buffer, sizeof buffer);
      if (n == server::ByteStream::kReadAgain) continue;
      if (n <= 0) break;
      acc.append(buffer, static_cast<std::size_t>(n));
      std::size_t begin = 0, nl;
      while ((nl = acc.find('\n', begin)) != std::string::npos) {
        on_line(acc.substr(begin, nl - begin));
        begin = nl + 1;
      }
      acc.erase(0, begin);
    }
  }

  void on_line(const std::string& line) {
    const Clock::time_point now = Clock::now();
    const std::size_t sp = line.find(' ');
    const std::string type = line.substr(0, sp);
    if (type == "LERA_METRIC") {
      std::istringstream is(line);
      std::string tag, name;
      double v = 0;
      if (is >> tag >> name >> v) {
        std::lock_guard<std::mutex> lock(stats_.mutex);
        stats_.values[name] = v;
      }
      return;
    }
    if (type == "LERA_STATS_END") {
      std::lock_guard<std::mutex> lock(stats_.mutex);
      stats_.done = true;
      stats_.cv.notify_all();
      return;
    }
    // Verdict lines carry the request id "r<index>" second.
    if (sp == std::string::npos || line.compare(sp + 1, 1, "r") != 0) return;
    on_verdict_(std::strtoull(line.c_str() + sp + 2, nullptr, 10), line, now);
  }

  StatsBox& stats_;
  VerdictHandler on_verdict_;
  std::mutex send_mutex_;
  server::MemoryChannel channel_;
  bool finished_ = false;
  std::thread server_thread_;
  std::thread reader_thread_;
};

/// Samples Server::metrics() every 250 ms while it lives: the server
/// keeps a rolling 512-sample window, so the layer medians are sampled
/// through the run rather than read once.
class MetricsSampler {
 public:
  MetricsSampler(const server::Server& srv, ServerSide& into)
      : thread_([this, &srv, &into] {
          std::int64_t hits_seen = 0, solves_seen = 0;
          std::unique_lock<std::mutex> lock(mutex_);
          for (bool last = false; !last;) {
            // One more sample once stopped, so a short run has one too.
            last = cv_.wait_for(lock, std::chrono::milliseconds(250),
                                [this] { return stop_; });
            const server::MetricsSnapshot s = srv.metrics();
            if (s.cache_hit_latency.count > hits_seen) {
              hits_seen = s.cache_hit_latency.count;
              into.window_hit_p50_ms.push_back(s.cache_hit_latency.p50_ms);
            }
            if (s.latency.count > solves_seen) {
              solves_seen = s.latency.count;
              into.window_solve_p50_ms.push_back(s.latency.p50_ms);
              into.window_queue_p50_ms.push_back(s.queue_wait.p50_ms);
            }
          }
        }) {}

  ~MetricsSampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // Last: starts once the members above exist.
};

/// Value of `key=` in a verdict line, or nullopt.
std::optional<std::string> field(const std::string& line,
                                 const std::string& key) {
  const std::size_t pos = line.find(" " + key + "=");
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t begin = pos + key.size() + 2;
  return line.substr(begin, line.find(' ', begin) - begin);
}

bool is_cached(const std::string& line) {
  return field(line, "cached").value_or("0") == "1";
}

/// Rebuilds the echoed assignment (`assign=r0,mem,...`).
std::optional<alloc::Assignment> echoed_assignment(const std::string& line,
                                                   std::size_t segments) {
  const std::optional<std::string> a = field(line, "assign");
  if (!a) return std::nullopt;
  alloc::Assignment out(segments);
  std::size_t seg = 0, begin = 0;
  while (begin <= a->size() && seg < segments) {
    std::size_t end = a->find(',', begin);
    if (end == std::string::npos) end = a->size();
    const std::string tok = a->substr(begin, end - begin);
    if (tok.size() > 1 && tok[0] == 'r') {
      out.assign_register(seg, std::atoi(tok.c_str() + 1));
    }
    ++seg;
    begin = end + 1;
  }
  if (seg != segments) return std::nullopt;
  return out;
}

/// Books one verdict line for \p req: refused, wrong, or an answer whose
/// energy must match the expected objective. True when it is an answer.
bool check_verdict(const std::string& line, const ServeRequest& req,
                   const ExpectedMap& expected, Outcome& out,
                   const std::string& what) {
  ++out.attempted;
  const std::string type = line.substr(0, line.find(' '));
  if (type == "LERA_REJECT" || type == "LERA_TIMEOUT" ||
      type == "LERA_CANCELLED") {
    out.fail(what + ": " + line.substr(0, 120));
    return false;
  }
  if (type != "LERA_RESULT") {
    out.fail_wrong(what + ": " + line.substr(0, 120));
    return false;
  }
  const double e = std::atof(field(line, "energy").value_or("nan").c_str());
  const auto it = expected.find(req.expect_key);
  if (it == expected.end()) {
    out.fail_wrong(what + ": no expected objective");
  } else if (!close_rel(e, it->second.energy, 1e-5)) {
    // The verdict line prints six significant digits.
    out.fail_wrong(what + ": energy " + std::to_string(e) + " != expected " +
                   std::to_string(it->second.energy));
  } else if (field(line, "status").value_or("") != "ok") {
    out.fail(what + ": degraded answer");
  }
  return true;
}

/// Audits the assignment a verdict line echoes for \p payload at full
/// cost.
void audit_echo(const server::Server& srv, const std::string& payload,
                const std::string& line, Outcome& out,
                const std::string& what) {
  ++out.attempted;
  const lera::workloads::ProblemParseResult parsed =
      lera::workloads::parse_problem(payload, srv.options().engine.params);
  std::optional<alloc::Assignment> a;
  if (parsed.ok()) {
    a = echoed_assignment(line, parsed.problem->segments.size());
  }
  if (!a) {
    out.fail_wrong(what + ": no echoed assignment to audit");
    return;
  }
  lera::audit::AuditOptions opts;
  opts.level = lera::audit::AuditLevel::kFullCost;
  const lera::audit::AuditReport rep =
      lera::audit::audit_allocation(*parsed.problem, *a, opts);
  if (!rep.clean()) out.fail_wrong(what + ": " + rep.summary());
}

/// One answer as the client saw it (serve-repeat).
struct Slot {
  std::atomic<bool> done{false};
  Clock::time_point at;
  std::string line;
};

}  // namespace

ServeObservation drive_server(server::Server& srv, const ServeInputs& in,
                              const ExpectedMap& expected, Outcome& out) {
  ServeObservation obs;
  const std::size_t n = in.stream.size();
  std::vector<Slot> slots(n);
  StatsBox stats;
  std::vector<Clock::time_point> due(n), sent(n);
  {
    const VerdictHandler file = [&slots](std::size_t idx,
                                         const std::string& line,
                                         Clock::time_point at) {
      if (idx >= slots.size()) return;
      Slot& s = slots[idx];
      s.at = at;
      s.line = line;
      s.done.store(true, std::memory_order_release);
    };
    Connection c0(srv, stats, file), c1(srv, stats, file);
    Connection* conns[2] = {&c0, &c1};
    MetricsSampler sampler(srv, obs.server);

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / kServeRate));
      std::this_thread::sleep_until(due[i] - kSendSpin);
      while (Clock::now() < due[i]) {
      }
      server::Frame f;
      f.verb = server::FrameVerb::kSolve;
      f.id = "r" + std::to_string(i);
      f.payload = *in.stream[i].payload;
      sent[i] = Clock::now();
      conns[i % 2]->send(f);
    }
    // Every request gets an answer or is booked unanswered after a
    // generous grace period.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
    for (std::size_t i = 0; i < n; ++i) {
      while (!slots[i].done.load(std::memory_order_acquire) &&
             Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    Clock::time_point last = start;
    for (const Slot& s : slots) {
      if (s.done.load(std::memory_order_acquire)) last = std::max(last, s.at);
    }
    obs.elapsed_s = seconds_between(start, last);
    c0.request_stats();
    obs.server.snapshot = srv.metrics();
  }  // Connections finish here.
  obs.server.stats = stats.values;

  // Send order is not service order (two connections, one reader thread
  // each), so a hit is judged against what the server could have known:
  // it is stale unless a request for the same problem was answered by a
  // solve and had been sent before the hit came back.
  std::unordered_map<std::uint64_t, Clock::time_point> first_solve_sent;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    if (!s.done.load(std::memory_order_acquire) ||
        s.line.rfind("LERA_RESULT", 0) != 0 || is_cached(s.line)) {
      continue;
    }
    const auto [it, fresh] =
        first_solve_sent.emplace(in.stream[i].expect_key, sent[i]);
    if (!fresh) it->second = std::min(it->second, sent[i]);
  }

  // Check every answer; audit one served assignment per distinct problem.
  std::unordered_set<std::uint64_t> audited;
  for (std::size_t i = 0; i < n; ++i) {
    const ServeRequest& req = in.stream[i];
    const Slot& s = slots[i];
    const std::string what = "request " + std::to_string(i);
    obs.gen_late_ms.push_back(ms_between(due[i], sent[i]));
    if (!s.done.load(std::memory_order_acquire)) {
      ++out.attempted;
      out.fail_wrong(what + ": unanswered");
      continue;
    }
    if (!check_verdict(s.line, req, expected, out, what)) continue;
    ++obs.answered;
    const bool cached = is_cached(s.line);
    const double server_ms =
        std::atof(field(s.line, "latency_ms").value_or("0").c_str());
    const double lat = ms_between(due[i], s.at);
    obs.latency_ms.push_back(lat);
    if (!cached) obs.miss_latency_ms.push_back(lat);
    obs.transport_ms.push_back(ms_between(sent[i], s.at) - server_ms);
    if (cached && req.first_occurrence &&
        (req.cls == RequestClass::kJittered ||
         req.cls == RequestClass::kCold)) {
      ++obs.first_occurrence_hits;
    }
    if (cached) {
      const auto solved = first_solve_sent.find(req.expect_key);
      if (solved == first_solve_sent.end() || solved->second > s.at) {
        out.fail_wrong(what + ": cache hit on a problem never solved");
      }
    }
    if (audited.insert(req.expect_key).second) {
      audit_echo(srv, *req.payload, s.line, out, what);
    }
  }
  return obs;
}

namespace {

/// One serve-hits connection: keeps kHitsInFlight requests outstanding
/// and sends the next as each answer arrives (answers on a connection
/// come back in send order). Request k of the connection is
/// requests[(first + 2 k) % size]; without cycling it sends each of its
/// share once.
class ClosedLoop {
 public:
  ClosedLoop(server::Server& srv, StatsBox& stats,
             const std::vector<ServeRequest>& requests, std::size_t first,
             bool cycle, const ExpectedMap& expected)
      : requests_(requests),
        first_(first),
        limit_(cycle ? SIZE_MAX : (requests.size() + 1 - first) / 2),
        expected_(expected),
        conn_(srv, stats,
              [this](std::size_t k, const std::string& line,
                     Clock::time_point at) { on_answer(k, line, at); }) {}

  void start() {
    for (int i = 0; i < kHitsInFlight; ++i) send_next();
  }

  /// Sends nothing more and waits (up to a minute) for what is
  /// outstanding.
  void stop() {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    cv_.wait_for(lock, std::chrono::seconds(60),
                 [this] { return outstanding_.empty(); });
  }

  /// Waits (up to a minute) until a non-cycling loop has sent its share
  /// and every answer is in.
  void wait_done() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(60), [this] {
      return next_ >= limit_ && outstanding_.empty();
    });
  }

  Connection& connection() { return conn_; }

  /// Ends the stream, books whatever was never answered and adds this
  /// connection's outcome to \p into.
  void finish(Outcome& into) {
    conn_.finish();
    for (const auto& entry : outstanding_) {
      ++out_.attempted;
      out_.fail_wrong("request " + std::to_string(entry.first) +
                      ": unanswered");
    }
    outstanding_.clear();
    into.attempted += out_.attempted;
    into.failed += out_.failed;
    into.wrong += out_.wrong;
    for (const std::string& p : out_.problems) {
      if (into.problems.size() < 12) into.problems.push_back(p);
    }
  }

  // Written by the reader thread; read after finish().
  std::vector<double> latency_ms, transport_ms;
  std::int64_t answered = 0, hits = 0;
  Clock::time_point last_answer{};
  /// One answer line per distinct problem, for the audit.
  std::map<std::uint64_t, std::pair<const ServeRequest*, std::string>>
      first_answer;

 private:
  const ServeRequest& request(std::size_t k) const {
    return requests_[(first_ + 2 * k) % requests_.size()];
  }

  /// Called from the starting thread and the reader thread at once, so
  /// the next index is taken and sent under one lock: frames go out in
  /// index order, the order answers come back in.
  void send_next() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || next_ >= limit_) return;
    const std::size_t k = next_++;
    server::Frame f;
    f.verb = server::FrameVerb::kSolve;
    f.id = "r" + std::to_string(k);
    f.payload = *request(k).payload;
    outstanding_.emplace_back(k, Clock::now());
    conn_.send(f);
  }

  void on_answer(std::size_t k, const std::string& line,
                 Clock::time_point at) {
    Clock::time_point sent;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (outstanding_.empty() || outstanding_.front().first != k) {
        ++out_.attempted;
        out_.fail_wrong("request " + std::to_string(k) +
                        ": answered out of order");
        return;
      }
      sent = outstanding_.front().second;
      outstanding_.pop_front();
    }
    const ServeRequest& req = request(k);
    if (check_verdict(line, req, expected_, out_,
                      "request " + std::to_string(k))) {
      ++answered;
      hits += is_cached(line) ? 1 : 0;
      last_answer = at;
      latency_ms.push_back(ms_between(sent, at));
      transport_ms.push_back(
          ms_between(sent, at) -
          std::atof(field(line, "latency_ms").value_or("0").c_str()));
      if (first_answer.count(req.expect_key) == 0) {
        first_answer.emplace(req.expect_key, std::make_pair(&req, line));
      }
    }
    send_next();
    std::lock_guard<std::mutex> lock(mutex_);
    if (outstanding_.empty()) cv_.notify_all();
  }

  const std::vector<ServeRequest>& requests_;
  const std::size_t first_;
  const std::size_t limit_;
  const ExpectedMap& expected_;
  Outcome out_;  ///< Reader thread only, until finish().
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, Clock::time_point>> outstanding_;
  std::size_t next_ = 0;
  bool stopping_ = false;
  Connection conn_;  // Last: its reader thread calls on_answer.
};

}  // namespace

LoopObservation closed_loop(server::Server& srv,
                            const std::vector<ServeRequest>& requests,
                            double seconds, const ExpectedMap& expected,
                            Outcome& out, bool observe_server) {
  LoopObservation obs;
  StatsBox stats;
  const bool cycle = seconds > 0;
  {
    std::optional<MetricsSampler> sampler;
    if (observe_server) sampler.emplace(srv, obs.server);
    ClosedLoop c0(srv, stats, requests, 0, cycle, expected);
    ClosedLoop c1(srv, stats, requests, 1, cycle, expected);
    const Clock::time_point start = Clock::now();
    c0.start();
    c1.start();
    if (cycle) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds)));
      c0.stop();
      c1.stop();
    } else {
      c0.wait_done();
      c1.wait_done();
    }
    if (observe_server) {
      c0.connection().request_stats();
      obs.server.snapshot = srv.metrics();
    }
    c0.finish(out);
    c1.finish(out);
    sampler.reset();
    obs.elapsed_s =
        seconds_between(start, std::max(c0.last_answer, c1.last_answer));
    for (ClosedLoop* c : {&c0, &c1}) {
      obs.latency_ms.insert(obs.latency_ms.end(), c->latency_ms.begin(),
                            c->latency_ms.end());
      obs.transport_ms.insert(obs.transport_ms.end(), c->transport_ms.begin(),
                              c->transport_ms.end());
      obs.answered += c->answered;
      obs.hits += c->hits;
      obs.first_answer.insert(c->first_answer.begin(), c->first_answer.end());
    }
  }
  obs.server.stats = stats.values;
  return obs;
}

void audit_first_answers(const server::Server& srv,
                         const LoopObservation& obs, Outcome& out) {
  for (const auto& [key, answer] : obs.first_answer) {
    audit_echo(srv, *answer.first->payload, answer.second, out,
               "audit problem " + hex64(key));
  }
}

namespace {

Outcome run_serve(const RunArgs& a) {
  Outcome out;
  std::unique_ptr<ServeInputs> in;
  std::unique_ptr<server::Server> srv;
  // Input generation plus server construction; the cache starts empty.
  const double setup_s = median_setup_s(
      [&] {
        srv.reset();
        in.reset();
      },
      [&] {
        in = std::make_unique<ServeInputs>(
            make_serve_inputs(a.seed, a.seconds));
        srv = std::make_unique<server::Server>(serve_server_options());
      });
  const ServeObservation obs = drive_server(*srv, *in, *a.expected, out);
  const double late_p99 = quantile(obs.gen_late_ms, 0.99);
  emit_metric("gen_late_p99_ms", late_p99, "ms");
  emit_metric("first_occurrence_hits",
              static_cast<double>(obs.first_occurrence_hits), "count");
  emit_latency(obs.latency_ms, obs.miss_latency_ms, setup_s,
               static_cast<double>(obs.answered) / obs.elapsed_s, out);
  if (late_p99 > kMaxGenLateP99Ms) {
    // Not a server measurement: the generator could not keep its
    // schedule. Fail the run instead of reporting its latency.
    std::cerr << "perfbench: run invalid, generator fell behind (p99 "
              << late_p99 << " ms late)\n";
    out.fail_wrong("generator fell behind");
  }
  return out;
}

Outcome run_hits(const RunArgs& a) {
  Outcome out;
  std::unique_ptr<HitsInputs> in;
  std::unique_ptr<server::Server> srv;
  std::optional<LoopObservation> warm;
  std::vector<double> miss_ms;  // Every set-up's warm-up answers.
  // Input generation, server construction and the warm-up that solves
  // every problem of the cycle once, filling the cache.
  const double setup_s = median_setup_s(
      [&] {
        srv.reset();
        in.reset();
      },
      [&] {
        in = std::make_unique<HitsInputs>(make_hits_inputs(a.seed));
        srv = std::make_unique<server::Server>(serve_server_options());
        warm = closed_loop(*srv, in->warmup, 0, *a.expected, out, false);
        miss_ms.insert(miss_ms.end(), warm->latency_ms.begin(),
                       warm->latency_ms.end());
      });
  if (warm->hits != 0) {
    out.fail_wrong("warm-up: " + std::to_string(warm->hits) +
                   " cache hit(s) on problems never solved");
  }

  const LoopObservation obs =
      closed_loop(*srv, in->cycle, a.seconds, *a.expected, out, false);
  audit_first_answers(*srv, *warm, out);
  audit_first_answers(*srv, obs, out);
  emit_metric("timed_misses", static_cast<double>(obs.answered - obs.hits),
              "count");
  emit_latency(obs.latency_ms, miss_ms, setup_s,
               static_cast<double>(obs.answered) / obs.elapsed_s, out);
  return out;
}

}  // namespace

Outcome run_untraced(const RunArgs& args) {
  switch (args.workload) {
    case Workload::kCompileLarge: return run_compile(args);
    case Workload::kPipelineKernels: return run_pipeline(args);
    case Workload::kServeRepeat: return run_serve(args);
    case Workload::kServeHits: return run_hits(args);
  }
  return {};
}

}  // namespace perfbench
