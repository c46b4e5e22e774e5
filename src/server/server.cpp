#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <list>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "alloc/fingerprint.hpp"
#include "alloc/flow_graph.hpp"
#include "audit/audit.hpp"
#include "server/worker.hpp"
#include "workloads/problem_io.hpp"

namespace lera::server {

// sanitize_detail / reject_line / classify_result / format_verdict_line
// live in worker.hpp: the isolated worker loop must emit byte-identical
// response lines, so both paths share one implementation.

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Maps a worker's verdict line back to the terminal state it already
/// classified (the line was produced by format_verdict_line, so the
/// prefix vocabulary is closed). nullopt = not a terminal (the worker
/// rejected its payload).
std::optional<Terminal> classify_worker_line(const std::string& line) {
  if (line.rfind("LERA_RESULT ", 0) == 0) {
    return line.find(" status=degraded ") != std::string::npos
               ? Terminal::kDegraded
               : Terminal::kServed;
  }
  if (line.rfind("LERA_ERROR ", 0) == 0) return Terminal::kInfeasible;
  if (line.rfind("LERA_TIMEOUT ", 0) == 0) return Terminal::kTimedOut;
  if (line.rfind("LERA_CANCELLED ", 0) == 0) return Terminal::kCancelled;
  return std::nullopt;
}

/// Pulls the worker-side solve latency out of a LERA_RESULT line so the
/// parent can split its own end-to-end latency into queue wait vs solve
/// time, mirroring the in-process wall-seconds split. 0 when absent.
double parse_worker_latency_ms(const std::string& line) {
  const std::size_t pos = line.find(" latency_ms=");
  if (pos == std::string::npos) return 0;
  return std::strtod(line.c_str() + pos + 12, nullptr);
}

/// Rebuilds the per-segment placement from a LERA_RESULT line's
/// assign= echo ("r0,mem,r1,..."). nullopt when the echo is absent,
/// malformed, or does not cover exactly \p num_segments segments —
/// worker-mode cache inserts are best-effort, never guesses.
std::optional<alloc::Assignment> parse_assignment_echo(
    const std::string& line, std::size_t num_segments) {
  const std::size_t pos = line.find(" assign=");
  if (pos == std::string::npos) return std::nullopt;
  std::size_t i = pos + 8;
  alloc::Assignment a(num_segments);
  std::size_t seg = 0;
  while (i < line.size() && line[i] != ' ' && line[i] != '\n') {
    std::size_t end = line.find_first_of(", \n", i);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(i, end - i);
    if (seg >= num_segments) return std::nullopt;
    if (token == "mem") {
      a.assign_memory(seg);
    } else if (token.size() > 1 && token[0] == 'r') {
      char* parsed_end = nullptr;
      const long reg = std::strtol(token.c_str() + 1, &parsed_end, 10);
      if (parsed_end == nullptr || *parsed_end != '\0' || reg < 0) {
        return std::nullopt;
      }
      a.assign_register(seg, static_cast<int>(reg));
    } else {
      return std::nullopt;
    }
    ++seg;
    i = end;
    if (i < line.size() && line[i] == ',') ++i;
  }
  if (seg != num_segments) return std::nullopt;
  return a;
}

}  // namespace

/// One queued response slot, produced by the reader and consumed by
/// the writer in frame order.
struct Server::ConnEntry {
  /// Ready-made response (rejections, control verbs).
  std::string ready_text;
  /// Pending solve: one single-ticket session per request, so each
  /// request carries its own cancel token chained under the engine's
  /// shutdown token.
  std::optional<engine::Session> session;
  std::size_t ticket = 0;
  /// Pending isolated solve (supervisor.hpp); set instead of session
  /// when the server runs with worker isolation enabled.
  std::shared_ptr<PendingSolve> pending;
  std::string id;
  std::string tenant;
  Clock::time_point admitted_at{};
  /// Cache-enabled mode only: the request's canonical fingerprint (the
  /// insert key once the solve finishes) and — in isolated mode — the
  /// parsed problem the worker-line reconstruction re-validates against.
  std::optional<alloc::FingerprintResult> fingerprint;
  std::shared_ptr<alloc::AllocationProblem> cache_problem;
};

/// Tier-0 exact-text cache front: raw payload bytes -> the certified
/// result already served for those exact bytes. Entries only come from
/// canonical-cache hits, so everything in here has already passed the
/// AllocCache certification gate; the stored payload is memcmp-verified
/// on every hit, so a 64-bit key collision costs one parse, never a
/// wrong answer. LRU-bounded by the same entry cap as the canonical
/// cache. Thread-safe (one reader thread per connection).
struct Server::TextFront {
  struct Entry {
    std::string payload;
    alloc::AllocationResult result;
    std::list<std::uint64_t>::iterator lru_it;
  };

  explicit TextFront(std::size_t cap, std::uint32_t audit_every)
      : max_entries(cap), audit_rate(audit_every) {}

  std::size_t max_entries;
  /// Every Nth text hit is refused here so the request takes the
  /// parse + canonical path, where AllocCache's sampled re-audit can
  /// see it. 0 = never fall through.
  std::uint32_t audit_rate;
  mutable std::mutex mutex;
  std::uint64_t hit_seq = 0;
  std::int64_t hits = 0;
  std::list<std::uint64_t> lru;  ///< Most-recent key at the front.
  std::unordered_map<std::uint64_t, Entry> map;

  static std::uint64_t key_of(const std::string& payload) {
    return std::hash<std::string>{}(payload);
  }

  std::optional<alloc::AllocationResult> lookup(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = map.find(key_of(payload));
    if (it == map.end() || it->second.payload != payload) return std::nullopt;
    if (audit_rate > 0 && ++hit_seq % audit_rate == 0) return std::nullopt;
    ++hits;
    lru.splice(lru.begin(), lru, it->second.lru_it);
    return it->second.result;
  }

  void store(const std::string& payload, const alloc::AllocationResult& r) {
    std::lock_guard<std::mutex> lock(mutex);
    const std::uint64_t key = key_of(payload);
    const auto it = map.find(key);
    if (it != map.end()) {
      // Same key: refresh (covers both an exact repeat racing its own
      // insert and a hash collision, where last-writer wins — the
      // payload check in lookup keeps either case correct).
      it->second.payload = payload;
      it->second.result = r;
      lru.splice(lru.begin(), lru, it->second.lru_it);
      return;
    }
    while (map.size() >= max_entries && !lru.empty()) {
      map.erase(lru.back());
      lru.pop_back();
    }
    lru.push_front(key);
    map.emplace(key, Entry{payload, r, lru.begin()});
  }

  std::int64_t entries() const {
    std::lock_guard<std::mutex> lock(mutex);
    return static_cast<std::int64_t>(map.size());
  }
  std::int64_t hit_count() const {
    std::lock_guard<std::mutex> lock(mutex);
    return hits;
  }
};

/// Per-connection state shared by the reader (serve's caller thread)
/// and the writer thread. Entries flow reader -> writer in frame
/// order; responses are written strictly in that order, so pipe-mode
/// output is deterministic.
struct Server::Conn {
  explicit Conn(ByteStream& s) : stream(s) {}

  ByteStream& stream;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<ConnEntry> queue;
  bool reader_done = false;
  /// Writer-only: a response write failed; the peer is gone. Remaining
  /// solves are cancelled and accounted, never silently dropped.
  bool client_gone = false;
};

Server::Server(ServerOptions options) : options_(std::move(options)),
      admission_(options_.admission),
      metrics_(options_.metrics) {
  // Anytime answers under load: a deadline-hit flow solve must degrade
  // to the two-phase baseline (flagged), not stall or die.
  options_.engine.alloc.fallback_to_baseline = true;
  // The server owns the allocation cache (so hits can bypass admission
  // entirely); the engine's own cache knobs are zeroed to keep a single
  // cache and a single set of counters. Workers inherit the zeroed
  // knobs below — caching happens in the parent only.
  const engine::AllocCacheOptions cache_opts{
      options_.engine.cache_entries, options_.engine.cache_bytes,
      options_.engine.cache_audit_rate};
  options_.engine.cache_entries = 0;
  engine_ = std::make_unique<engine::Engine>(options_.engine);
  if (cache_opts.max_entries > 0) {
    cache_ = std::make_unique<engine::AllocCache>(
        cache_opts, engine_->memory_budget().child(0));
    text_front_ = std::make_unique<TextFront>(cache_opts.max_entries,
                                              cache_opts.audit_rate);
    metrics_.set_cache_enabled(true);
  }
  if (options_.isolation.workers > 0) {
    // Workers inherit the server's engine configuration and response
    // shape; the supervisor forces per-worker sequential solving.
    options_.isolation.worker.engine = options_.engine;
    options_.isolation.worker.echo_assignment = options_.echo_assignment;
    supervisor_ = std::make_unique<Supervisor>(options_.isolation);
  }
}

Server::~Server() {
  // ~Engine fires the shutdown token and drains the pool; any Session
  // still queued winds down to a terminal (cancelled) state first.
  engine_.reset();
}

std::string Server::next_auto_id() {
  return "#" + std::to_string(
                   auto_id_.fetch_add(1, std::memory_order_relaxed) + 1);
}

void Server::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (drain_deadline_.unlimited()) {
      drain_deadline_ =
          netflow::Deadline::after(options_.drain_grace_seconds);
    }
  }
  admission_.begin_drain();
  if (supervisor_) {
    supervisor_->begin_drain(options_.drain_grace_seconds);
  }
  draining_.store(true, std::memory_order_release);
}

HealthStatus Server::health() const {
  const MetricsSnapshot s = metrics_.snapshot();
  HealthStatus h;
  h.overloaded = s.watchdog_tripped;
  h.draining = draining();
  h.in_flight = admission_.in_flight();
  h.estimated_queue_wait_ms = admission_.estimated_queue_wait_ms();
  h.queue_p95_ms = s.queue_wait.p95_ms;
  h.shed_total = s.rejected_total;
  const netflow::MemoryBudget budget = engine_->memory_budget();
  h.memory_bytes_in_use = budget.used();
  h.memory_peak_bytes = budget.peak();
  h.memory_cap_bytes = options_.engine.max_bytes_total;
  if (supervisor_) {
    const SupervisorStats w = supervisor_->stats();
    h.isolation_enabled = true;
    h.workers_alive = w.workers_alive;
    h.worker_crashes = w.crashes;
    h.worker_restarts = w.restarts;
    h.quarantined_fingerprints = w.quarantined_fingerprints;
  }
  if (cache_ != nullptr) {
    const engine::AllocCacheStats cs = cache_->stats();
    h.cache_enabled = true;
    h.cache_entries = cs.entries;
    h.cache_hits = cs.hits;
    h.cache_bytes = cs.bytes_in_use;
  }
  return h;
}

void Server::handle_solve(Conn& conn, Frame frame, const std::string& id) {
  const std::string tenant =
      frame.tenant.empty() ? std::string("default") : frame.tenant;
  ConnEntry entry;
  entry.id = id;

  // Cache consult before admission: an exact (or permuted-equivalent)
  // repeat of a cached instance is answered right here — no queue slot,
  // no worker dispatch, no solve — and booked under its own terminal
  // (cache_hit) so the accounting identity still covers it. Cache-off
  // servers never reach this block: their admission order, rejections
  // and output bytes are exactly the pre-cache server's.
  std::optional<workloads::ProblemParseResult> pre_parsed;
  std::optional<alloc::FingerprintResult> fp;
  bool served_from_cache = false;
  if (cache_ != nullptr && !draining()) {
    const Clock::time_point started = Clock::now();
    const bool static_model = options_.engine.params.register_model ==
                              energy::RegisterModel::kStatic;
    // Tier 0: a byte-identical repeat of something the cache already
    // served needs no parse and no fingerprint — hash + memcmp + format
    // is the whole hit path. (lookup() refuses every audit_rate-th hit
    // so the paranoia recheck below still samples this traffic.)
    if (std::optional<alloc::AllocationResult> text_hit =
            text_front_->lookup(frame.payload)) {
      const double latency_ms = ms_since(started);
      metrics_.on_terminal(Terminal::kCacheHit, latency_ms, 0.0);
      entry.ready_text =
          format_verdict_line(id, *text_hit, Terminal::kCacheHit,
                              latency_ms, options_.echo_assignment,
                              static_model);
      served_from_cache = true;
    } else {
      pre_parsed.emplace(
          workloads::parse_problem(frame.payload, options_.engine.params));
      if (pre_parsed->ok()) {
        fp = alloc::fingerprint_problem(*pre_parsed->problem);
        if (std::optional<alloc::AllocationResult> hit =
                cache_->lookup(*pre_parsed->problem, *fp)) {
          const double latency_ms = ms_since(started);
          metrics_.on_terminal(Terminal::kCacheHit, latency_ms, 0.0);
          entry.ready_text = format_verdict_line(
              id, *hit, Terminal::kCacheHit, latency_ms,
              options_.echo_assignment, static_model);
          served_from_cache = true;
          // The remapped result is exactly this payload's answer:
          // promote it so the next byte-identical repeat takes tier 0.
          text_front_->store(frame.payload, *hit);
        }
      }
    }
  }

  // Admission first — overload is shed before the payload is parsed,
  // let alone solved. (With the cache on, a miss re-uses the parse from
  // the consult above; the admission decision itself is unchanged.)
  const AdmissionVerdict verdict =
      served_from_cache
          ? AdmissionVerdict{}
          : admission_.try_admit(tenant,
                                 static_cast<double>(frame.deadline_ms));
  if (served_from_cache) {
    // Response already formatted; skip admission and solving entirely.
  } else if (!verdict.admitted) {
    metrics_.on_reject(verdict.reason);
    entry.ready_text = reject_line(id, verdict.reason, verdict.detail);
  } else {
    const workloads::ProblemParseResult parsed =
        pre_parsed.has_value()
            ? std::move(*pre_parsed)
            : workloads::parse_problem(frame.payload,
                                       options_.engine.params);
    if (!parsed.ok()) {
      // The parser's diagnostic maps to a typed bad_request rejection;
      // the connection (and the process) live on.
      admission_.release(tenant);
      metrics_.on_reject(RejectReason::kBadRequest);
      entry.ready_text =
          reject_line(id, RejectReason::kBadRequest, parsed.error);
    } else {
      // Footprint-based admission: a request whose predicted solve
      // footprint exceeds the configured memory cap would only be
      // refused by the budget (or degraded) after burning a queue
      // slot, so shed it now with a typed reason instead.
      std::int64_t cap = options_.engine.max_bytes_per_solve;
      const std::int64_t total = options_.engine.max_bytes_total;
      if (total > 0 && (cap == 0 || total < cap)) cap = total;
      const std::int64_t predicted =
          cap > 0 ? alloc::estimate_problem_footprint(
                        *parsed.problem, options_.engine.alloc.quantizer)
                  : 0;
      if (cap > 0 && predicted > cap) {
        admission_.release(tenant);
        metrics_.on_reject(RejectReason::kMemoryInfeasible);
        entry.ready_text = reject_line(
            id, RejectReason::kMemoryInfeasible,
            "predicted solve footprint of " + std::to_string(predicted) +
                " bytes exceeds the " + std::to_string(cap) +
                "-byte memory cap");
      } else if (supervisor_) {
        // Isolated mode: ship the already-vetted payload to the worker
        // pool. Parsing it here first is load-bearing — it guarantees
        // any crash-corpus reproducer the supervisor writes is
        // loadable, and keeps admission semantics identical.
        entry.tenant = tenant;
        entry.admitted_at = Clock::now();
        entry.fingerprint = fp;
        if (fp.has_value()) {
          // The worker answers with a text line; the insert path
          // re-validates its echoed assignment against this problem.
          entry.cache_problem = std::make_shared<alloc::AllocationProblem>(
              std::move(*parsed.problem));
        }
        entry.pending =
            supervisor_->dispatch(id, frame.payload, frame.deadline_ms);
      } else {
        entry.session.emplace(engine_->open_session());
        entry.tenant = tenant;
        entry.admitted_at = Clock::now();
        entry.fingerprint = fp;
        entry.ticket = entry.session->submit(
            std::move(*parsed.problem),
            frame.deadline_ms > 0 ? frame.deadline_ms / 1000.0 : 0.0);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.queue.push_back(std::move(entry));
  }
  conn.cv.notify_all();
}

void Server::handle_event(Conn& conn, FrameEvent event) {
  metrics_.on_frame();
  std::string ready;
  if (!event.ok) {
    const RejectReason reason = event.error == FrameError::kFrameTooLarge
                                    ? RejectReason::kFrameTooLarge
                                    : RejectReason::kBadFrame;
    metrics_.on_reject(reason);
    const std::string id =
        event.id.empty() ? next_auto_id() : event.id;
    ready = reject_line(id, reason, event.detail);
  } else {
    Frame& frame = event.frame;
    const std::string id =
        frame.id.empty() ? next_auto_id() : frame.id;
    switch (frame.verb) {
      case FrameVerb::kSolve:
        metrics_.on_solve_request();
        handle_solve(conn, std::move(frame), id);
        return;
      case FrameVerb::kHealth: {
        const HealthStatus h = health();
        std::ostringstream os;
        os << "LERA_HEALTH " << id << " status=" << h.status_word()
           << " in_flight=" << h.in_flight << " est_queue_wait_ms="
           << h.estimated_queue_wait_ms << " queue_p95_ms="
           << h.queue_p95_ms << " shed=" << h.shed_total
           << " mem_bytes=" << h.memory_bytes_in_use
           << " mem_peak_bytes=" << h.memory_peak_bytes
           << " mem_cap_bytes=" << h.memory_cap_bytes;
        if (h.isolation_enabled) {
          // Gated on isolation so default-mode HEALTH output stays
          // byte-identical to the pre-supervisor server.
          os << " workers_alive=" << h.workers_alive
             << " worker_crashes=" << h.worker_crashes
             << " worker_restarts=" << h.worker_restarts
             << " quarantined=" << h.quarantined_fingerprints;
        }
        if (h.cache_enabled) {
          // Same gating as the isolation fields: cache-off HEALTH
          // output stays byte-identical to the pre-cache server.
          os << " cache_entries=" << h.cache_entries
             << " cache_hits=" << h.cache_hits
             << " cache_bytes=" << h.cache_bytes;
        }
        os << "\n";
        ready = os.str();
        break;
      }
      case FrameVerb::kStats: {
        const netflow::MemoryBudget budget = engine_->memory_budget();
        std::ostringstream os;
        metrics_.emit_metric_lines(os);
        os << "LERA_METRIC server_memory_bytes_in_use " << budget.used()
           << "\n"
           << "LERA_METRIC server_memory_peak_bytes " << budget.peak()
           << "\n"
           << "LERA_METRIC server_memory_denials " << budget.denials()
           << "\n";
        if (supervisor_) emit_supervisor_metric_lines(os);
        if (cache_ != nullptr) emit_cache_metric_lines(os);
        os << "LERA_STATS_END " << id << "\n";
        ready = os.str();
        break;
      }
      case FrameVerb::kPing:
        ready = "LERA_PONG " + id + "\n";
        break;
      case FrameVerb::kDrain:
        begin_drain();
        ready = "LERA_DRAIN " + id + " state=started grace_s=" +
                std::to_string(options_.drain_grace_seconds) + "\n";
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    ConnEntry entry;
    entry.ready_text = std::move(ready);
    conn.queue.push_back(std::move(entry));
  }
  conn.cv.notify_all();
}

void Server::writer_loop(Conn& conn) {
  const auto write_out = [&](const std::string& text) {
    if (conn.client_gone || text.empty()) return;
    if (!conn.stream.write(text)) conn.client_gone = true;
  };

  for (;;) {
    ConnEntry entry;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      conn.cv.wait(lock, [&] {
        return !conn.queue.empty() || conn.reader_done;
      });
      if (conn.queue.empty()) break;  // reader_done and drained
      entry = std::move(conn.queue.front());
      conn.queue.pop_front();
    }

    if (entry.pending) {
      finish_isolated(conn, entry);
      continue;
    }

    if (!entry.session.has_value()) {
      write_out(entry.ready_text);
      continue;
    }

    // A peer that vanished is not worth solving for: withdraw, but
    // still wait for the terminal state so the request is accounted.
    if (conn.client_gone) entry.session->cancel(entry.ticket);

    // Wait for the result in bounded slices so an engine-wide drain
    // can step in: past the drain grace, the solve is cancelled and
    // result() blocks only until its fast-exit terminal state.
    for (;;) {
      double slice = 0.1;
      if (draining()) {
        double remaining;
        {
          std::lock_guard<std::mutex> lock(drain_mutex_);
          remaining = drain_deadline_.remaining_seconds();
        }
        if (remaining <= 0) {
          entry.session->cancel(entry.ticket);
          entry.session->result(entry.ticket);
          break;
        }
        slice = std::min(slice, remaining);
      }
      if (entry.session->wait_for(entry.ticket, slice)) break;
    }

    const alloc::AllocationResult& r =
        entry.session->result(entry.ticket);
    const double latency_ms = ms_since(entry.admitted_at);
    const double queue_wait_ms = std::max(
        0.0, latency_ms - r.solve_diagnostics.wall_seconds * 1000.0);
    const Terminal terminal = classify_result(r);

    admission_.release(entry.tenant);
    admission_.record_queue_wait_ms(queue_wait_ms);
    metrics_.on_terminal(terminal, latency_ms, queue_wait_ms);

    // Offer the finished solve to the cache; insert() itself refuses
    // anything that is not a certified, audit-clean served result.
    if (cache_ != nullptr && entry.fingerprint.has_value()) {
      cache_->insert(*entry.fingerprint, r);
    }

    write_out(format_verdict_line(
        entry.id, r, terminal, latency_ms, options_.echo_assignment,
        options_.engine.params.register_model ==
            energy::RegisterModel::kStatic));
  }
}

/// Resolves one isolated (supervisor-dispatched) request: waits for its
/// verdict under the same drain discipline the in-process path uses,
/// books exactly one terminal or rejection, and relays or synthesizes
/// the response line.
void Server::finish_isolated(Conn& conn, ConnEntry& entry) {
  const auto write_out = [&](const std::string& text) {
    if (conn.client_gone || text.empty()) return;
    if (!conn.stream.write(text)) conn.client_gone = true;
  };

  // A peer that vanished is not worth solving for: withdraw, but still
  // wait for the verdict so the request is accounted.
  if (conn.client_gone) entry.pending->cancel();

  for (;;) {
    double slice = 0.1;
    if (draining()) {
      double remaining;
      {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        remaining = drain_deadline_.remaining_seconds();
      }
      if (remaining <= 0) entry.pending->cancel();
      if (remaining > 0) slice = std::min(slice, remaining);
    }
    if (entry.pending->wait_for(slice)) break;
  }

  const WorkerVerdict& v = entry.pending->verdict();
  const double latency_ms = ms_since(entry.admitted_at);
  admission_.release(entry.tenant);

  switch (v.kind) {
    case WorkerVerdictKind::kLine: {
      if (const std::optional<Terminal> terminal =
              classify_worker_line(v.line)) {
        const double queue_wait_ms = std::max(
            0.0, latency_ms - parse_worker_latency_ms(v.line));
        admission_.record_queue_wait_ms(queue_wait_ms);
        metrics_.on_terminal(*terminal, latency_ms, queue_wait_ms);
        if (*terminal == Terminal::kServed) {
          maybe_cache_worker_result(entry, v.line);
        }
      } else {
        // The worker refused its payload (cannot be framing: the
        // supervisor encoded the frame itself).
        metrics_.on_reject(RejectReason::kBadRequest);
      }
      write_out(v.line);
      break;
    }
    case WorkerVerdictKind::kWorkerCrashed:
      metrics_.on_reject(RejectReason::kWorkerCrashed);
      write_out(
          reject_line(entry.id, RejectReason::kWorkerCrashed, v.detail));
      break;
    case WorkerVerdictKind::kQuarantined:
      metrics_.on_reject(RejectReason::kQuarantined);
      write_out(
          reject_line(entry.id, RejectReason::kQuarantined, v.detail));
      break;
    case WorkerVerdictKind::kCancelled:
      metrics_.on_terminal(Terminal::kCancelled, latency_ms, 0.0);
      write_out("LERA_CANCELLED " + entry.id + " " +
                sanitize_detail(v.detail.empty() ? "request withdrawn"
                                                 : v.detail) +
                "\n");
      break;
  }
}

/// Worker-mode cache insert: the worker answered with a text line, not
/// an AllocationResult, so the parent reconstructs one from the echoed
/// assignment and re-derives every cached claim from first principles —
/// validate_assignment for legality, a full-cost audit for the energy
/// accounting, finish_result for the stats the hit line will report.
/// Anything that does not re-derive cleanly is simply not cached; a
/// worker line is never trusted into the cache on its own word.
void Server::maybe_cache_worker_result(const ConnEntry& entry,
                                       const std::string& line) {
  if (cache_ == nullptr || !entry.fingerprint.has_value() ||
      entry.cache_problem == nullptr) {
    return;
  }
  // Only clean, in-time, optimal-path answers qualify (mirrors
  // AllocCache::cacheable on the in-process side).
  if (line.find(" status=ok ") == std::string::npos ||
      line.find(" timed_out=0") == std::string::npos) {
    return;
  }
  const alloc::AllocationProblem& p = *entry.cache_problem;
  const std::optional<alloc::Assignment> a =
      parse_assignment_echo(line, p.segments.size());
  if (!a.has_value()) return;  // echo_assignment off, or malformed.
  if (!alloc::validate_assignment(p, *a).empty()) return;
  alloc::AllocationResult r;
  r.assignment = *a;
  r.feasible = true;
  alloc::finish_result(p, r);
  audit::AuditOptions aopts;
  aopts.level = audit::AuditLevel::kFullCost;
  aopts.check_optimality = false;
  if (!audit::audit_allocation(p, r.assignment, aopts).clean()) return;
  // The worker's ok verdict means its robust solve passed the
  // configured certification (an uncertified answer classifies as an
  // error line, never ok); combined with the local re-derivation above
  // this meets the cache's entry contract.
  r.solve_diagnostics.certification =
      netflow::CertificationVerdict::kPassed;
  r.solve_diagnostics.message = "reconstructed from worker verdict";
  cache_->insert(*entry.fingerprint, r);
}

void Server::serve(ByteStream& stream) {
  Conn conn(stream);
  std::thread writer([this, &conn] { writer_loop(conn); });

  FrameDecoder decoder(options_.framing);
  char buffer[4096];
  for (;;) {
    if (draining()) {
      // Past the drain grace the peer may never send EOF; cut the
      // read loop so serve() can complete the drain.
      std::lock_guard<std::mutex> lock(drain_mutex_);
      if (!drain_deadline_.unlimited() && drain_deadline_.expired()) {
        break;
      }
    }
    const std::ptrdiff_t n = stream.read(buffer, sizeof buffer);
    if (n == ByteStream::kReadAgain) continue;
    if (n <= 0) break;
    for (FrameEvent& event :
         decoder.feed({buffer, static_cast<std::size_t>(n)})) {
      handle_event(conn, std::move(event));
    }
  }
  // A stream that ended mid-frame still gets a typed verdict.
  if (std::optional<FrameEvent> truncated = decoder.finish()) {
    handle_event(conn, std::move(*truncated));
  }

  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    conn.reader_done = true;
  }
  conn.cv.notify_all();
  writer.join();

  if (draining() && options_.emit_metrics_on_drain) {
    const MetricsSnapshot s = metrics_.snapshot();
    std::ostringstream os;
    os << "LERA_DRAIN - state=complete served=" << s.served
       << " degraded=" << s.degraded << " infeasible=" << s.infeasible
       << " timed_out=" << s.timed_out << " cancelled=" << s.cancelled
       << " rejected=" << s.rejected_total;
    if (cache_ != nullptr) os << " cache_hits=" << s.cache_hits;
    os << "\n";
    metrics_.emit_metric_lines(os);
    if (supervisor_) emit_supervisor_metric_lines(os);
    if (cache_ != nullptr) emit_cache_metric_lines(os);
    stream.write(os.str());
  }
}

void Server::emit_supervisor_metric_lines(std::ostream& os) const {
  const SupervisorStats w = supervisor_->stats();
  os << "LERA_METRIC server_workers_alive " << w.workers_alive << "\n"
     << "LERA_METRIC server_workers_spawned " << w.spawned << "\n"
     << "LERA_METRIC server_worker_crashes " << w.crashes << "\n"
     << "LERA_METRIC server_worker_restarts " << w.restarts << "\n"
     << "LERA_METRIC server_worker_hung_kills " << w.hung_kills << "\n"
     << "LERA_METRIC server_quarantined_fingerprints "
     << w.quarantined_fingerprints << "\n"
     << "LERA_METRIC server_quarantine_rejects " << w.quarantine_rejects
     << "\n"
     << "LERA_METRIC server_crash_corpus_files " << w.corpus_files
     << "\n";
}

void Server::emit_cache_metric_lines(std::ostream& os) const {
  const engine::AllocCacheStats cs = cache_->stats();
  os << "LERA_METRIC server_cache_entries " << cs.entries << "\n"
     << "LERA_METRIC server_cache_misses " << cs.misses << "\n"
     << "LERA_METRIC server_cache_insertions " << cs.insertions << "\n"
     << "LERA_METRIC server_cache_evictions " << cs.evictions << "\n"
     << "LERA_METRIC server_cache_audit_samples " << cs.audit_samples
     << "\n"
     << "LERA_METRIC server_cache_audit_evictions " << cs.audit_evictions
     << "\n"
     << "LERA_METRIC server_cache_bytes " << cs.bytes_in_use << "\n"
     << "LERA_METRIC server_cache_text_hits " << text_front_->hit_count()
     << "\n"
     << "LERA_METRIC server_cache_text_entries " << text_front_->entries()
     << "\n";
}

std::string Server::metrics_json() const {
  std::string json = metrics_.json();
  if (supervisor_) {
    const SupervisorStats w = supervisor_->stats();
    std::ostringstream os;
    os << ",\"workers\":{\"configured\":" << options_.isolation.workers
       << ",\"alive\":" << w.workers_alive << ",\"spawned\":" << w.spawned
       << ",\"crashes\":" << w.crashes << ",\"restarts\":" << w.restarts
       << ",\"hung_kills\":" << w.hung_kills
       << ",\"quarantined_fingerprints\":" << w.quarantined_fingerprints
       << ",\"quarantine_rejects\":" << w.quarantine_rejects
       << ",\"crash_corpus_files\":" << w.corpus_files << "}";
    json.insert(json.size() - 1, os.str());
  }
  if (cache_ != nullptr) {
    const engine::AllocCacheStats cs = cache_->stats();
    std::ostringstream os;
    os << ",\"cache\":{\"entries\":" << cs.entries
       << ",\"hits\":" << cs.hits << ",\"misses\":" << cs.misses
       << ",\"insertions\":" << cs.insertions
       << ",\"evictions\":" << cs.evictions
       << ",\"audit_samples\":" << cs.audit_samples
       << ",\"audit_evictions\":" << cs.audit_evictions
       << ",\"bytes\":" << cs.bytes_in_use
       << ",\"text_hits\":" << text_front_->hit_count()
       << ",\"text_entries\":" << text_front_->entries() << "}";
    json.insert(json.size() - 1, os.str());
  }
  return json;
}

}  // namespace lera::server
