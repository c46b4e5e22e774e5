#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/engine.hpp"
#include "netflow/cancel.hpp"
#include "server/admission.hpp"
#include "server/framing.hpp"
#include "server/metrics.hpp"
#include "server/stream.hpp"
#include "server/supervisor.hpp"

/// \file server.hpp
/// The allocation service core: a long-lived front end over one shared
/// engine::Engine that turns framed .lt requests (framing.hpp) into
/// streamed LERA_* response lines, and degrades — never falls over —
/// under overload, garbage input, deadline storms, and shutdown.
///
/// One serve(stream) call runs one connection: the calling thread
/// reads and decodes frames, admits or sheds them (admission.hpp), and
/// submits admitted problems to the engine; a per-connection writer
/// thread streams responses back in frame order. Every SOLVE frame is
/// answered with exactly one typed verdict:
///
///   LERA_RESULT <id> status=ok|degraded ... assign=...   (served)
///   LERA_ERROR <id> <reason>                 (valid but infeasible)
///   LERA_TIMEOUT <id> <detail>           (deadline, no usable answer)
///   LERA_CANCELLED <id> <detail>           (disconnect/drain/shutdown)
///   LERA_REJECT <id> reason=<r> detail=...   (shed before solving)
///
/// with reasons queue_full | tenant_quota | deadline_infeasible |
/// frame_too_large | bad_frame | bad_request | draining |
/// memory_infeasible | worker_crashed | quarantined. Control verbs
/// HEALTH / STATS / PING answer inline; DRAIN (or begin_drain(), wired
/// to SIGTERM by the binary) stops admissions, finishes or cancels
/// in-flight work within the grace budget, flushes every response, and
/// ends with "LERA_DRAIN - state=complete ..." so a supervisor can
/// verify nothing was silently dropped.

namespace lera::server {

struct ServerOptions {
  /// Engine configuration shared by every request. threads sizes the
  /// solver pool; task_deadline_seconds is the default per-request
  /// deadline when a frame declares none; alloc.fallback_to_baseline
  /// is forced on so deadline-hit solves degrade to the two-phase
  /// baseline instead of dying (anytime answers under load).
  engine::EngineOptions engine;
  FrameDecoder::Options framing;
  AdmissionOptions admission;
  ServerMetrics::Options metrics;
  /// After begin_drain(), in-flight solves get this long to finish
  /// before they are cancelled (and accounted as cancelled).
  double drain_grace_seconds = 5;
  /// Append the per-segment placement to LERA_RESULT lines
  /// (assign=r0,mem,...). Off for benchmarking huge responses.
  bool echo_assignment = true;
  /// Write "LERA_DRAIN - state=complete ..." plus the LERA_METRIC
  /// block when a drained connection closes.
  bool emit_metrics_on_drain = true;
  /// Crash-isolated execution (supervisor.hpp): with isolation.workers
  /// > 0, admitted solves run in forked worker subprocesses and a
  /// worker death becomes a typed worker_crashed rejection instead of
  /// taking the daemon down. The default (0 workers) solves in-process
  /// with byte-identical output to the pre-isolation server. The
  /// worker's engine options and echo_assignment are copied from this
  /// struct's fields; set isolation.crash_dir / poison_threshold /
  /// backoff / failpoint knobs here.
  SupervisorOptions isolation;
};

struct HealthStatus {
  bool overloaded = false;  ///< Watchdog tripped: queue p95 over budget.
  bool draining = false;
  int in_flight = 0;
  double estimated_queue_wait_ms = 0;
  double queue_p95_ms = 0;
  std::int64_t shed_total = 0;
  /// Engine memory-budget observability (engine.hpp). Bytes currently
  /// charged against the engine's budget, the high-water mark, and the
  /// configured total cap (0 = track-only, never sheds).
  std::int64_t memory_bytes_in_use = 0;
  std::int64_t memory_peak_bytes = 0;
  std::int64_t memory_cap_bytes = 0;
  /// Isolated mode only (isolation_enabled): worker-pool vitals.
  bool isolation_enabled = false;
  int workers_alive = 0;
  std::int64_t worker_crashes = 0;
  std::int64_t worker_restarts = 0;
  std::int64_t quarantined_fingerprints = 0;
  /// Allocation-cache vitals (cache_enabled mode only; the fields are
  /// gated out of HEALTH lines otherwise, like the isolation ones).
  bool cache_enabled = false;
  std::int64_t cache_entries = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_bytes = 0;

  std::string status_word() const {
    return draining ? "draining" : overloaded ? "overloaded" : "ok";
  }
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one connection to completion: returns when the peer's
  /// request stream ended (EOF, error, or drain deadline) AND every
  /// pending response was written or accounted. Safe to call from many
  /// threads at once, one per connection.
  void serve(ByteStream& stream);

  /// Graceful shutdown: stop admitting (typed `draining` rejections),
  /// let in-flight work finish within drain_grace_seconds, cancel the
  /// rest, flush responses. Idempotent; callable from any thread
  /// (signal watchers included).
  void begin_drain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  HealthStatus health() const;
  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  /// The LERA_METRIC block a STATS reply, a drained connection's trailer
  /// and lera_server's exit log all carry: the MetricsSnapshot lines,
  /// the cache-hit lines, the engine memory budget, then the worker and
  /// the other cache lines. Worker lines need isolation, and every cache
  /// line needs a configured cache.
  void emit_metric_lines(std::ostream& os) const;

  const engine::Engine& engine() const { return *engine_; }
  const ServerOptions& options() const { return options_; }
  /// Non-null iff isolation is enabled (options().isolation.workers>0).
  const Supervisor* supervisor() const { return supervisor_.get(); }

 private:
  struct Conn;
  struct ConnEntry;
  struct TextFront;

  void handle_event(Conn& conn, FrameEvent event);
  void handle_solve(Conn& conn, Frame frame, const std::string& id);
  void writer_loop(Conn& conn);
  void finish_isolated(Conn& conn, ConnEntry& entry);
  void maybe_cache_worker_result(const ConnEntry& entry,
                                 const std::string& line);
  std::string next_auto_id();

  ServerOptions options_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<Supervisor> supervisor_;  ///< Isolated mode only.
  /// Server-owned allocation cache (engine.cache_entries > 0): consulted
  /// in handle_solve before admission, so a hit never takes a queue slot
  /// (and in isolated mode never dispatches to a worker). The engine's
  /// own cache knobs are zeroed — one cache, one accounting.
  std::unique_ptr<engine::AllocCache> cache_;
  /// Tier-0 exact-text front over cache_ (same enable knob): raw
  /// request bytes -> the result already served for those exact bytes,
  /// so a byte-identical repeat skips parse + fingerprint entirely and
  /// the hit path is O(payload) instead of O(parse). Populated only
  /// from canonical-cache hits (results that already passed the
  /// certification gate); every audit_rate-th text hit deliberately
  /// falls through to the parse + canonical path so the paranoia
  /// recheck still samples this tier.
  std::unique_ptr<TextFront> text_front_;
  AdmissionController admission_;
  ServerMetrics metrics_;
  std::atomic<bool> draining_{false};
  /// Armed by begin_drain(); in-flight work past it is cancelled.
  netflow::Deadline drain_deadline_;
  std::mutex drain_mutex_;  ///< Guards drain_deadline_ writes/reads.
  std::atomic<std::uint64_t> auto_id_{0};
};

}  // namespace lera::server
