#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "server/admission.hpp"

/// \file metrics.hpp
/// Request accounting and latency tracking for the allocation server.
/// Every SOLVE request ends in exactly ONE terminal state — that
/// disjointness is the accounting contract the chaos harness asserts:
/// requests == served + degraded + infeasible + timed_out + cancelled
/// + rejected. Latencies feed fixed-size rolling windows (recent
/// traffic, not lifetime averages), and the queue-wait window drives
/// the overload watchdog: when the rolling p95 queue wait exceeds the
/// configured budget the watchdog trips (health reports `overloaded`),
/// recovering with hysteresis at half the budget so it does not
/// flap.

namespace lera::server {

/// Disjoint terminal states of one admitted SOLVE request.
enum class Terminal {
  kServed,      ///< Feasible optimal answer.
  kDegraded,    ///< Feasible answer via the two-phase baseline.
  kInfeasible,  ///< Valid problem, no allocation exists (LERA_ERROR).
  kTimedOut,    ///< Deadline expired with no usable answer.
  kCancelled,   ///< Withdrawn (disconnect, drain, engine shutdown).
  kCacheHit,    ///< Served from the allocation cache, before admission
                ///< (no queue slot, no solve). Cache-enabled mode only.
};

std::string to_string(Terminal t);

struct LatencySummary {
  std::int64_t count = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// Fixed-capacity rolling window of latency samples; thread-safe.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity = 512);

  void record(double ms);
  LatencySummary summary() const;
  /// The p-quantile over the current window (p in [0,1]); 0 when empty.
  double quantile(double p) const;
  std::int64_t count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::int64_t total_ = 0;
  double max_ms_ = 0;
};

struct MetricsSnapshot {
  std::int64_t frames_received = 0;
  std::int64_t solve_requests = 0;
  std::int64_t served = 0;
  std::int64_t degraded = 0;
  std::int64_t infeasible = 0;
  std::int64_t timed_out = 0;
  std::int64_t cancelled = 0;
  std::array<std::int64_t, kNumRejectReasons> rejected_by_reason{};
  std::int64_t rejected_total = 0;
  /// Requests served from the allocation cache (Terminal::kCacheHit);
  /// 0 unless the cache is enabled. Part of the accounting identity: a
  /// hit consumed one SOLVE request without taking a queue slot.
  std::int64_t cache_hits = 0;
  LatencySummary latency;     ///< Admission -> result available.
  LatencySummary queue_wait;  ///< Latency minus solve wall time.
  /// Cache-hit serve time (parse + lookup + remap); kept out of
  /// `latency` so hit/miss percentiles stay separately readable.
  LatencySummary cache_hit_latency;
  bool watchdog_tripped = false;
  double watchdog_budget_ms = 0;

  /// Terminal states summed — the chaos harness asserts this equals
  /// solve_requests plus the non-solve rejects' share (see
  /// accounted_requests()).
  std::int64_t terminals() const {
    return served + degraded + infeasible + timed_out + cancelled +
           cache_hits;
  }
  /// One "LERA_METRIC server_<name> <value>" line per counter/quantile.
  /// The cache-hit fields are left to the Server, which alone knows
  /// whether a cache is configured.
  void emit_metric_lines(std::ostream& os) const;

  /// Every SOLVE frame must land here exactly once.
  std::int64_t accounted_requests() const {
    // Framing-level rejects (bad_frame / frame_too_large) never became
    // SOLVE requests; the remaining reject reasons each consumed one.
    const std::int64_t framing_rejects =
        rejected_by_reason[static_cast<int>(RejectReason::kBadFrame)] +
        rejected_by_reason[static_cast<int>(
            RejectReason::kFrameTooLarge)];
    return terminals() + rejected_total - framing_rejects;
  }
};

class ServerMetrics {
 public:
  struct Options {
    /// Queue-wait budget that trips the watchdog (rolling p95 above it
    /// = overloaded). 0 disables the watchdog.
    double queue_budget_ms = 500;
    /// Samples needed before the watchdog may trip.
    std::int64_t watchdog_min_samples = 8;
    std::size_t latency_window = 512;
  };

  ServerMetrics() : ServerMetrics(Options()) {}
  explicit ServerMetrics(Options options);

  void on_frame() { frames_.fetch_add(1, std::memory_order_relaxed); }
  void on_solve_request() {
    requests_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_reject(RejectReason reason);
  /// Books one admitted request's terminal state plus its latencies.
  void on_terminal(Terminal t, double latency_ms, double queue_wait_ms);

  bool watchdog_tripped() const {
    return tripped_.load(std::memory_order_acquire);
  }

  MetricsSnapshot snapshot() const;

 private:
  void update_watchdog();

  Options options_;
  std::atomic<std::int64_t> frames_{0};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> served_{0};
  std::atomic<std::int64_t> degraded_{0};
  std::atomic<std::int64_t> infeasible_{0};
  std::atomic<std::int64_t> timed_out_{0};
  std::atomic<std::int64_t> cancelled_{0};
  std::atomic<std::int64_t> cache_hits_{0};
  std::array<std::atomic<std::int64_t>, kNumRejectReasons> rejected_{};
  LatencyWindow latency_;
  LatencyWindow queue_wait_;
  LatencyWindow cache_hit_latency_;
  std::atomic<bool> tripped_{false};
};

}  // namespace lera::server
