#include "server/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace lera::server {

std::string to_string(Terminal t) {
  switch (t) {
    case Terminal::kServed:
      return "served";
    case Terminal::kDegraded:
      return "degraded";
    case Terminal::kInfeasible:
      return "infeasible";
    case Terminal::kTimedOut:
      return "timed_out";
    case Terminal::kCancelled:
      return "cancelled";
    case Terminal::kCacheHit:
      return "cache_hit";
  }
  return "unknown";
}

// --- LatencyWindow ------------------------------------------------------

LatencyWindow::LatencyWindow(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 8)) {
  ring_.reserve(capacity_);
}

void LatencyWindow::record(double ms) {
  if (ms < 0) ms = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(ms);
  } else {
    ring_[next_] = ms;
  }
  next_ = (next_ + 1) % capacity_;
  filled_ = ring_.size();
  ++total_;
  max_ms_ = std::max(max_ms_, ms);
}

double LatencyWindow::quantile(double p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return 0;
  std::vector<double> scratch = ring_;
  const auto rank = static_cast<std::size_t>(
      std::clamp(p, 0.0, 1.0) * static_cast<double>(scratch.size() - 1) +
      0.5);
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(rank),
                   scratch.end());
  return scratch[rank];
}

LatencySummary LatencyWindow::summary() const {
  LatencySummary s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.count = total_;
    s.max_ms = max_ms_;
  }
  s.p50_ms = quantile(0.50);
  s.p95_ms = quantile(0.95);
  s.p99_ms = quantile(0.99);
  return s;
}

std::int64_t LatencyWindow::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

// --- ServerMetrics ------------------------------------------------------

ServerMetrics::ServerMetrics(Options options)
    : options_(options),
      latency_(options.latency_window),
      queue_wait_(options.latency_window),
      cache_hit_latency_(options.latency_window) {}

void ServerMetrics::on_reject(RejectReason reason) {
  rejected_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
}

void ServerMetrics::on_terminal(Terminal t, double latency_ms,
                                double queue_wait_ms) {
  if (t == Terminal::kCacheHit) {
    // Hits never queue or solve: they get their own latency window and
    // stay out of the queue-wait samples that drive the watchdog.
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    cache_hit_latency_.record(latency_ms);
    return;
  }
  switch (t) {
    case Terminal::kServed:
      served_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Terminal::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Terminal::kInfeasible:
      infeasible_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Terminal::kTimedOut:
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Terminal::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Terminal::kCacheHit:
      break;  // Handled above.
  }
  latency_.record(latency_ms);
  queue_wait_.record(queue_wait_ms);
  update_watchdog();
}

void ServerMetrics::update_watchdog() {
  if (options_.queue_budget_ms <= 0) return;
  if (queue_wait_.count() < options_.watchdog_min_samples) return;
  const double p95 = queue_wait_.quantile(0.95);
  if (p95 > options_.queue_budget_ms) {
    tripped_.store(true, std::memory_order_release);
  } else if (p95 < options_.queue_budget_ms * 0.5) {
    // Hysteresis: recover only once the rolling p95 is clearly back
    // under budget, so the health endpoint does not flap at the edge.
    tripped_.store(false, std::memory_order_release);
  }
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot s;
  s.frames_received = frames_.load(std::memory_order_relaxed);
  s.solve_requests = requests_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.infeasible = infeasible_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_hit_latency = cache_hit_latency_.summary();
  for (int i = 0; i < kNumRejectReasons; ++i) {
    s.rejected_by_reason[static_cast<std::size_t>(i)] =
        rejected_[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
    s.rejected_total += s.rejected_by_reason[static_cast<std::size_t>(i)];
  }
  s.latency = latency_.summary();
  s.queue_wait = queue_wait_.summary();
  s.watchdog_tripped = tripped_.load(std::memory_order_acquire);
  s.watchdog_budget_ms = options_.queue_budget_ms;
  return s;
}

void MetricsSnapshot::emit_metric_lines(std::ostream& os) const {
  os << "LERA_METRIC server_frames_received " << frames_received << "\n"
     << "LERA_METRIC server_solve_requests " << solve_requests << "\n"
     << "LERA_METRIC server_served " << served << "\n"
     << "LERA_METRIC server_degraded " << degraded << "\n"
     << "LERA_METRIC server_infeasible " << infeasible << "\n"
     << "LERA_METRIC server_timed_out " << timed_out << "\n"
     << "LERA_METRIC server_cancelled " << cancelled << "\n"
     << "LERA_METRIC server_rejected_total " << rejected_total << "\n";
  for (int i = 0; i < kNumRejectReasons; ++i) {
    os << "LERA_METRIC server_rejected_"
       << to_string(static_cast<RejectReason>(i)) << " "
       << rejected_by_reason[static_cast<std::size_t>(i)] << "\n";
  }
  os << "LERA_METRIC server_latency_p50_ms " << latency.p50_ms << "\n"
     << "LERA_METRIC server_latency_p95_ms " << latency.p95_ms << "\n"
     << "LERA_METRIC server_latency_p99_ms " << latency.p99_ms << "\n"
     << "LERA_METRIC server_queue_wait_p95_ms " << queue_wait.p95_ms
     << "\n"
     << "LERA_METRIC server_watchdog_tripped " << (watchdog_tripped ? 1 : 0)
     << "\n";
}

}  // namespace lera::server
