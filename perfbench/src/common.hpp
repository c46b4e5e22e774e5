#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

/// \file common.hpp
/// Shared plumbing for the benchmark: clocks, order statistics, metric
/// lines, run outcomes and process resource probes.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample; 0
/// for an empty one.
double quantile(std::vector<double> v, double p);

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The tail the benchmark reports: the highest percentile of a fixed
/// ladder that still has at least ten samples beyond it.
struct Tail {
  double value_ms = 0;
  double percentile = 0;  ///< E.g. 99 for p99.
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& samples_ms);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Prints one `metric <name> <value> <unit>` line at full precision.
/// run.py builds the result JSON from these lines, keeping the names
/// BENCHMARK.json declares for the run's mode.
void emit_metric(const std::string& name, double value,
                 const std::string& unit);

/// What one run did: operations attempted and failed, and why. A failed
/// operation was refused, degraded or timed out; a wrong one also gave
/// an answer that disagrees with the expected objective, was never
/// answered, or failed an audit, and makes the whole run incorrect.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
  std::vector<std::string> problems;  ///< First few descriptions.

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 4) problems.push_back(why);
  }
  void fail_wrong(const std::string& why) {
    ++wrong;
    ++failed;
    if (problems.size() < 12) problems.push_back(why);
  }
  bool correct() const { return wrong == 0; }
};

/// splitmix64: derives independent per-input seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over bytes: the content key expected objectives are filed by.
inline std::uint64_t content_key(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Relative closeness, for objectives that travel through text.
inline bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace perfbench
