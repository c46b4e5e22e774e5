#include "common.hpp"

#include <cstdio>
#include <iostream>

#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail tail_of(const std::vector<double>& samples_ms) {
  // A fixed ladder keeps the reported percentile the same from run to
  // run when sample counts are alike, so medians of the tail compare.
  // It stops at p95: on a shared machine a load burst covering one or
  // two percent of a run moves p99 by half from run to run.
  static const double kLadder[] = {95, 90, 80, 75, 50};
  Tail t;
  t.samples = samples_ms.size();
  for (double pct : kLadder) {
    const double beyond =
        static_cast<double>(samples_ms.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 || pct == 50) {
      t.percentile = pct;
      t.value_ms = quantile(samples_ms, pct / 100.0);
      return t;
    }
  }
  return t;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void emit_metric(const std::string& name, double value,
                 const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  std::cout << "metric " << name << " " << buf << " " << unit << "\n";
}

}  // namespace perfbench
