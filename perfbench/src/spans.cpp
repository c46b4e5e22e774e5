#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

int Tracer::begin(const std::string& name, int parent, std::int64_t request) {
  const double t = now_ms();
  spans_.push_back({name, t, t, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ms = now_ms();
}

int Tracer::add(const std::string& name, int parent, std::int64_t request,
                double start_ms, double end_ms) {
  spans_.push_back({name, start_ms, end_ms, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::int64_t, Tracer::RequestTimes> Tracer::per_request() const {
  // Children of one span run one after another, so the part of the
  // parent they cover is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::int64_t, RequestTimes> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    RequestTimes& rt = out[s.request];
    const double dur = s.end_ms - s.start_ms;
    if (s.parent < 0) rt.latency_ms += dur;
    rt.self_ms[s.name] += dur - child_ms[i];
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%.6f, \"end_ms\": %.6f", s.start_ms,
                  s.end_ms);
    out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << buf << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
