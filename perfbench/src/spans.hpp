#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

/// \file spans.hpp
/// In-memory span recorder for the traced replay. A span is one call
/// into a layer: name, start, end, the span that caused it and the
/// request it belongs to. Spans stay in memory while the replay runs
/// and are written out once at the end.

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0;  ///< Since the tracer was created.
  double end_ms = 0;
  int parent = -1;          ///< Index of the causing span; -1 for a root.
  std::int64_t request = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span now; returns its index for end() and as a parent.
  int begin(const std::string& name, int parent, std::int64_t request);
  void end(int span);
  /// Records a finished span whose interval is known from elsewhere
  /// (a library-reported phase duration inside an open span).
  int add(const std::string& name, int parent, std::int64_t request,
          double start_ms, double end_ms);

  double now_ms() const { return ms_between(origin_, Clock::now()); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per request: root span duration and the self time of every layer
  /// (span duration minus the part its children cover), summed by name.
  struct RequestTimes {
    double latency_ms = 0;
    std::map<std::string, double> self_ms;
  };
  std::map<std::int64_t, RequestTimes> per_request() const;

  /// Writes every span as JSON; false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, int parent,
             std::int64_t request)
      : tracer_(t), id_(t.begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
