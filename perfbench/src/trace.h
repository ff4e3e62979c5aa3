// In-memory span recorder of the traced run. The benchmark opens a span
// around each public call it makes into a matopt layer; nothing inside the
// library is instrumented. Spans stay in memory until the run writes them.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Single-threaded recorder: spans nest by call order on the benchmark's
/// one client thread. A disabled tracer records nothing, so the untraced
/// path pays one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Starts the spans of request `id` (a fresh root on the next Begin).
  void StartRequest(int64_t id) { request_ = id; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const std::string& name);
  void End(int index);

  double Now() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // indices of the spans still open, innermost last
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
