// In-memory span trace for the manet_bench program.
//
// Spans are recorded only from manet_bench's own code, around its calls
// into each layer's public functions (Network construction, run_until,
// the trace reader, ReplaySession, the result sinks, ...). Each span has a
// name, a start, an end and a parent; spans stay in memory and are written
// as JSON when the run ends. A disabled trace records nothing, but a
// ScopedSpan still feeds its optional wall-time accumulator, so the same
// code path produces the untraced end-to-end timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace manet::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanTrace {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;           // index into spans(), -1 for a root
  };

  /// Toggle recording; only between root spans (nothing may be open).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int open(const std::string& name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part its children cover.
  std::vector<std::int64_t> self_ns() const;

  /// Per span: the index of the root it belongs to.
  std::vector<int> roots() const;

  /// Writes every span (with its self time) as a JSON array.
  void write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer: records a span when the trace is enabled
/// and, when given, adds the elapsed wall time to `*accumulate_s` always.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace& trace, const char* name, double* accumulate_s = nullptr)
      : trace_(trace), id_(trace.open(name)), accumulate_s_(accumulate_s) {}
  ~ScopedSpan() {
    trace_.close(id_);
    if (accumulate_s_ != nullptr) *accumulate_s_ += seconds_since(start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace& trace_;
  int id_;
  double* accumulate_s_;
  Clock::time_point start_ = Clock::now();
};

}  // namespace manet::benchmark
