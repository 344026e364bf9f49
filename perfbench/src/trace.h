// In-memory span log for the traced run, written once at exit as Chrome
// trace-event JSON (loads in chrome://tracing and Perfetto).
//
// Spans are recorded from the benchmark's own code around calls into one
// layer's public functions; nothing inside the library is instrumented.
// Every span carries the op it belongs to (the Chrome "tid" lane) and the
// factor by which the per-layer table scales it (a replayed call stands for
// `scale` identical calls of the op).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records [start, end) under `name` in `layer` for op `op`. Names and
  /// layers must be string literals (they are stored unowned).
  void add(const char* name, const char* layer, Clock::time_point start,
           Clock::time_point end, int op, double scale) {
    if (!enabled_) return;
    spans_.push_back({name, layer,
                      std::chrono::duration<double, std::micro>(start - origin_).count(),
                      std::chrono::duration<double, std::micro>(end - start).count(), op,
                      scale});
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"op\": %d, "
                   "\"scale\": %.6g}}%s\n",
                   s.name, s.layer, s.ts_us, s.dur_us, s.op, s.op, s.scale,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* layer;
    double ts_us;
    double dur_us;
    int op;
    double scale;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
