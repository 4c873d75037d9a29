// In-memory span recorder for the traced run. The benchmark wraps its own
// calls into the library (InferenceEngine::run_into, Router::submit, the
// SNICIT stage functions) in ScopedSpans; nothing inside the library is
// instrumented by it. Spans stay in memory until the run ends.
//
// A span's parent is the innermost span still open on the same thread
// when it opened (0 for a root span). Self time is a span's duration
// minus the part of its interval that its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      // 1-based; 0 is "no span"
  std::uint32_t parent = 0;  // 0 for a root span
  const char* name = "";     // string literal (spans never own names)
  double start_ms = 0.0;     // since the recorder was created
  double end_ms = 0.0;       // < start_ms while the span is still open
  double duration_ms() const { return end_ms - start_ms; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span named `name` (which must outlive the recorder) as a
  /// child of the calling thread's innermost open span of this recorder.
  std::uint32_t open(const char* name);
  /// Closes span `id`, which must be the calling thread's innermost open
  /// span of this recorder.
  void close(std::uint32_t id);

  /// Adds an already-closed span with explicit times (tests build span
  /// trees this way).
  std::uint32_t add(const char* name, std::uint32_t parent, double start_ms,
                    double end_ms);

  std::vector<Span> spans() const;

 private:
  double now_ms() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op, so one code path serves
/// the timed run (no recorder) and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

/// Self time of every span, index-aligned with `spans`: the duration minus
/// the union of its children's intervals clipped to its own.
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Durations (and self times) of every closed span called `name`.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name);
std::vector<double> self_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name);

}  // namespace perfbench
