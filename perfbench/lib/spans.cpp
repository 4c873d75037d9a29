#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last, tagged with their
// recorder so two recorders never adopt each other's spans.
thread_local std::vector<std::pair<const SpanRecorder*, std::uint32_t>>
    t_open;

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t SpanRecorder::open(const char* name) {
  std::uint32_t parent = 0;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{id, parent, name, now_ms(), -1.0});
  }
  t_open.emplace_back(this, id);
  return id;
}

void SpanRecorder::close(std::uint32_t id) {
  const double end = now_ms();
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ms = end;
}

std::uint32_t SpanRecorder::add(const char* name, std::uint32_t parent,
                                double start_ms, double end_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, name, start_ms, end_ms});
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  // Children's intervals per parent (ids are 1-based indices), each
  // clipped to the parent, then merged so overlaps count once.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size() || s.end_ms < s.start_ms) {
      continue;
    }
    const Span& p = spans[s.parent - 1];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) children[s.parent - 1].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ms < spans[i].start_ms) continue;  // still open
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ms() - covered;
  }
  return self;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.end_ms >= s.start_ms && name == s.name) {
      out.push_back(s.duration_ms());
    }
  }
  return out;
}

std::vector<double> self_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name) {
  const auto self = self_times_ms(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ms >= spans[i].start_ms && name == spans[i].name) {
      out.push_back(self[i]);
    }
  }
  return out;
}

}  // namespace perfbench
