// Helpers shared by the workload implementations (not part of the
// benchmark's interface).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Stage and kernel metrics (sparse.*, snicit.* stage times) from the
/// probes of one workload and the spans they recorded. When any probe was
/// stale the stage metrics are withheld (reported as 0) and
/// bench.probe_exact says so.
void add_probe_metrics(const std::vector<ProbeResult>& probes,
                       const std::vector<Span>& spans, Outcome& out);

/// Prints "name = value unit (n = count)" into the report.
void report_timing(Outcome& out, const char* name, double value,
                   const char* unit, std::size_t n);

/// Prints "<prefix>_p<q>_ms" for the highest percentile q that the
/// samples (in ms) support.
void report_tail(Outcome& out, const char* prefix,
                 const std::vector<double>& samples_ms);

}  // namespace perfbench
