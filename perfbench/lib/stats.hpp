// Order statistics for benchmark reports, with the sample-support rule:
// a percentile is reported only when at least ten samples lie beyond it,
// so a "p99" read off 200 samples is never passed off as one.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples needed beyond a percentile before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// Samples strictly beyond the q-quantile of n samples: floor(n * (1 - q)),
/// computed so that q = 0.99, n = 1000 gives exactly 10.
std::size_t samples_beyond(std::size_t n, double q);

/// True when n samples support reporting the q-quantile.
bool percentile_supported(std::size_t n, double q);

/// The highest of the fixed report levels (0.999, 0.99, 0.95, 0.9, 0.75,
/// 0.5) that n samples support, or 0 when not even the median is.
double highest_supported_percentile(std::size_t n);

/// Type-7 (linear interpolation) quantile of `samples`; q in [0, 1].
/// Returns 0 for an empty input.
double quantile(std::vector<double> samples, double q);

double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

/// A timing distribution as the benchmark reports it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  /// The requested tail quantile when the samples support it; otherwise
  /// the maximum sample (an upper bound on it) and `tail_supported` is
  /// false.
  double tail = 0.0;
  bool tail_supported = false;
};

/// Median plus the q-tail of `samples`, under the support rule.
Summary summarize(const std::vector<double>& samples, double tail_q);

}  // namespace perfbench
