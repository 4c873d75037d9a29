#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  // Round before flooring: 1000 * (1 - 0.99) is 9.9999... in binary.
  const double beyond = static_cast<double>(n) * (1.0 - q);
  return static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kTailSamples;
}

double highest_supported_percentile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (percentile_supported(n, q)) return q;
  }
  return 0.0;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Summary summarize(const std::vector<double>& samples, double tail_q) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = median(samples);
  s.tail_supported = percentile_supported(s.n, tail_q);
  s.tail = s.tail_supported
               ? quantile(samples, tail_q)
               : *std::max_element(samples.begin(), samples.end());
  return s;
}

}  // namespace perfbench
