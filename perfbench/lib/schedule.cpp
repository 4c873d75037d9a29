#include "schedule.hpp"

#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0xD1B54A32D192ED03ull * (stream + 1));
  return splitmix64(state);
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                      const ScheduleSpec& spec) {
  std::vector<Arrival> out;
  if (!(spec.rate_per_s > 0.0) || spec.pool0 == 0 || spec.pool1 == 0) {
    return out;
  }
  std::uint64_t state = seed;
  const double mean_gap_ms = 1000.0 / spec.rate_per_s;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-uniform01(state)) * mean_gap_ms;
    if (t >= spec.duration_ms) break;
    Arrival a;
    a.at_ms = t;
    a.tenant = uniform01(state) < spec.tenant0_share ? 0 : 1;
    const std::size_t pool = a.tenant == 0 ? spec.pool0 : spec.pool1;
    a.sample = static_cast<std::size_t>(splitmix64(state) % pool);
    out.push_back(a);
  }
  return out;
}

std::vector<std::size_t> seeded_permutation(std::uint64_t seed,
                                            std::size_t n) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace perfbench
