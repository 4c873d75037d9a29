// Seeded open-loop arrival schedules for the serving workload: Poisson
// arrivals at a fixed rate, each request tagged with its tenant (a seeded
// mix) and the pool sample it carries. The schedule is a pure function of
// its arguments, built from its own generator (splitmix64 + inverse
// transform), so it is identical on every host and standard library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64 step: the benchmark's only source of randomness.
std::uint64_t splitmix64(std::uint64_t& state);

/// Uniform double in [0, 1) from the generator state.
double uniform01(std::uint64_t& state);

/// Derives an independent seed for stream `stream` of workload seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct Arrival {
  double at_ms = 0.0;       // scheduled send time since phase start
  int tenant = 0;           // index into the tenant list
  std::size_t sample = 0;   // index into that tenant's sample pool
};

struct ScheduleSpec {
  double rate_per_s = 1000.0;
  double duration_ms = 1000.0;
  /// Probability that a request goes to tenant 0 (the rest go to 1).
  double tenant0_share = 0.75;
  std::size_t pool0 = 1;  // sample pool sizes per tenant
  std::size_t pool1 = 1;
};

std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                      const ScheduleSpec& spec);

/// A seeded permutation of [0, n) (Fisher-Yates on splitmix64).
std::vector<std::size_t> seeded_permutation(std::uint64_t seed,
                                            std::size_t n);

}  // namespace perfbench
