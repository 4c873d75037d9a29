// The three workloads and the metrics they report.
//
//   sdgc-batch    closed loop, one caller, run_into on B=512 SDGC batches
//                 (all cores, then one thread)
//   medium-batch  closed loop, one caller, Table-4 net D on its held-out set
//   serve-mix     open loop, seeded Poisson arrivals into a two-model Router
//
// A timed run (trace off) reports the end-to-end metrics; a traced run
// reports the per-layer metrics from spans the benchmark records around
// its own calls into the library. Every run reports every metric of its
// kind; a metric a workload does not exercise reads 0 (per-layer only).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "setup.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kSdgcBatch;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (trace off) and per-layer metrics (trace on),
/// in report order. BENCHMARK.json lists the same names and units.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

struct Outcome {
  std::size_t attempted = 0;  // operations: batch runs or requests
  std::size_t failed = 0;     // wrong output, non-OK result, refused submit
  std::map<std::string, double> metrics;
  std::vector<std::string> report;  // human-readable lines

  void fail() { ++failed; }
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

Outcome run_sdgc_batch(const Setup& setup, const RunOptions& options);
Outcome run_medium_batch(const Setup& setup, const RunOptions& options);
Outcome run_serve_mix(const Setup& setup, const RunOptions& options);

/// The counts a same-seed rerun must reproduce exactly (threshold layer,
/// centroids, residue nnz, active columns per post layer, and for the
/// medium net its accuracy), one JSON object per batch workload.
std::string counts_json(const Setup& setup, Workload workload);

}  // namespace perfbench
