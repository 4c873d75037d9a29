// Stage and kernel probe: runs one batch through the SNICIT pipeline by
// calling the library's public stage functions itself
// (spmm_dispatch_fused, build_sample_matrix_into, prune_samples_into,
// convert_into, post_convergence_layer, CompressedBatch::refresh_ne_idx,
// recover_into), with a span around each call. Its output is compared bit
// for bit with the engine's run_into output on the same batch; when they
// differ the probe is stale — it no longer drives the program the engine
// runs — and its numbers must not be reported.
#pragma once

#include <cstdint>
#include <vector>

#include "dnn/sparse_dnn.hpp"
#include "snicit/params.hpp"
#include "sparse/dense_matrix.hpp"
#include "sparse/spmm_policy.hpp"
#include "spans.hpp"

namespace perfbench {

struct ProbeLayer {
  std::uint32_t span = 0;  // span of the layer's library call
  bool post = false;       // post-convergence (load-reduced) layer
  std::size_t cols = 0;    // columns multiplied
  snicit::sparse::SpmmVariant variant = snicit::sparse::SpmmVariant::kAuto;
  double macs = 0.0;       // computed: weight nnz x columns
  double bytes = 0.0;      // computed: weights + activations in and out
};

struct ProbeResult {
  /// The probe mirrored this configuration (no auto threshold, adaptive
  /// pruning, re-conversion or divergence fallback) and its output equals
  /// the engine's bit for bit.
  bool exact = false;
  int threshold_layer = 0;
  std::size_t centroids = 0;
  std::size_t residue_nnz = 0;  // non-centroid nonzeros right after conversion
  std::vector<ProbeLayer> layers;
  // Stage spans (0 when the stage did not run).
  std::uint32_t sample_span = 0;
  std::uint32_t prune_span = 0;
  std::uint32_t convert_span = 0;
  std::uint32_t recover_span = 0;
  std::vector<std::uint32_t> refresh_spans;
};

/// Probes `input` through `net` under `params`; `engine_output` is the
/// engine's run_into output for the same input. Spans go to `recorder`.
ProbeResult run_probe(const snicit::dnn::SparseDnn& net,
                      const snicit::core::SnicitParams& params,
                      const snicit::sparse::DenseMatrix& input,
                      const snicit::sparse::DenseMatrix& engine_output,
                      SpanRecorder& recorder);

/// True when both matrices have the same shape and identical float bits.
bool bit_identical(const snicit::sparse::DenseMatrix& a,
                   const snicit::sparse::DenseMatrix& b);

}  // namespace perfbench
