#include "probe.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "snicit/convert.hpp"
#include "snicit/postconv.hpp"
#include "snicit/recovery.hpp"
#include "snicit/sample_prune.hpp"
#include "snicit/sampling.hpp"
#include "sparse/spmm.hpp"

namespace perfbench {

namespace sp = snicit::sparse;
namespace core = snicit::core;

namespace {

/// Activation density over the first (at most) 16 listed columns — the
/// estimate the engine feeds its kernel cost model.
double prefix_density(const sp::DenseMatrix& y,
                      std::span<const sp::Index> columns) {
  return sp::estimate_column_density(
      y, columns.first(std::min<std::size_t>(columns.size(), 16)));
}

/// Computed memory traffic of one spMM call: the CSR weights once, the
/// multiplied input columns once, the output columns once.
double layer_bytes(const sp::CsrMatrix& w, std::size_t cols) {
  const double weights =
      static_cast<double>(w.nnz()) * (sizeof(float) + sizeof(sp::Index)) +
      static_cast<double>(w.rows() + 1) * sizeof(sp::Offset);
  const double activations = static_cast<double>(w.cols() + w.rows()) *
                             static_cast<double>(cols) * sizeof(float);
  return weights + activations;
}

}  // namespace

bool bit_identical(const sp::DenseMatrix& a, const sp::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(float)) == 0;
}

ProbeResult run_probe(const snicit::dnn::SparseDnn& net,
                      const core::SnicitParams& params,
                      const sp::DenseMatrix& input,
                      const sp::DenseMatrix& engine_output,
                      SpanRecorder& recorder) {
  ProbeResult r;
  ScopedSpan batch_span(&recorder, "probe.batch");
  const std::size_t layers = net.num_layers();
  const bool mirrored = !params.auto_threshold &&
                        params.adaptive_prune_target <= 0.0 &&
                        params.reconvert_interval == 0;
  const int t = std::clamp<int>(params.threshold_layer, 0,
                                static_cast<int>(layers));
  r.threshold_layer = t;
  net.ensure_csc();
  const sp::SpmmPolicy pre_policy =
      core::effective_spmm_policy(params.pre_kernel, params.spmm);
  const sp::SpmmPolicy post_policy =
      core::effective_spmm_policy(params.post_kernel, params.spmm);

  std::vector<sp::Index> all_cols(input.cols());
  for (std::size_t j = 0; j < all_cols.size(); ++j) {
    all_cols[j] = static_cast<sp::Index>(j);
  }
  sp::DenseMatrix cur = input;
  sp::DenseMatrix nxt(input.rows(), input.cols());
  for (int i = 0; i < t; ++i) {
    const auto layer = static_cast<std::size_t>(i);
    const sp::CsrMatrix& w = net.weight(layer);
    const sp::BiasAct epi{net.bias(layer), 0.0f, net.ymax()};
    const double density = prefix_density(cur, all_cols);
    ProbeLayer pl;
    {
      ScopedSpan span(&recorder, "probe.pre_layer");
      pl.variant = sp::spmm_dispatch_fused(w, &net.weight_csc(layer), cur,
                                           nxt, density, epi, pre_policy);
      pl.span = span.id();
    }
    pl.cols = cur.cols();
    pl.macs = static_cast<double>(w.nnz()) * static_cast<double>(pl.cols);
    pl.bytes = layer_bytes(w, pl.cols);
    r.layers.push_back(pl);
    std::swap(cur, nxt);
  }
  if (static_cast<std::size_t>(t) >= layers) {
    r.exact = mirrored && bit_identical(cur, engine_output);
    return r;
  }

  sp::DenseMatrix f;
  std::vector<sp::Index> centroid_cols;
  core::CompressedBatch batch;
  {
    ScopedSpan span(&recorder, "probe.sample");
    core::build_sample_matrix_into(cur, params.sample_size,
                                   params.downsample_dim, f);
    r.sample_span = span.id();
  }
  {
    ScopedSpan span(&recorder, "probe.prune");
    core::prune_samples_into(f, params.eta, params.epsilon, centroid_cols);
    r.prune_span = span.id();
  }
  {
    ScopedSpan span(&recorder, "probe.convert");
    core::convert_into(cur, centroid_cols, params.prune_threshold, batch);
    r.convert_span = span.id();
  }
  r.centroids = centroid_cols.size();
  for (std::size_t j = 0; j < batch.batch(); ++j) {
    if (!batch.is_centroid(j)) r.residue_nnz += batch.yhat.column_nonzeros(j);
  }

  sp::DenseMatrix scratch(cur.rows(), cur.cols());
  int since_refresh = 0;
  bool diverged = false;
  for (std::size_t i = static_cast<std::size_t>(t); i < layers && !diverged;
       ++i) {
    const sp::CsrMatrix& w = net.weight(i);
    ProbeLayer pl;
    pl.post = true;
    pl.cols = batch.ne_idx.size();
    const double density = prefix_density(batch.yhat, batch.ne_idx);
    pl.variant = sp::select_spmm_variant(
        sp::SpmmProblem{static_cast<std::size_t>(w.rows()),
                        static_cast<std::size_t>(w.nnz()), pl.cols, density,
                        true, false},
        post_policy);
    {
      ScopedSpan span(&recorder, "probe.post_layer");
      core::post_convergence_layer(
          w, &net.weight_csc(i), net.bias(i), net.ymax(),
          params.prune_threshold, batch, scratch, post_policy,
          params.divergence_guard ? &diverged : nullptr);
      pl.span = span.id();
    }
    pl.macs = static_cast<double>(w.nnz()) * static_cast<double>(pl.cols);
    pl.bytes = layer_bytes(w, pl.cols);
    r.layers.push_back(pl);
    if (++since_refresh >= params.ne_refresh_interval) {
      ScopedSpan span(&recorder, "probe.refresh_ne_idx");
      batch.refresh_ne_idx();
      since_refresh = 0;
      r.refresh_spans.push_back(span.id());
    }
  }
  if (diverged) return r;  // the engine fell back to the dense path

  sp::DenseMatrix out;
  {
    ScopedSpan span(&recorder, "probe.recover");
    core::recover_into(batch, out);
    r.recover_span = span.id();
  }
  r.exact = mirrored && bit_identical(out, engine_output);
  return r;
}

}  // namespace perfbench
