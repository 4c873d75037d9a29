#include <cstdarg>
#include <cstdio>

#include "internal.hpp"
#include "sparse/spmm_policy.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

// Kernel arms named in the per-layer metrics (sparse.variant.<name>).
constexpr const char* kVariantNames[] = {
    "gather", "gather_simd", "gather_threaded", "tiled", "scatter",
    "scatter_simd"};

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"samples_per_s", "1/s"},
      {"samples_per_s_1t", "1/s"},
      {"accuracy_vs_exact_pct", "%"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sparse.pre_layer_ms", "ms"},
      {"sparse.pre_gmacs", "GMAC/s"},
      {"sparse.pre_bytes_per_mac", "B/MAC"},
      {"sparse.variant.gather", "count"},
      {"sparse.variant.gather_simd", "count"},
      {"sparse.variant.gather_threaded", "count"},
      {"sparse.variant.tiled", "count"},
      {"sparse.variant.scatter", "count"},
      {"sparse.variant.scatter_simd", "count"},
      {"sparse.post_cols_per_layer", "count"},
      {"snicit.run_into_ms", "ms"},
      {"snicit.pre_ms", "ms"},
      {"snicit.conversion_ms", "ms"},
      {"snicit.conversion.sample_ms", "ms"},
      {"snicit.conversion.prune_ms", "ms"},
      {"snicit.conversion.convert_ms", "ms"},
      {"snicit.post_ms", "ms"},
      {"snicit.recovery_ms", "ms"},
      {"snicit.post_us_per_col", "us"},
      {"snicit.post_layer_floor_us", "us"},
      {"snicit.centroids", "count"},
      {"snicit.residue_nnz", "count"},
      {"snicit.threshold_layer", "count"},
      {"snicit.fallbacks", "count"},
      {"serve.submit_us_p99", "us"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.engine_ms_p50", "ms"},
      {"serve.batch_cols_mean", "count"},
      {"serve.batch_fill", "ratio"},
      {"serve.pack_similarity", "ratio"},
      {"serve.rounds", "count"},
      {"serve.retries", "count"},
      {"serve.timeouts", "count"},
      {"serve.sdgc.latency_p99_ms", "ms"},
      {"serve.medium.latency_p99_ms", "ms"},
      {"setup.radixnet_s", "s"},
      {"setup.train_s", "s"},
      {"setup.reference_s", "s"},
      {"bench.gen_late_ms_p99", "ms"},
      {"bench.backlog_growth", "count"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.probe_exact", "ratio"},
  };
  return defs;
}

void Outcome::line(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  report.emplace_back(buf);
}

void report_timing(Outcome& out, const char* name, double value,
                   const char* unit, std::size_t n) {
  out.line("%-26s = %.4f %s (n = %zu)", name, value, unit, n);
}

void report_tail(Outcome& out, const char* prefix,
                 const std::vector<double>& samples_ms) {
  const double q = highest_supported_percentile(samples_ms.size());
  if (q == 0.0) return;
  char name[64];
  std::snprintf(name, sizeof(name), "%s_p%g_ms", prefix, 100.0 * q);
  report_timing(out, name, quantile(samples_ms, q), "ms", samples_ms.size());
}

void add_probe_metrics(const std::vector<ProbeResult>& probes,
                       const std::vector<Span>& spans, Outcome& out) {
  std::size_t exact = 0;
  for (const ProbeResult& p : probes) exact += p.exact ? 1 : 0;
  const double exact_ratio =
      probes.empty() ? 0.0
                     : static_cast<double>(exact) /
                           static_cast<double>(probes.size());
  out.metrics["bench.probe_exact"] = exact_ratio;
  if (probes.empty() || exact != probes.size()) {
    out.line("probe: STALE (%zu of %zu probed batches differ from run_into); "
             "stage metrics withheld",
             probes.size() - exact, probes.size());
    return;
  }

  const auto dur = [&spans](std::uint32_t id) {
    return id == 0 ? 0.0 : spans[id - 1].duration_ms();
  };
  double pre_ms = 0.0, pre_macs = 0.0, pre_bytes = 0.0;
  std::size_t pre_layers = 0;
  double post_ms = 0.0, post_cols = 0.0;
  std::size_t post_layers = 0;
  double sample = 0.0, prune = 0.0, convert = 0.0, refresh = 0.0;
  double recover = 0.0;
  std::vector<double> floor_us;
  std::map<std::string, double> variants;
  for (const ProbeResult& p : probes) {
    for (const ProbeLayer& l : p.layers) {
      const double ms = dur(l.span);
      variants[snicit::sparse::to_string(l.variant)] += 1.0;
      if (l.post) {
        post_ms += ms;
        post_cols += static_cast<double>(l.cols);
        ++post_layers;
        if (l.cols <= 4) floor_us.push_back(ms * 1000.0);
      } else {
        pre_ms += ms;
        pre_macs += l.macs;
        pre_bytes += l.bytes;
        ++pre_layers;
      }
    }
    sample += dur(p.sample_span);
    prune += dur(p.prune_span);
    convert += dur(p.convert_span);
    recover += dur(p.recover_span);
    for (std::uint32_t id : p.refresh_spans) refresh += dur(id);
  }
  const double batches = static_cast<double>(probes.size());
  auto& m = out.metrics;
  m["sparse.pre_layer_ms"] =
      pre_layers == 0 ? 0.0 : pre_ms / static_cast<double>(pre_layers);
  m["sparse.pre_gmacs"] = pre_ms > 0.0 ? pre_macs / pre_ms / 1e6 : 0.0;
  m["sparse.pre_bytes_per_mac"] = pre_macs > 0.0 ? pre_bytes / pre_macs : 0.0;
  for (const char* name : kVariantNames) {
    m[std::string("sparse.variant.") + name] = variants[name] / batches;
  }
  m["sparse.post_cols_per_layer"] =
      post_layers == 0 ? 0.0 : post_cols / static_cast<double>(post_layers);
  m["snicit.pre_ms"] = pre_ms / batches;
  m["snicit.conversion.sample_ms"] = sample / batches;
  m["snicit.conversion.prune_ms"] = prune / batches;
  m["snicit.conversion.convert_ms"] = convert / batches;
  m["snicit.conversion_ms"] = (sample + prune + convert) / batches;
  m["snicit.post_ms"] = (post_ms + refresh) / batches;
  m["snicit.recovery_ms"] = recover / batches;
  m["snicit.post_us_per_col"] =
      post_cols > 0.0 ? post_ms * 1000.0 / post_cols : 0.0;
  m["snicit.post_layer_floor_us"] = median(floor_us);
  out.line("probe: %zu batches bit-identical to run_into; per batch pre "
           "%.3f + conversion %.3f + post %.3f + recovery %.3f ms "
           "(pre/post layers %zu/%zu, post layers with <= 4 columns %zu)",
           probes.size(), m["snicit.pre_ms"], m["snicit.conversion_ms"],
           m["snicit.post_ms"], m["snicit.recovery_ms"], pre_layers,
           post_layers, floor_us.size());
  out.line("probe: self time of probe.batch outside its stage calls %.4f "
           "ms per batch (benchmark glue, not in any stage)",
           mean(self_durations_ms(spans, "probe.batch")));
  out.line("probe: sparse.pre_bytes_per_mac and sparse.pre_gmacs are "
           "computed from weight nnz and activation shapes");
}

}  // namespace perfbench
