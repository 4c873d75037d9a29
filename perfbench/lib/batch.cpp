// sdgc-batch and medium-batch: one caller runs SnicitEngine::run_into back
// to back with a warm workspace (closed loop), cycling through the
// workload's seeded batches. Every output is compared bit for bit with
// that batch's first output, which was itself checked against the exact
// reference.
#include <algorithm>
#include <cmath>
#include <functional>

#include "dnn/engine.hpp"
#include "host.hpp"
#include "internal.hpp"
#include "platform/thread_pool.hpp"
#include "snicit/engine.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace core = snicit::core;
namespace dnn = snicit::dnn;

struct BatchCase {
  const dnn::SparseDnn* net = nullptr;
  core::SnicitParams params;
  std::vector<const DenseMatrix*> inputs;
  /// Checks a batch's first output against its exact reference: returns
  /// false for a wrong output and sets the batch's agreement with exact
  /// inference in percent.
  std::function<bool(std::size_t, const DenseMatrix&, double&)> check;
};

/// Run times of a closed loop, kept per input batch. The batches differ
/// in cost, so the typical batch time is the mean of the per-batch
/// medians: a median of the pooled times would jump between batches from
/// run to run, and a mean would follow every interrupted run.
struct Loop {
  std::vector<std::vector<double>> ms;  // [batch][run]

  std::vector<double> pooled() const {
    std::vector<double> all;
    for (const auto& v : ms) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  double typical_ms() const {
    std::vector<double> medians;
    for (const auto& v : ms) {
      if (!v.empty()) medians.push_back(median(v));
    }
    return mean(medians);
  }
};

class BatchRunner {
 public:
  BatchRunner(const BatchCase& bc, Outcome& out)
      : bc_(bc), out_(out), engine_(bc.params) {}

  /// Runs every batch once (warming the workspace), checks each output
  /// against the exact reference and keeps it as that batch's golden
  /// output. Returns the mean agreement with exact inference.
  double warm_up() {
    double agree_sum = 0.0;
    for (std::size_t k = 0; k < bc_.inputs.size(); ++k) {
      engine_.run_into(*bc_.net, *bc_.inputs[k], ws_, result_);
      ++out_.attempted;
      double agree = 0.0;
      if (!bc_.check(k, result_.output, agree)) out_.fail();
      agree_sum += agree;
      golden_.push_back(result_.output);
      record_diagnostics();
    }
    return agree_sum / static_cast<double>(bc_.inputs.size());
  }

  /// One checked run_into of the next batch, optionally inside a span.
  /// Returns its time in ms.
  double step(SpanRecorder* recorder) {
    const std::size_t k = cursor_++ % bc_.inputs.size();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(recorder, "engine.run_into");
      engine_.run_into(*bc_.net, *bc_.inputs[k], ws_, result_);
    }
    const double ms = ms_since(t0);
    ++out_.attempted;
    if (!bit_identical(result_.output, golden_[k])) out_.fail();
    if (result_.fallback_layer >= 0) ++fallbacks_;
    return ms;
  }

  /// Closed loop of untraced runs for `budget_ms`.
  Loop run_for(double budget_ms) {
    Loop loop;
    loop.ms.resize(bc_.inputs.size());
    const auto start = Clock::now();
    while (ms_since(start) < budget_ms) {
      const std::size_t k = cursor_ % bc_.inputs.size();
      loop.ms[k].push_back(step(nullptr));
    }
    return loop;
  }

  /// Probes batches round robin for `budget_ms`, at least one pass.
  std::vector<ProbeResult> probe_for(double budget_ms,
                                     SpanRecorder& recorder) {
    std::vector<ProbeResult> probes;
    const auto start = Clock::now();
    for (std::size_t k = 0;
         k < bc_.inputs.size() || ms_since(start) < budget_ms; ++k) {
      const std::size_t b = k % bc_.inputs.size();
      probes.push_back(run_probe(*bc_.net, bc_.params, *bc_.inputs[b],
                                 golden_[b], recorder));
    }
    return probes;
  }

  std::size_t fallbacks() const { return fallbacks_; }
  const std::vector<double>& centroids() const { return centroids_; }
  const std::vector<double>& residue_nnz() const { return residue_nnz_; }
  const std::vector<double>& threshold() const { return threshold_; }

 private:
  void record_diagnostics() {
    const auto diag = [this](const char* key) {
      auto it = result_.diagnostics.find(key);
      return it == result_.diagnostics.end() ? 0.0 : it->second;
    };
    centroids_.push_back(diag("centroids"));
    residue_nnz_.push_back(diag("conversion_residue_nnz"));
    threshold_.push_back(diag("threshold_layer"));
    if (result_.fallback_layer >= 0) ++fallbacks_;
  }

  const BatchCase& bc_;
  Outcome& out_;
  core::SnicitEngine engine_;
  snicit::platform::Workspace ws_;
  dnn::RunResult result_;
  std::vector<DenseMatrix> golden_;
  std::size_t cursor_ = 0;
  std::size_t fallbacks_ = 0;
  std::vector<double> centroids_, residue_nnz_, threshold_;
};

Outcome run_batch(const BatchCase& bc, const RunOptions& options,
                  const char* label) {
  Outcome out;
  BatchRunner runner(bc, out);
  const double agree = runner.warm_up();
  out.line("%s: categories agree with exact inference on %.2f%% of the "
           "columns of %zu batches",
           label, agree, bc.inputs.size());
  const double budget_ms = options.seconds * 1000.0;
  auto& m = out.metrics;
  if (!options.trace) {
    const Loop all = runner.run_for(0.7 * budget_ms);
    Loop one;
    {
      snicit::platform::ScopedSerialRegion serial;
      one = runner.run_for(0.3 * budget_ms);
    }
    double cols = 0.0;
    for (const DenseMatrix* in : bc.inputs) cols += static_cast<double>(in->cols());
    cols /= static_cast<double>(bc.inputs.size());
    const auto pooled = all.pooled();
    const Summary s = summarize(pooled, 0.9);
    m["samples_per_s"] = 1000.0 * cols / all.typical_ms();
    m["samples_per_s_1t"] = 1000.0 * cols / one.typical_ms();
    m["accuracy_vs_exact_pct"] = agree;
    out.line("%s: closed loop, 1 caller, pool of %zu threads, %zu batches "
             "of %.0f columns cycled; p50 = mean of per-batch medians",
             label, snicit::platform::ThreadPool::global().size(),
             bc.inputs.size(), cols);
    report_timing(out, "batch_ms_p50", all.typical_ms(), "ms", s.n);
    report_timing(out, s.tail_supported ? "batch_ms_p90" : "batch_ms_max",
                  s.tail, "ms", s.n);
    report_tail(out, "batch", pooled);
    report_timing(out, "samples_per_s", m["samples_per_s"], "1/s", s.n);
    report_timing(out, "samples_per_s_1t", m["samples_per_s_1t"], "1/s",
                  one.pooled().size());
    return out;
  }

  // Traced run: untraced and traced runs alternate, so their difference
  // is the tracing overhead and not drift; the probe then splits the
  // batch into stages.
  SpanRecorder recorder;
  std::vector<double> plain, traced;
  const auto start = Clock::now();
  while (ms_since(start) < 2.0 * budget_ms / 3.0) {
    plain.push_back(runner.step(nullptr));
    traced.push_back(runner.step(&recorder));
  }
  const auto probes = runner.probe_for(budget_ms / 3.0, recorder);
  const auto spans = recorder.spans();
  const double base = median(plain);
  m["bench.trace_overhead_pct"] = 100.0 * (median(traced) - base) / base;
  m["snicit.run_into_ms"] = mean(durations_ms(spans, "engine.run_into"));
  m["snicit.centroids"] = mean(runner.centroids());
  m["snicit.residue_nnz"] = mean(runner.residue_nnz());
  m["snicit.threshold_layer"] = mean(runner.threshold());
  m["snicit.fallbacks"] = static_cast<double>(runner.fallbacks());
  add_probe_metrics(probes, spans, out);
  report_timing(out, "traced run_into p50", median(traced), "ms",
                traced.size());
  report_timing(out, "untraced run_into p50", base, "ms", plain.size());
  return out;
}

}  // namespace

Outcome run_sdgc_batch(const Setup& setup, const RunOptions& options) {
  BatchCase bc;
  bc.net = setup.sdgc->net.get();
  bc.params = setup.sdgc->params;
  for (const auto& b : setup.sdgc_batches) bc.inputs.push_back(&b.input);
  double max_diff = 0.0;
  bc.check = [&setup, &max_diff](std::size_t k, const DenseMatrix& y,
                                 double& agree) {
    const SdgcBatch& b = setup.sdgc_batches[k];
    const auto cats = snicit::dnn::sdgc_categories(y);
    agree = agreement_pct(cats, b.categories);
    for (std::size_t i = 0; i < y.rows() * y.cols(); ++i) {
      max_diff = std::max(
          max_diff,
          static_cast<double>(std::fabs(y.data()[i] - b.reference.data()[i])));
    }
    return cats == b.categories;
  };
  Outcome out = run_batch(bc, options, "sdgc-batch");
  out.line("sdgc-batch: max abs diff against the serial reference %.3g",
           max_diff);
  return out;
}

Outcome run_medium_batch(const Setup& setup, const RunOptions& options) {
  const MediumModel& model = *setup.medium;
  BatchCase bc;
  bc.net = model.net.get();
  bc.params = model.params;
  for (const auto& b : setup.medium_batches) bc.inputs.push_back(&b.input);
  double loss_sum = 0.0;
  bc.check = [&](std::size_t k, const DenseMatrix& y, double& agree) {
    const MediumBatch& b = setup.medium_batches[k];
    const auto cats = medium_categories(model, y);
    agree = agreement_pct(cats, b.exact_categories);
    const double loss =
        agreement_pct(b.exact_categories, b.labels) -
        agreement_pct(cats, b.labels);
    loss_sum += loss;
    // The repository's Table-4 acceptance: SNICIT loses at most 3
    // accuracy points against exact inference of the same net.
    return loss <= 3.0;
  };
  Outcome out = run_batch(bc, options, "medium-batch");
  out.line("accuracy_loss_pct          = %.4f %% points (exact %.2f%% on "
           "labels; n = %zu batches of %zu)",
           loss_sum / static_cast<double>(setup.medium_batches.size()),
           agreement_pct(model.exact_categories, model.labels),
           setup.medium_batches.size(), model.labels.size());
  return out;
}

std::string counts_json(const Setup& setup, Workload workload) {
  const dnn::SparseDnn* net = nullptr;
  core::SnicitParams params;
  std::vector<const DenseMatrix*> inputs;
  if (workload == Workload::kSdgcBatch) {
    net = setup.sdgc->net.get();
    params = setup.sdgc->params;
    for (const auto& b : setup.sdgc_batches) inputs.push_back(&b.input);
  } else if (workload == Workload::kMediumBatch) {
    net = setup.medium->net.get();
    params = setup.medium->params;
    for (const auto& b : setup.medium_batches) inputs.push_back(&b.input);
  } else {
    return "{}";
  }
  params.record_trace = true;
  core::SnicitEngine engine(params);
  std::string json = "{\"batches\": [";
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto r = engine.run(*net, *inputs[k]);
    const auto& t = engine.last_trace();
    if (k > 0) json += ", ";
    json += "{\"threshold_layer\": " + std::to_string(t.threshold_layer);
    json += ", \"centroids\": " + std::to_string(t.centroid_count);
    const auto it = r.diagnostics.find("conversion_residue_nnz");
    json += ", \"residue_nnz\": " +
            json_number(it == r.diagnostics.end() ? -1.0 : it->second);
    json += ", \"active_columns\": [";
    for (std::size_t i = 0; i < t.ne_count.size(); ++i) {
      json += (i > 0 ? "," : "") + std::to_string(t.ne_count[i]);
    }
    json += "]";
    if (workload == Workload::kMediumBatch) {
      const MediumBatch& b = setup.medium_batches[k];
      const auto cats = medium_categories(*setup.medium, r.output);
      json += ", \"accuracy_loss_pct\": " +
              json_number(agreement_pct(b.exact_categories, b.labels) -
                          agreement_pct(cats, b.labels));
    }
    json += "}";
  }
  return json + "]}";
}

}  // namespace perfbench
