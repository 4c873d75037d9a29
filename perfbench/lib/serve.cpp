// serve-mix: an open loop into a two-model serve::Router. One generator
// thread (the caller) sends single-sample requests on a seeded Poisson
// schedule, 3:1 sdgc:medium, to a ModelRegistry holding the SDGC RadixNet
// and Table-4 net D, each behind a SnicitEngine; similarity packing,
// admission control off, one shared worker. Latency runs from each
// request's *scheduled* send time to its result, so a stalled generator
// or a queue that builds up shows in every later request.
//
// Phases: a warm-up, the fixed-rate phase (latency metrics, goodput) and a
// ladder of rates (max_rate_rps). Every served request is checked: SDGC
// requests by category against the serial reference of their sample, and
// the batches the server formed are replayed serially through a fresh
// engine (every medium batch, and the first SDGC batches of the
// fixed-rate phase), whose output must equal the served output bit for
// bit — the serving contract, and the exact reference for a net run with
// residue pruning.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "dnn/engine.hpp"
#include "internal.hpp"
#include "platform/thread_pool.hpp"
#include "schedule.hpp"
#include "serve/model_registry.hpp"
#include "serve/router.hpp"
#include "snicit/engine.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace core = snicit::core;
namespace dnn = snicit::dnn;
namespace serve = snicit::serve;

// The serving policy and the load, fixed here and in perfbench/README.md.
constexpr std::size_t kMaxBatch = 64;
constexpr double kBatchTimeoutMs = 2.0;
constexpr double kSdgcShare = 0.75;        // 3:1 sdgc:medium
constexpr double kLatencyLimitMs = 15.0;   // per request, and on p95
constexpr double kFixedRate = 4000.0;      // requests/s, latency phase
constexpr double kLadder[] = {2000.0, 4000.0, 6000.0, 8000.0};
constexpr double kWarmupMs = 300.0;
constexpr double kMaxGeneratorLateMs = 2.0;  // p99, for a valid ladder step
// Batches per tenant of the fixed-rate phase whose serial replay is timed
// (samples_per_s_1t). SDGC batches past it are not replayed (they are all
// checked by category); medium batches are always all replayed.
constexpr std::size_t kTimedReplays = 300;

struct Tenant {
  const char* id;
  std::shared_ptr<const dnn::SparseDnn> net;
  core::SnicitParams params;
  const DenseMatrix* pool;      // one column per request sample
  std::vector<int> reference;   // exact category of every pool column
  const MediumModel* medium;    // null for SDGC (category = any activity)
};

/// Engine batches captured in the traced run for the probe.
struct Capture {
  std::atomic<bool> tracing{false};  // off: the wrapper only forwards
  SpanRecorder* recorder = nullptr;
  const char* span_name = "engine.run_into";
  std::size_t limit = 0;
  std::mutex mutex;  // guards batches
  std::vector<std::pair<DenseMatrix, DenseMatrix>> batches;  // input, output
};

/// Wraps a lane's engine in a span and captures the batches it ran; the
/// traced run registers it with ModelRegistry::add_model.
class TracedEngine final : public dnn::InferenceEngine {
 public:
  TracedEngine(std::unique_ptr<dnn::InferenceEngine> inner,
               std::shared_ptr<Capture> capture)
      : inner_(std::move(inner)), capture_(std::move(capture)) {}

  std::string name() const override { return inner_->name(); }

  dnn::RunResult run(const dnn::SparseDnn& net,
                     const DenseMatrix& input) override {
    dnn::RunResult result;
    snicit::platform::Workspace ws;
    run_into(net, input, ws, result);
    return result;
  }

  void run_into(const dnn::SparseDnn& net, const DenseMatrix& input,
                snicit::platform::Workspace& ws,
                dnn::RunResult& result) override {
    if (!capture_->tracing.load(std::memory_order_relaxed)) {
      inner_->run_into(net, input, ws, result);
      return;
    }
    {
      ScopedSpan span(capture_->recorder, capture_->span_name);
      inner_->run_into(net, input, ws, result);
    }
    std::lock_guard<std::mutex> lock(capture_->mutex);
    if (capture_->batches.size() < capture_->limit) {
      capture_->batches.emplace_back(input, result.output);
    }
  }

  std::unique_ptr<dnn::InferenceEngine> clone() const override {
    auto inner = inner_->clone();
    if (inner == nullptr) return nullptr;
    return std::make_unique<TracedEngine>(std::move(inner), capture_);
  }

 private:
  std::unique_ptr<dnn::InferenceEngine> inner_;
  std::shared_ptr<Capture> capture_;
};

/// One scheduled request.
struct Sent {
  int tenant = 0;
  std::size_t sample = 0;
  std::size_t phase = 0;
  double scheduled_ms = 0.0;  // since phase start
  double sent_ms = 0.0;       // submit call, since phase start
  bool accepted = false;
  std::size_t id = 0;         // per-tenant request id when accepted
  // Filled in after the session:
  bool ok = false;            // OK result with a correct output
  bool agrees = false;        // category equals exact inference's
  double latency_ms = 0.0;    // scheduled send -> result
  const serve::RequestResult* result = nullptr;
};

struct Phase {
  Phase(double r, double ms) : rate(r), duration_ms(ms) {}

  double rate = 0.0;
  double duration_ms = 0.0;
  std::size_t first = 0, last = 0;  // range in the Sent list
  std::vector<double> late_ms;      // generator lateness per request
  std::vector<std::pair<double, double>> depth;  // (scheduled_ms, backlog)

  /// Mean backlog over the last quarter of the phase minus over the
  /// first quarter, in requests.
  double backlog_growth() const {
    double early = 0.0, late = 0.0;
    std::size_t ne = 0, nl = 0;
    for (const auto& [at, d] : depth) {
      if (at < 0.25 * duration_ms) {
        early += d;
        ++ne;
      } else if (at >= 0.75 * duration_ms) {
        late += d;
        ++nl;
      }
    }
    return (nl == 0 ? 0.0 : late / static_cast<double>(nl)) -
           (ne == 0 ? 0.0 : early / static_cast<double>(ne));
  }
};

class Session {
 public:
  Session(const std::vector<Tenant>& tenants, SpanRecorder* recorder)
      : tenants_(tenants), recorder_(recorder) {
    for (const Tenant& t : tenants_) {
      std::shared_ptr<const dnn::InferenceEngine> proto;
      auto engine = std::make_unique<core::SnicitEngine>(t.params);
      if (recorder_ != nullptr) {
        auto capture = std::make_shared<Capture>();
        capture->recorder = recorder_;
        capture->span_name = t.medium == nullptr ? "engine.run_into.sdgc"
                                                 : "engine.run_into.medium";
        capture->limit = 400;
        captures_.push_back(capture);
        proto = std::make_shared<TracedEngine>(std::move(engine), capture);
      } else {
        proto = std::move(engine);
      }
      auto added = registry_.add_model(t.id, t.net, proto);
      if (!added.ok()) {
        throw std::runtime_error("serve-mix: add_model failed: " +
                                 added.error().message);
      }
    }
    serve::RouterOptions ro;
    ro.serve.max_batch = kMaxBatch;
    ro.serve.batch_timeout_ms = kBatchTimeoutMs;
    ro.serve.packer = "similarity";
    ro.serve.workers = 1;
    router_ = std::make_unique<serve::Router>(registry_, ro);
  }

  /// Sends one phase's schedule, then waits until every accepted request
  /// has its result (so phases never overlap). `traced` records spans
  /// around submits and engine runs, and captures engine batches.
  void run_phase(Phase& phase, std::uint64_t seed, std::vector<Sent>& sent,
                 bool traced = false) {
    for (const auto& c : captures_) c->tracing = traced;
    SpanRecorder* submit_recorder = traced ? recorder_ : nullptr;
    ScheduleSpec spec;
    spec.rate_per_s = phase.rate;
    spec.duration_ms = phase.duration_ms;
    spec.tenant0_share = kSdgcShare;
    spec.pool0 = tenants_[0].pool->cols();
    spec.pool1 = tenants_[1].pool->cols();
    const auto schedule = poisson_schedule(seed, spec);
    phase.first = sent.size();
    const std::size_t phase_index = phases_++;
    const auto start = Clock::now();
    for (const Arrival& a : schedule) {
      const Tenant& t = tenants_[static_cast<std::size_t>(a.tenant)];
      const float* col = t.pool->col(a.sample);
      std::vector<float> features(col, col + t.pool->rows());
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(a.at_ms)));
      Sent s;
      s.tenant = a.tenant;
      s.sample = a.sample;
      s.phase = phase_index;
      s.scheduled_ms = a.at_ms;
      s.sent_ms = ms_since(start);
      phase.late_ms.push_back(s.sent_ms - a.at_ms);
      auto r = [&] {
        ScopedSpan span(submit_recorder, "router.submit");
        return router_->submit(t.id, std::move(features));
      }();
      s.accepted = r.ok();
      if (s.accepted) {
        s.id = r.value();
        ++accepted_;
      }
      phase.depth.emplace_back(
          a.at_ms, static_cast<double>(accepted_) -
                       static_cast<double>(completed()));
      sent.push_back(s);
    }
    phase.last = sent.size();
    const auto drain_start = Clock::now();
    while (completed() < accepted_ && ms_since(drain_start) < 60000.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  serve::RouterReport finish() { return router_->finish(); }

  const std::vector<std::shared_ptr<Capture>>& captures() const {
    return captures_;
  }

 private:
  std::size_t completed() const {
    std::size_t n = 0;
    for (const Tenant& t : tenants_) n += router_->completed(t.id);
    return n;
  }

  const std::vector<Tenant>& tenants_;
  SpanRecorder* recorder_;
  std::vector<std::shared_ptr<Capture>> captures_;
  serve::ModelRegistry registry_;
  std::unique_ptr<serve::Router> router_;  // after registry_: joins first
  std::size_t accepted_ = 0;
  std::size_t phases_ = 0;
};

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Single-thread throughput of the timed serial replays.
struct Replay {
  double rps = 0.0;
  std::size_t requests = 0;
};

/// Fills in every Sent's outcome from the session report: result code,
/// latency from its scheduled time, SDGC category, and the bit-exact
/// serial replay of the batches it names (`replay_phase` selects the
/// phase whose SDGC batches are replayed; medium batches always are).

Replay check_session(const std::vector<Tenant>& tenants,
                     const serve::RouterReport& report,
                     std::vector<Sent>& sent, std::size_t replay_phase) {
  // (tenant, id) -> Sent index
  std::vector<std::unordered_map<std::size_t, std::size_t>> by_id(
      tenants.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i].accepted) {
      by_id[static_cast<std::size_t>(sent[i].tenant)][sent[i].id] = i;
    }
  }
  for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
    const Tenant& t = tenants[ti];
    const serve::ServeReport* rep = report.find(t.id);
    if (rep == nullptr) continue;
    const std::size_t rows = t.pool->rows();
    for (const serve::RequestResult& r : rep->results) {
      auto it = by_id[ti].find(r.id);
      if (it == by_id[ti].end()) continue;
      Sent& s = sent[it->second];
      s.result = &r;
      s.latency_ms = (s.sent_ms - s.scheduled_ms) + r.latency_ms;
      s.ok = r.ok() && r.output.size() == rows;
      if (!s.ok) continue;
      int category = 0;
      if (t.medium == nullptr) {
        for (float v : r.output) category |= v != 0.0f ? 1 : 0;
        s.ok = category == t.reference[s.sample];
      } else {
        DenseMatrix y(rows, 1);
        std::copy(r.output.begin(), r.output.end(), y.col(0));
        category = medium_categories(*t.medium, y)[0];
      }
      s.agrees = category == t.reference[s.sample];
    }
  }

  // Serial replay of the formed batches, one thread.
  snicit::platform::ScopedSerialRegion serial;
  double replay_ms = 0.0;
  std::size_t replayed = 0;
  for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
    const Tenant& t = tenants[ti];
    const serve::ServeReport* rep = report.find(t.id);
    if (rep == nullptr) continue;
    core::SnicitEngine engine(t.params);
    snicit::platform::Workspace ws;
    dnn::RunResult result;
    const std::size_t rows = t.pool->rows();
    std::size_t timed = 0;
    for (const serve::ServeBatchRecord& b : rep->batch_log) {
      if (b.failed || b.request_ids.empty()) continue;
      std::vector<Sent*> members;
      for (std::size_t id : b.request_ids) {
        auto it = by_id[ti].find(id);
        members.push_back(it == by_id[ti].end() ? nullptr
                                                : &sent[it->second]);
      }
      const bool time_it = members.front() != nullptr &&
                           members.front()->phase == replay_phase &&
                           timed < kTimedReplays;
      if (t.medium == nullptr && !time_it) continue;
      timed += time_it ? 1 : 0;
      DenseMatrix input(rows, members.size());
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (members[j] == nullptr) continue;
        std::copy_n(t.pool->col(members[j]->sample), rows, input.col(j));
      }
      const auto t0 = Clock::now();
      engine.run_into(*t.net, input, ws, result);
      if (time_it) {
        replay_ms += ms_since(t0);
        replayed += members.size();
      }
      for (std::size_t j = 0; j < members.size(); ++j) {
        Sent* s = members[j];
        if (s == nullptr || s->result == nullptr) continue;
        if (s->result->output.size() != rows ||
            !same_bits(s->result->output.data(), result.output.col(j),
                       rows)) {
          s->ok = false;
        }
      }
    }
  }
  return Replay{replay_ms > 0.0
                    ? 1000.0 * static_cast<double>(replayed) / replay_ms
                    : 0.0,
                replayed};
}

struct PhaseStats {
  std::vector<double> latency_ms;  // OK requests
  Summary p90;  // with the median
  Summary p95;
  std::size_t requests = 0;
  std::size_t within_limit = 0;  // OK, correct and within the limit
  double gen_late_p99 = 0.0;
  double growth = 0.0;
};

/// Pooled statistics of one or more phases (backlog growth: the mean
/// over the phases).
PhaseStats phase_stats(const std::vector<const Phase*>& phases,
                       const std::vector<Sent>& sent) {
  PhaseStats st;
  std::vector<double> lat, late;
  for (const Phase* p : phases) {
    for (std::size_t i = p->first; i < p->last; ++i) {
      const Sent& s = sent[i];
      ++st.requests;
      if (s.ok) {
        lat.push_back(s.latency_ms);
        if (s.latency_ms <= kLatencyLimitMs) ++st.within_limit;
      }
    }
    late.insert(late.end(), p->late_ms.begin(), p->late_ms.end());
    st.growth += p->backlog_growth() / static_cast<double>(phases.size());
  }
  st.p90 = summarize(lat, 0.9);
  st.p95 = summarize(lat, 0.95);
  st.latency_ms = std::move(lat);
  st.gen_late_p99 = summarize(late, 0.99).tail;
  return st;
}

/// Counts failures (refused, non-OK, wrong or non-replayable outputs) and
/// the agreement with exact inference over every request sent.
void account(const std::vector<Sent>& sent, Outcome& out, double& agree_pct) {
  std::size_t agree = 0;
  for (const Sent& s : sent) {
    ++out.attempted;
    if (!s.ok) out.fail();
    if (s.ok && s.agrees) ++agree;
  }
  agree_pct = sent.empty() ? 0.0
                           : 100.0 * static_cast<double>(agree) /
                                 static_cast<double>(sent.size());
}

std::vector<Tenant> make_tenants(const Setup& setup) {
  std::vector<Tenant> tenants;
  tenants.push_back(Tenant{"sdgc", setup.sdgc->net, setup.sdgc->params,
                           &setup.sdgc_batches[0].input,
                           setup.sdgc_batches[0].categories, nullptr});
  tenants.push_back(Tenant{"medium", setup.medium->net,
                           setup.medium->params, &setup.medium->hidden0,
                           setup.medium->exact_categories,
                           &*setup.medium});
  return tenants;
}

}  // namespace

Outcome run_serve_mix(const Setup& setup, const RunOptions& options) {
  Outcome out;
  const auto tenants = make_tenants(setup);
  const double budget_ms = options.seconds * 1000.0;
  auto& m = out.metrics;
  out.line("serve-mix: open loop, Poisson arrivals, %.0f%% sdgc / %.0f%% "
           "medium, max_batch %zu, batch timeout %.1f ms, similarity "
           "packer, admission off, 1 worker, pool of %zu threads; latency "
           "limit %.1f ms",
           100.0 * kSdgcShare, 100.0 * (1.0 - kSdgcShare), kMaxBatch,
           kBatchTimeoutMs, snicit::platform::ThreadPool::global().size(),
           kLatencyLimitMs);

  if (!options.trace) {
    std::vector<Sent> sent;
    std::vector<Phase> phases;
    phases.push_back(Phase{kFixedRate, kWarmupMs});
    phases.push_back(Phase{kFixedRate, 0.6 * budget_ms});
    const double rung_ms =
        0.4 * budget_ms / static_cast<double>(std::size(kLadder));
    for (double rate : kLadder) phases.push_back(Phase{rate, rung_ms});
    Session session(tenants, nullptr);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      session.run_phase(phases[i], derive_seed(options.seed, 300 + i), sent);
    }
    const auto report = session.finish();
    const Replay replay = check_session(tenants, report, sent, 1);
    double agree = 0.0;
    account(sent, out, agree);

    const PhaseStats fixed = phase_stats({&phases[1]}, sent);
    const double fixed_s = phases[1].duration_ms / 1000.0;
    m["samples_per_s"] = static_cast<double>(fixed.within_limit) / fixed_s;
    m["samples_per_s_1t"] = replay.rps;
    m["accuracy_vs_exact_pct"] = agree;
    out.line("fixed rate %.0f requests/s for %.1f s:", kFixedRate, fixed_s);
    report_timing(out, "latency_p50_ms", fixed.p90.p50, "ms", fixed.p90.n);
    report_timing(out,
                  fixed.p90.tail_supported ? "latency_p90_ms" : "latency_max_ms",
                  fixed.p90.tail, "ms", fixed.p90.n);
    report_tail(out, "latency", fixed.latency_ms);
    report_timing(out, "goodput_rps", m["samples_per_s"], "1/s",
                  fixed.requests);
    report_timing(out, "replay_1t_rps", replay.rps, "1/s", replay.requests);
    out.line("bench.gen_late_ms_p99      = %.4f ms; backlog growth %.1f "
             "requests",
             fixed.gen_late_p99, fixed.growth);
    double max_rate = 0.0;
    for (std::size_t i = 2; i < phases.size(); ++i) {
      const PhaseStats st = phase_stats({&phases[i]}, sent);
      const bool valid = st.p95.tail_supported &&
                         st.p95.tail <= kLatencyLimitMs &&
                         st.growth <= static_cast<double>(kMaxBatch) &&
                         st.gen_late_p99 <= kMaxGeneratorLateMs &&
                         st.within_limit > 0;
      if (valid) max_rate = std::max(max_rate, phases[i].rate);
      out.line("ladder %6.0f/s: p50 %.2f ms, %s %.2f ms (n = %zu), "
               "generator late p99 %.2f ms, backlog growth %.1f -> %s",
               phases[i].rate, st.p95.p50,
               st.p95.tail_supported ? "p95" : "max", st.p95.tail, st.p95.n,
               st.gen_late_p99, st.growth,
               valid ? "holds" : "does not hold");
    }
    report_timing(out, "max_rate_rps", max_rate, "1/s",
                  std::size(kLadder));
    return out;
  }

  // Traced run: after a warm-up, untraced and traced fixed-rate phases
  // alternate in one session (lanes behind TracedEngine wrappers, which
  // only forward while tracing is off), so their latency difference is
  // the tracing overhead and not drift. The probe then runs on the SDGC
  // batches the server formed while traced.
  const double third = budget_ms / 3.0;
  SpanRecorder recorder;
  std::vector<Sent> sent;
  std::vector<Phase> phases;
  phases.push_back(Phase{kFixedRate, kWarmupMs});
  for (int i = 0; i < 4; ++i) {
    phases.push_back(Phase{kFixedRate, third / 2.0});  // plain, traced, ...
  }
  Session session(tenants, &recorder);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    session.run_phase(phases[i], derive_seed(options.seed, 300 + i), sent,
                      i > 0 && i % 2 == 0);
  }
  const auto report = session.finish();
  check_session(tenants, report, sent, SIZE_MAX);
  double agree = 0.0;
  account(sent, out, agree);

  std::vector<const Phase*> plain_phases, traced_phases;
  for (std::size_t i = 1; i < phases.size(); ++i) {
    (i % 2 == 0 ? traced_phases : plain_phases).push_back(&phases[i]);
  }
  const PhaseStats base = phase_stats(plain_phases, sent);
  const PhaseStats st = phase_stats(traced_phases, sent);
  m["bench.trace_overhead_pct"] =
      100.0 * (st.p90.p50 - base.p90.p50) / base.p90.p50;
  m["bench.gen_late_ms_p99"] = st.gen_late_p99;
  m["bench.backlog_growth"] = st.growth;

  // The probe splits the SDGC lane's served batches into stages.
  std::vector<ProbeResult> probes;
  const auto& sdgc_capture = *session.captures()[0];
  const auto probe_start = Clock::now();
  for (const auto& [input, output] : sdgc_capture.batches) {
    if (ms_since(probe_start) >= third && !probes.empty()) break;
    probes.push_back(run_probe(*tenants[0].net, tenants[0].params, input,
                               output, recorder));
  }
  const auto spans = recorder.spans();
  add_probe_metrics(probes, spans, out);
  std::vector<double> centroids, residues, thresholds;
  for (const ProbeResult& p : probes) {
    centroids.push_back(static_cast<double>(p.centroids));
    residues.push_back(static_cast<double>(p.residue_nnz));
    thresholds.push_back(static_cast<double>(p.threshold_layer));
  }
  m["snicit.centroids"] = mean(centroids);
  m["snicit.residue_nnz"] = mean(residues);
  m["snicit.threshold_layer"] = mean(thresholds);
  m["snicit.run_into_ms"] = mean(durations_ms(spans, "engine.run_into.sdgc"));

  std::vector<double> engine_ms = durations_ms(spans, "engine.run_into.sdgc");
  for (double v : durations_ms(spans, "engine.run_into.medium")) {
    engine_ms.push_back(v);
  }
  std::vector<double> submit_us;
  for (double v : durations_ms(spans, "router.submit")) {
    submit_us.push_back(1000.0 * v);
  }
  std::vector<double> queue_ms;
  std::vector<double> tenant_latency[2];
  for (const Phase* p : traced_phases) {
    for (std::size_t i = p->first; i < p->last; ++i) {
      const Sent& s = sent[i];
      if (s.result != nullptr) queue_ms.push_back(s.result->queue_ms);
      if (s.ok) tenant_latency[s.tenant].push_back(s.latency_ms);
    }
  }
  double cols = 0.0, fill = 0.0, similarity = 0.0, batches = 0.0;
  double rounds = 0.0, retries = 0.0, timeouts = 0.0, fallbacks = 0.0;
  for (const auto& [id, rep] : report.tenants) {
    for (const auto& b : rep.batch_log) {
      cols += static_cast<double>(b.request_ids.size());
      fill += b.fill;
      similarity += b.similarity;
      batches += 1.0;
    }
    rounds += static_cast<double>(rep.rounds);
    retries += static_cast<double>(rep.retries);
    timeouts += static_cast<double>(rep.timed_out_requests);
    fallbacks += static_cast<double>(rep.degraded_batches);
  }
  m["snicit.fallbacks"] = fallbacks;
  m["serve.submit_us_p99"] = summarize(submit_us, 0.99).tail;
  const Summary qw = summarize(queue_ms, 0.99);
  m["serve.queue_wait_ms_p50"] = qw.p50;
  m["serve.queue_wait_ms_p99"] = qw.tail;
  m["serve.engine_ms_p50"] = median(engine_ms);
  m["serve.batch_cols_mean"] = batches > 0.0 ? cols / batches : 0.0;
  m["serve.batch_fill"] = batches > 0.0 ? fill / batches : 0.0;
  m["serve.pack_similarity"] = batches > 0.0 ? similarity / batches : 0.0;
  m["serve.rounds"] = rounds;
  m["serve.retries"] = retries;
  m["serve.timeouts"] = timeouts;
  m["serve.sdgc.latency_p99_ms"] = summarize(tenant_latency[0], 0.99).tail;
  m["serve.medium.latency_p99_ms"] = summarize(tenant_latency[1], 0.99).tail;
  report_timing(out, "traced latency_p50_ms", st.p90.p50, "ms", st.p90.n);
  report_timing(out, "untraced latency_p50_ms", base.p90.p50, "ms",
                base.p90.n);
  out.line("session: %.0f engine batches, %.1f columns each on average",
           batches, m["serve.batch_cols_mean"]);
  return out;
}

}  // namespace perfbench
