// perfbench: runs one benchmark workload and prints its report, a host
// facts line, and (last) one JSON result line.
//
//   perfbench --workload sdgc-batch|medium-batch|serve-mix --seed N
//             --seconds S --trace 0|1
//   perfbench --workload sdgc-batch|medium-batch --seed N --counts
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run. --counts prints the counts a
// same-seed rerun must reproduce (used by the benchmark's self-test).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "host.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sdgc-batch|medium-batch|serve-mix --seed N --seconds S "
               "--trace 0|1 [--counts]\n",
               msg);
  std::exit(2);
}

std::string result_json(const Outcome& out,
                        const std::vector<MetricDef>& defs) {
  std::string json = "{\"correct\": ";
  json += (out.failed == 0 && out.attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = out.metrics.find(defs[i].name);
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    if (i > 0) json += ", ";
    json += json_string(defs[i].name) + ": {\"value\": " + json_number(v) +
            ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return json + "}}";
}

int run(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false, counts = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--counts") {
      counts = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage(("unknown workload '" + value + "'").c_str());
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 60.0) {
        usage("--seconds takes a number in (0, 60]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  if (counts) {
    const Setup setup = build_setup(opt.workload, opt.seed);
    std::printf("%s\n", counts_json(setup, opt.workload).c_str());
    return 0;
  }

  const Setup setup = build_setup(opt.workload, opt.seed);

  Outcome out;
  switch (opt.workload) {
    case Workload::kSdgcBatch: out = run_sdgc_batch(setup, opt); break;
    case Workload::kMediumBatch: out = run_medium_batch(setup, opt); break;
    case Workload::kServeMix: out = run_serve_mix(setup, opt); break;
  }
  out.metrics["setup_s"] = setup.times.total_s;
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.metrics["setup.radixnet_s"] = setup.times.radixnet_s;
  out.metrics["setup.train_s"] = setup.times.train_s;
  out.metrics["setup.reference_s"] = setup.times.reference_s;

  std::printf("workload %s, seed %llu, %.3g s, trace %d\n",
              to_string(opt.workload),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const auto& line : out.report) std::printf("  %s\n", line.c_str());
  std::printf("  %-26s = %.4f s (radixnet %.3f, train %.3f, reference "
              "%.3f)\n",
              "setup_s", setup.times.total_s, setup.times.radixnet_s,
              setup.times.train_s, setup.times.reference_s);
  std::printf("  %-26s = %.1f MB\n", "peak_rss_mb", out.metrics["peak_rss_mb"]);
  std::printf("  %-26s = %.6f (%zu failed of %zu attempted)\n", "fail_ratio",
              out.attempted == 0 ? 1.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted),
              out.failed, out.attempted);
  std::printf("host %s\n", host_facts_json().c_str());
  std::printf("%s\n",
              result_json(out, opt.trace ? per_layer_metrics()
                                         : end_to_end_metrics())
                  .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
