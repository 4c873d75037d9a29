#include "host.hpp"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "platform/thread_pool.hpp"
#include "sparse/spmm.hpp"

namespace perfbench {

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

std::string isa() {
  std::string out;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    out = "avx512f";
  } else if (__builtin_cpu_supports("avx2")) {
    out = "avx2";
  } else {
    out = "x86-64";
  }
#else
  out = "non-x86";
#endif
#if defined(__AVX512F__)
  out += " (built for avx512f)";
#elif defined(__AVX2__)
  out += " (built for avx2)";
#endif
  return out;
}

}  // namespace

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string host_facts_json() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(online);
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_threads\": " +
         std::to_string(snicit::platform::ThreadPool::global().size());
  out += ", \"isa\": " + json_string(isa());
  out += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"SNICIT_SIMD\": " + json_string(PERFBENCH_SNICIT_SIMD);
  out += ", \"simd_kernels_compiled\": ";
  out += snicit::sparse::simd_compiled() ? "true" : "false";
  out += ", \"commit\": " + json_string(env_or("PERFBENCH_COMMIT", "unknown"));
  out += ", \"source_digest\": " +
         json_string(env_or("PERFBENCH_SOURCE_DIGEST", "unknown"));
  out += "}";
  return out;
}

}  // namespace perfbench
