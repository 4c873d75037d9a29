// Host and build facts printed with every result (results from different
// hosts or builds must never be compared silently), plus the process's
// peak resident memory and the small JSON formatting the reports share.
#pragma once

#include <string>

namespace perfbench {

/// One JSON object: nproc, pool size, ISA, compiler, build type,
/// SNICIT_SIMD, and the commit / source digest the caller passes in the
/// PERFBENCH_COMMIT / PERFBENCH_SOURCE_DIGEST environment variables.
std::string host_facts_json();

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Shortest round-trip decimal form of `v` (all its digits, no padding);
/// non-finite values print as 0 so the JSON stays valid.
std::string json_number(double v);

/// `s` as a JSON string literal.
std::string json_string(const std::string& s);

}  // namespace perfbench
