// The benchmark's workloads and the result every run prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_dir;  ///< Holds reports.txt and tables.txt.
  std::string out_dir;     ///< Where the traced run writes its spans.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Wall-clock ("host.raw_*") twins of the normalised end-to-end metrics,
  /// printed as a diagnostic line for the steadiness check.
  std::vector<Metric> raw;
};

/// Run one workload: end-to-end metrics untraced, or per-layer metrics from
/// a traced run.  Throws on a usage error or a broken environment.
Result run_workload(const Options& options);

/// Regenerate the golden files in `dir` (scenarios on the lock-step engine).
void write_goldens(const std::string& dir);

}  // namespace perfbench
