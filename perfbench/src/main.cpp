// perfbench — command-line entry point of the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --goldens DIR --out DIR
//   perfbench --write-goldens DIR
//
// Prints diagnostics, then, as its last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1).  Exit status 0 only when the run completed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --goldens DIR --out DIR\n"
               "       perfbench --write-goldens DIR\n",
               message);
  return 2;
}

void print_metrics(const char* prefix,
                   const std::vector<perfbench::Metric>& metrics) {
  std::printf("%s{", prefix);
  const char* sep = "";
  for (const perfbench::Metric& m : metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ",";
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string write_goldens_dir;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 600;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--goldens") {
      options.golden_dir = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--write-goldens") {
      write_goldens_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  try {
    if (!write_goldens_dir.empty()) {
      perfbench::write_goldens(write_goldens_dir);
      return 0;
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace ||
        options.golden_dir.empty() || options.out_dir.empty()) {
      return usage("missing or invalid flag");
    }
    const perfbench::Result result = perfbench::run_workload(options);
    if (!result.raw.empty()) {
      print_metrics("host ", result.raw);
      std::printf("\n");
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":",
                result.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    print_metrics("", result.metrics);
    std::printf("}\n");
    return 0;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
