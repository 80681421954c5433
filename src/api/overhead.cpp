#include "api/overhead.hpp"

#include <sstream>

namespace titan::api {

namespace {

cfi::OverheadConfig depth_config(std::size_t queue_depth) {
  cfi::OverheadConfig config;
  config.queue_depth = queue_depth;
  config.transport_cycles = 0;
  return config;
}

}  // namespace

OverheadGrid OverheadGrid::table2() {
  std::vector<const workloads::BenchmarkStats*> rows;
  for (const workloads::BenchmarkStats& stats : workloads::benchmark_table()) {
    if (stats.in_table2()) {
      rows.push_back(&stats);
    }
  }
  // Table II constraint: depth 1 "to emulate stalling the core as soon as a
  // single control flow instruction is retired".
  return OverheadGrid("table2", std::move(rows), depth_config(1));
}

OverheadGrid OverheadGrid::table3() {
  const std::vector<workloads::BenchmarkStats>& table =
      workloads::benchmark_table();
  std::vector<const workloads::BenchmarkStats*> rows(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    rows[i] = &table[i];
  }
  return OverheadGrid("table3", std::move(rows), depth_config(8));
}

double OverheadGrid::slowdown(std::size_t index,
                              const workloads::TraceParams& params,
                              std::uint32_t check_latency) const {
  const workloads::BenchmarkStats& stats = *rows_[index];
  const auto cf = workloads::synthesize_cf_cycles(stats, params);
  cfi::OverheadConfig config = config_;
  config.check_latency = check_latency;
  return cfi::simulate_cf_cycles(cf, static_cast<sim::Cycle>(stats.cycles),
                                 config)
      .slowdown_percent();
}

sim::SweepDocHeader OverheadGrid::header() const {
  std::ostringstream grid;
  for (const workloads::BenchmarkStats* stats : rows_) {
    grid << stats->name << ':' << stats->cycles << ':' << stats->cf_count
         << ';';
  }
  std::ostringstream config;
  config << "queue_depth=" << config_.queue_depth
         << ";transport=" << config_.transport_cycles
         << ";lat=" << workloads::kOptimizedLatency << ','
         << workloads::kPollingLatency << ',' << workloads::kIrqLatency;
  sim::SweepDocHeader header;
  header.bench = bench_;
  header.total_points = rows_.size();
  header.grid_hash = sim::fingerprint_hex(grid.str());
  header.config_fingerprint = sim::fingerprint_hex(config.str());
  return header;
}

}  // namespace titan::api
