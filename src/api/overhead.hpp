// Typed trace-driven overhead sweeps (paper Tables II/III).
//
// The table benches don't co-simulate the SoC — they replay calibrated
// synthetic commit traces through workloads::replay.  OverheadGrid is
// their scenario layer: a named, typed (benchmark rows x queue config x
// firmware latencies) grid whose deterministic serialization becomes the
// sweep-report identity, exactly like ScenarioSet does for co-sim grids.
// This replaces the hand-derived description helpers that used to live in
// bench/sweep_bench_common.hpp.
#pragma once

#include <string>
#include <vector>

#include "sim/sweep_doc.hpp"
#include "titancfi/overhead_model.hpp"
#include "workloads/embench.hpp"

namespace titan::api {

class OverheadGrid {
 public:
  /// Table II rows (benchmarks both comparator papers report), queue depth 1.
  [[nodiscard]] static OverheadGrid table2();
  /// Full Table III grid (EmBench-IoT + RISC-V-Tests), queue depth 8.
  [[nodiscard]] static OverheadGrid table3();

  [[nodiscard]] const std::string& bench() const { return bench_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] const workloads::BenchmarkStats& row(std::size_t index) const {
    return *rows_[index];
  }
  [[nodiscard]] const cfi::OverheadConfig& base_config() const {
    return config_;
  }

  /// Evaluate one grid point: calibrated synthetic trace of `row(index)`
  /// replayed at `check_latency`, as percent slowdown.  `params` comes from
  /// calibrate(row(index)) — callers that evaluate several latencies per row
  /// calibrate once and reuse it.
  [[nodiscard]] double slowdown(std::size_t index,
                                const workloads::TraceParams& params,
                                std::uint32_t check_latency) const;

  /// Report identity: grid hash over (name, cycles, cf) of every row, config
  /// fingerprint over the queue/transport values and the three firmware
  /// check latencies — all read from the live objects the sweep runs with.
  [[nodiscard]] sim::SweepDocHeader header() const;

 private:
  OverheadGrid(std::string bench,
               std::vector<const workloads::BenchmarkStats*> rows,
               cfi::OverheadConfig config)
      : bench_(std::move(bench)), rows_(std::move(rows)), config_(config) {}

  std::string bench_;
  std::vector<const workloads::BenchmarkStats*> rows_;
  cfi::OverheadConfig config_;
};

}  // namespace titan::api
