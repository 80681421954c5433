// Benchmark statistics and the calibrated synthetic commit-trace generator.
//
// The paper evaluates on EmBench-IoT v1.0 and RISC-V-Tests compiled with GCC
// 12.2 -O3 and run on the RTL of the reference SoC.  We have neither the RTL
// nor a RISC-V GCC, but Table III publishes, for every benchmark, the two
// quantities that drive the trace-driven overhead model: total cycles and the
// number of retired control-flow instructions.  The generator reproduces
// traces with those exact first-order statistics plus a two-parameter
// temporal structure:
//
//   * window_fraction (phi) — the fraction of the run that contains the CF
//     activity (programs have CF-dense phases);
//   * cluster — how many CF ops commit back-to-back (call/return pairs and
//     call ladders), with a small intra-cluster gap.
//
// phi is fitted against the paper's published IRQ column of Table III (queue
// depth 8) and cluster against the IRQ column of Table II (queue depth 1);
// the Polling and Optimized columns are *predictions* used to validate the
// model (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/types.hpp"
#include "titancfi/overhead_model.hpp"

namespace titan::workloads {

struct BenchmarkStats {
  std::string_view name;
  std::string_view suite;  ///< "embench" or "riscv-tests"
  double cycles;           ///< Baseline run length (Table III "Cycles").
  double cf_count;         ///< Retired CF instructions (Table III "CF").
  // Table III slowdowns [%] at queue depth 8; -1 encodes "-" (negligible).
  double paper_opt, paper_poll, paper_irq;
  // Table II slowdowns [%] at queue depth 1; -2 encodes "not in Table II".
  double paper2_opt, paper2_poll, paper2_irq;

  [[nodiscard]] bool in_table2() const { return paper2_irq > -2; }
};

/// Every row of Table III (EmBench-IoT + RISC-V-Tests).
[[nodiscard]] const std::vector<BenchmarkStats>& benchmark_table();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const BenchmarkStats* find_benchmark(std::string_view name);

/// Temporal-structure parameters of a synthetic trace.
struct TraceParams {
  double window_fraction = 1.0;  ///< phi in (0, 1].
  unsigned cluster = 2;          ///< CF ops per burst.
  unsigned intra_gap = 8;        ///< Cycles between CF ops inside a burst.
};

/// Generate the commit cycles of the CF instructions for a benchmark, in
/// ascending order.
[[nodiscard]] std::vector<sim::Cycle> synthesize_cf_cycles(
    const BenchmarkStats& stats, const TraceParams& params);

/// cfi::simulate_cf_cycles over synthesize_cf_cycles(stats, params) with
/// baseline stats.cycles, streaming the trace instead of building it.
[[nodiscard]] cfi::OverheadResult replay(const BenchmarkStats& stats,
                                         const TraceParams& params,
                                         const cfi::OverheadConfig& config);

/// replay(stats, params, config).slowdown_percent() > target, decided as soon
/// as the logs replayed so far force the answer.
[[nodiscard]] bool exceeds(const BenchmarkStats& stats,
                           const TraceParams& params,
                           const cfi::OverheadConfig& config, double target);

/// Fit (phi, cluster) against the published IRQ columns.  Deterministic.
[[nodiscard]] TraceParams calibrate(const BenchmarkStats& stats);

/// Paper check latencies (Sec. V-C).
inline constexpr std::uint32_t kIrqLatency = 267;
inline constexpr std::uint32_t kPollingLatency = 112;
inline constexpr std::uint32_t kOptimizedLatency = 73;

}  // namespace titan::workloads
