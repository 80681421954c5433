// Regenerates paper Table III: statistics and slowdowns of the full
// EmBench-IoT suite and RISC-V-Tests at CFI queue depth 8.
//
// Methodology note (see DESIGN.md): per benchmark, the trace generator is
// calibrated so the IRQ column (at depth 8) matches the paper; the Polling
// and Optimized columns are then *predictions* of the model.  The summary at
// the bottom quantifies that cross-validation.
//
// The point grid is the typed api::OverheadGrid::table3() — its
// serialization is the report identity — run through the one sweep surface:
//   bench_table3 [--threads=N] [--json=PATH]
// Output is printed in table order regardless of thread count (deterministic
// ordered aggregation), and the --json document is byte-identical at any
// thread count.
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>

#include "api/api.hpp"
#include "api/enforce.hpp"

namespace {

using titan::workloads::BenchmarkStats;

std::string fmt(double slowdown) {
  if (slowdown < 0.5) {
    return "-";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.0f", slowdown);
  return buffer;
}

std::string paper_fmt(double value) { return value < 0 ? "-" : fmt(value); }

struct Row {
  double opt = 0;
  double poll = 0;
  double irq = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const titan::sim::SweepCli cli = titan::sim::parse_sweep_cli(argc, argv);
  if (!cli.error.empty()) {
    std::cerr << "bench_table3: " << cli.error << "\n";
    return 2;
  }
  if (!cli.engine.empty()) {
    std::cerr << "bench_table3: --engine only applies to co-simulating "
                 "benches (this one replays the trace-driven overhead "
                 "model)\n";
    return 2;
  }

  const titan::api::OverheadGrid grid = titan::api::OverheadGrid::table3();

  titan::api::SweepPlan<Row> plan;
  plan.header = grid.header();
  plan.point = [&grid](std::size_t index) {
    const auto params = titan::workloads::calibrate(grid.row(index));
    Row row;
    row.opt = grid.slowdown(index, params, titan::workloads::kOptimizedLatency);
    row.poll = grid.slowdown(index, params, titan::workloads::kPollingLatency);
    row.irq = grid.slowdown(index, params, titan::workloads::kIrqLatency);
    return row;
  };
  plan.emit = [&grid](titan::sim::JsonWriter& json, const Row& row,
                      std::size_t index) {
    json.begin_object()
        .field("name", grid.row(index).name)
        .field("opt", row.opt)
        .field("poll", row.poll)
        .field("irq", row.irq)
        .end_object();
  };

  titan::api::SweepOutcome<Row> outcome;
  const int exit_code = titan::api::run_sweep(plan, cli, &outcome);
  if (exit_code != 0) {
    return exit_code;
  }

  std::cout << "TABLE III — Statistics and slowdowns of EmBench-IoT and "
               "RISC-V-Tests  (queue depth 8, slowdown %)\n";
  std::cout << "  measured -> paper   ('-' = negligible; IRQ column is the "
               "calibration target, Opt/Poll are predictions)\n\n";
  std::cout << std::left << std::setw(16) << "benchmark" << std::right
            << std::setw(10) << "cycles" << std::setw(10) << "CF"
            << std::setw(14) << "Opt." << std::setw(14) << "Poll."
            << std::setw(16) << "IRQ" << "\n";

  double poll_abs_err = 0;
  double opt_abs_err = 0;
  int scored = 0;
  std::string_view current_suite;

  for (std::size_t index = 0; index < grid.size(); ++index) {
    const BenchmarkStats& stats = grid.row(index);
    const Row& row = outcome.rows[index];
    if (stats.suite != current_suite) {
      current_suite = stats.suite;
      std::cout << "  [" << current_suite << "]\n";
    }
    std::cout << std::left << std::setw(16) << stats.name << std::right
              << std::setw(10) << static_cast<long long>(stats.cycles)
              << std::setw(10) << static_cast<long long>(stats.cf_count)
              << std::setw(8) << fmt(row.opt) << "->" << std::setw(4)
              << paper_fmt(stats.paper_opt) << std::setw(8) << fmt(row.poll)
              << "->" << std::setw(4) << paper_fmt(stats.paper_poll)
              << std::setw(8) << fmt(row.irq) << "->" << std::setw(5)
              << paper_fmt(stats.paper_irq) << "\n";

    if (stats.paper_poll > 0) {
      poll_abs_err += std::abs(row.poll - stats.paper_poll) / stats.paper_poll;
      opt_abs_err += stats.paper_opt > 0
                         ? std::abs(row.opt - stats.paper_opt) / stats.paper_opt
                         : 0.0;
      ++scored;
    }
  }

  std::cout << "\n  Cross-validation (columns NOT used for calibration):\n"
            << "    mean relative error, Polling: " << std::fixed
            << std::setprecision(1) << 100.0 * poll_abs_err / scored << "%\n"
            << "    mean relative error, Optimized: "
            << 100.0 * opt_abs_err / scored << "%  (over " << scored
            << " benchmarks with published Polling numbers)\n";
  std::cout << "  Headline shape (paper Sec. V-C): most benchmarks show no or "
               "<10% overhead; CF-dense kernels (mm, dhrystone, nbody, cubic, "
               "slre, wikisort) dominate the tail.\n";
  std::cout << "  Sweep: " << grid.size() << " points on " << outcome.threads
            << " thread(s) in " << std::setprecision(2) << outcome.seconds
            << "s\n";
  return 0;
}
