// Regenerates paper Table II: runtime slowdown comparison with DExIE [8] and
// FIXER [6] on the benchmarks both papers report, with the CFI Queue
// constrained to depth 1 ("to emulate the behaviour of stalling the core as
// soon as a single control flow instruction is retired").
//
// Columns: the comparators' reported numbers, our behavioural models of the
// comparators, and TitanCFI's Optimized / Polling / IRQ firmware through the
// trace-driven overhead model on calibrated synthetic traces.
//
// The point grid is the typed api::OverheadGrid::table2() — its
// serialization is the report identity — run through the one sweep surface
// (threads via sim::SweepRunner):
//   bench_table2 [--threads=N] [--json=PATH]
// The --json document is byte-identical at any thread count.
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <optional>

#include "api/api.hpp"
#include "baselines/baselines.hpp"
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

std::string fmt_opt(std::optional<double> value) {
  return value.has_value() ? fmt(*value) : "n.a.";
}

struct Row {
  const BenchmarkStats* stats = nullptr;
  double dexie_model = 0;
  double fixer_model = 0;
  double opt = 0;
  double poll = 0;
  double irq = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const titan::sim::SweepCli cli = titan::sim::parse_sweep_cli(argc, argv);
  if (!cli.error.empty()) {
    std::cerr << "bench_table2: " << cli.error << "\n";
    return 2;
  }
  if (!cli.engine.empty()) {
    std::cerr << "bench_table2: --engine only applies to co-simulating "
                 "benches (this one replays the trace-driven overhead "
                 "model)\n";
    return 2;
  }

  const titan::api::OverheadGrid grid = titan::api::OverheadGrid::table2();

  titan::api::SweepPlan<Row> plan;
  plan.header = grid.header();
  plan.point = [&grid](std::size_t index) {
    const BenchmarkStats& stats = grid.row(index);
    const auto params = titan::workloads::calibrate(stats);
    const titan::baselines::TraceStats trace_stats{
        static_cast<std::uint64_t>(stats.cycles),
        static_cast<std::uint64_t>(stats.cf_count)};
    titan::baselines::DexieModel dexie;
    titan::baselines::FixerModel fixer;
    Row row;
    row.stats = &stats;
    row.dexie_model = dexie.slowdown_percent(trace_stats);
    row.fixer_model = fixer.slowdown_percent(trace_stats);
    row.opt = grid.slowdown(index, params, titan::workloads::kOptimizedLatency);
    row.poll = grid.slowdown(index, params, titan::workloads::kPollingLatency);
    row.irq = grid.slowdown(index, params, titan::workloads::kIrqLatency);
    return row;
  };
  plan.emit = [](titan::sim::JsonWriter& json, const Row& row, std::size_t) {
    json.begin_object()
        .field("name", row.stats->name)
        .field("dexie_model", row.dexie_model)
        .field("fixer_model", row.fixer_model)
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

  std::cout << "TABLE II — Runtime slowdown comparison with DExIE [8] and "
               "FIXER [6]  (CFI queue depth 1, slowdown %)\n\n";
  std::cout << std::left << std::setw(14) << "benchmark" << std::right
            << std::setw(10) << "[8] rep." << std::setw(10) << "[8] model"
            << std::setw(10) << "[6] rep." << std::setw(10) << "[6] model"
            << std::setw(8) << "Opt." << std::setw(8) << "Poll."
            << std::setw(8) << "IRQ" << "\n";

  for (const Row& row : outcome.rows) {
    const BenchmarkStats& stats = *row.stats;
    const auto dexie_rep = titan::baselines::dexie_reported(stats.name);
    const auto fixer_rep = titan::baselines::fixer_reported(stats.name);
    std::cout << std::left << std::setw(14) << stats.name << std::right
              << std::setw(10) << fmt_opt(dexie_rep) << std::setw(10)
              << (dexie_rep ? fmt(row.dexie_model) : "n.a.") << std::setw(10)
              << fmt_opt(fixer_rep) << std::setw(10)
              << (fixer_rep ? fmt(row.fixer_model) : "n.a.") << std::setw(8)
              << fmt(row.opt) << std::setw(8) << fmt(row.poll) << std::setw(8)
              << fmt(row.irq) << "\n";
  }

  std::cout << "\n  Paper values for TitanCFI columns (Opt/Poll/IRQ):\n";
  for (const Row& row : outcome.rows) {
    const BenchmarkStats& stats = *row.stats;
    const auto show = [](double value) {
      return value <= -2 ? std::string("n.a.")
             : value < 0 ? std::string("-")
                         : fmt(value);
    };
    std::cout << "    " << std::left << std::setw(14) << stats.name
              << show(stats.paper2_opt) << " / " << show(stats.paper2_poll)
              << " / " << show(stats.paper2_irq) << "\n";
  }
  std::cout << "\n  Shape: TitanCFI beats DExIE's ~47-48% on 3 of 4 EmBench "
               "rows; dhrystone remains the outlier, as in the paper.\n";
  std::cout << "  Sweep: " << outcome.rows.size() << " points on "
            << outcome.threads << " thread(s) in " << std::fixed
            << std::setprecision(2) << outcome.seconds << "s\n";
  return 0;
}
