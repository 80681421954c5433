// The one typed sweep surface every bench runs through.
//
// A sweep is (identity header, point function, row emitter).  run_sweep()
// owns everything the benches used to duplicate: thread-pooling the points
// through sim::SweepRunner and rendering/writing the canonical report
// document.  A bench's main() reduces to: build a typed grid (ScenarioSet or
// OverheadGrid), parse the shared CLI, call run_sweep, and print its
// human-readable table from the returned rows.
//
// The document is byte-identical at any thread count because the header
// comes from the typed grid's deterministic serialization and the rows are
// pure functions of their grid index.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "api/registry.hpp"
#include "api/run.hpp"
#include "sim/sweep_doc.hpp"
#include "sim/sweep.hpp"

namespace titan::api {

template <typename Row>
struct SweepPlan {
  /// Report identity (ScenarioSet::header() / OverheadGrid::header()).
  sim::SweepDocHeader header;
  /// Evaluate one grid index.  Must be a pure function of the index
  /// (SweepRunner may call it from pool threads).
  std::function<Row(std::size_t)> point;
  /// Emit one rows-array element for (row, grid index).
  std::function<void(sim::JsonWriter&, const Row&, std::size_t)> emit;
};

template <typename Row>
struct SweepOutcome {
  std::vector<Row> rows;  ///< One row per grid index, in index order.
  unsigned threads = 1;
  double seconds = 0;     ///< Wall clock of the point evaluations.
};

/// Write the canonical document to `json_path` (nothing when it is empty).
/// Returns 0, or 1 after printing a write error naming the bench.
[[nodiscard]] int write_sweep_document(const sim::SweepDocHeader& header,
                                       const std::string& json_path,
                                       const sim::RowEmitter& emit_row);

/// Evaluate the plan's whole grid (thread-pooled, index-ordered) and write
/// the owed document.  Returns 0 on success.
template <typename Row>
[[nodiscard]] int run_sweep(const SweepPlan<Row>& plan,
                            const sim::SweepCli& cli,
                            SweepOutcome<Row>* outcome) {
  sim::SweepOptions options;
  options.threads = cli.threads;
  sim::SweepRunner runner(options);
  outcome->threads = runner.threads();

  const auto start = std::chrono::steady_clock::now();
  outcome->rows = runner.run<Row>(plan.header.total_points, plan.point);
  outcome->seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const sim::RowEmitter emit_row = [&plan, outcome](sim::JsonWriter& json,
                                                    std::size_t index) {
    plan.emit(json, outcome->rows[index], index);
  };
  return write_sweep_document(plan.header, cli.json_path, emit_row);
}

/// The canonical co-simulation sweep: one RunReport per scenario, emitted
/// through api::ReportSchema (all co-sim JSON rows share one schema).  The
/// set is captured by value, so the plan is self-contained.
[[nodiscard]] SweepPlan<RunReport> scenario_sweep_plan(ScenarioSet set);

}  // namespace titan::api
