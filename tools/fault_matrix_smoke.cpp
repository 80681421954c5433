// fault_matrix_smoke — replay the registry's fault-injection matrix and
// prove the resilience machinery is deterministic and engine-invariant.
//
//   fault_matrix_smoke                     # both engines, field-wise diff
//   fault_matrix_smoke --engine=lockstep --json=A.json
//   fault_matrix_smoke --engine=event    --json=B.json
//   fault_matrix_smoke --write_checkpoints=PATH   # warm-up bundle, exit
//   fault_matrix_smoke --engine=... --warm_start=PATH
//
// A checkpoint bundle is engine-invariant: the same file warm-starts the
// matrix under either scheduler (or both at once in default mode), which is
// what lets CI byte-diff a warm event-driven document against a cold
// lock-step witness.
//
// Default mode runs every scenario tagged "fault_matrix" under BOTH
// co-simulation engines and compares the full RunReport (operator==, which
// covers every counter including the resilience block) — the fault-plan
// extension of the engine-equivalence witness.  Exit status is non-zero on
// any mismatch.
//
// Single-engine mode writes the canonical full sweep document instead, so
// CI can byte-diff a lock-step document against an event-driven one (and an
// event-driven rerun against itself for replay determinism).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/checkpoint.hpp"
#include "api/registry.hpp"
#include "api/run.hpp"
#include "api/sweep.hpp"
#include "sim/sweep.hpp"

namespace {

int usage() {
  std::cerr << "usage: fault_matrix_smoke [--engine=lockstep|event] "
               "[--json=PATH] [--warm_start=PATH | --write_checkpoints=PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using titan::api::Engine;
  bool engine_given = false;
  Engine engine = Engine::kEventDriven;
  std::string json_path;
  titan::sim::SweepCli checkpoint_cli;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--engine=", 9) == 0) {
      const std::string value = arg + 9;
      if (value == "lockstep") {
        engine = Engine::kLockStep;
      } else if (value == "event") {
        engine = Engine::kEventDriven;
      } else {
        std::cerr << "fault_matrix_smoke: unknown engine '" << value << "'\n";
        return usage();
      }
      engine_given = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--warm_start=", 13) == 0 &&
               arg[13] != '\0') {
      checkpoint_cli.warm_start_path = arg + 13;
    } else if (std::strncmp(arg, "--write_checkpoints=", 20) == 0 &&
               arg[20] != '\0') {
      checkpoint_cli.write_checkpoints_path = arg + 20;
    } else {
      std::cerr << "fault_matrix_smoke: unknown flag '" << arg << "'\n";
      return usage();
    }
  }
  if (!checkpoint_cli.warm_start_path.empty() &&
      !checkpoint_cli.write_checkpoints_path.empty()) {
    std::cerr << "fault_matrix_smoke: --warm_start and --write_checkpoints "
                 "are mutually exclusive\n";
    return usage();
  }

  titan::api::ScenarioSet matrix =
      titan::api::ScenarioRegistry::global().query("fault_matrix",
                                                   "fault_matrix");
  if (matrix.empty()) {
    std::cerr << "fault_matrix_smoke: registry has no fault_matrix tag\n";
    return 1;
  }
  // Bundles are captured engine-agnostic and fork under whichever scheduler
  // each run selects below.
  const int checkpoint_rc = titan::api::handle_checkpoint_cli(
      matrix, checkpoint_cli, "fault_matrix_smoke");
  if (checkpoint_rc >= 0) {
    return checkpoint_rc;
  }

  if (engine_given) {
    // Single-engine document mode (CI byte-diffs two of these).
    const titan::api::SweepPlan<titan::api::RunReport> plan =
        titan::api::scenario_sweep_plan(matrix.with_engine(engine));
    std::vector<titan::api::RunReport> rows;
    rows.reserve(matrix.size());
    for (std::size_t index = 0; index < matrix.size(); ++index) {
      rows.push_back(plan.point(index));
    }
    const titan::sim::RowEmitter emit_row = [&](titan::sim::JsonWriter& json,
                                                std::size_t index) {
      plan.emit(json, rows[index], index);
    };
    const std::string document =
        titan::sim::render_full_document(plan.header, emit_row);
    if (json_path.empty()) {
      std::cout << document << "\n";
    } else if (!titan::sim::write_document(json_path, document)) {
      std::cerr << "fault_matrix_smoke: cannot write " << json_path << "\n";
      return 1;
    }
    std::cerr << "fault_matrix_smoke: " << matrix.size() << " scenario(s), "
              << (engine == Engine::kLockStep ? "lock-step" : "event-driven")
              << " engine\n";
    return 0;
  }

  // Cross-engine mode: every scenario through both schedulers, field-wise.
  std::printf("%-28s %6s %4s %4s %4s %6s %9s  %s\n", "scenario", "fault",
              "inj", "det", "fn", "retry", "degraded", "engines");
  int mismatches = 0;
  for (const titan::api::Scenario& scenario : matrix) {
    const titan::api::RunReport lock_step =
        titan::api::run_scenario(scenario.with_engine(Engine::kLockStep));
    const titan::api::RunReport event_driven =
        titan::api::run_scenario(scenario.with_engine(Engine::kEventDriven));
    const bool match = lock_step == event_driven;
    mismatches += match ? 0 : 1;
    const titan::sim::ResilienceStats& res = event_driven.resilience;
    std::printf("%-28s %6s %4llu %4llu %4llu %6llu %9llu  %s\n",
                scenario.name().c_str(), event_driven.cfi_fault ? "YES" : "-",
                static_cast<unsigned long long>(res.total_injected()),
                static_cast<unsigned long long>(res.total_detected()),
                static_cast<unsigned long long>(res.false_negatives),
                static_cast<unsigned long long>(res.doorbell_retries +
                                                res.mac_retries),
                static_cast<unsigned long long>(res.degraded_cycles),
                match ? "bit-exact" : "MISMATCH");
  }
  if (mismatches != 0) {
    std::cerr << "fault_matrix_smoke: " << mismatches
              << " scenario(s) diverge between engines\n";
    return 1;
  }
  std::cerr << "fault_matrix_smoke: " << matrix.size()
            << " scenario(s) bit-exact across engines\n";
  return 0;
}
