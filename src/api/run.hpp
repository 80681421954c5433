// run_scenario(): execute a Scenario end to end and return the unified
// RunReport — a superset of cfi::SocRunResult plus the memory-system,
// decode-cache, and doorbell statistics the perf PRs added.  Every bench and
// example reads its numbers from a RunReport, and every machine-readable row
// is emitted through api::ReportSchema (api/report_schema.hpp), so the JSON
// schema of a co-simulation row has exactly one definition.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "api/scenario.hpp"
#include "sim/cancel.hpp"
#include "sim/memory.hpp"
#include "titancfi/commit_log.hpp"

namespace titan::api {

/// Why a run returned — RunStop refines cfi::StopCause with the cancel
/// token's reason, so the serving layer maps it straight onto the wire
/// error taxonomy.
enum class RunStop {
  kCompleted,         ///< Ran to completion; the report is final.
  kBudgetExceeded,    ///< RunControl::max_cycles reached.
  kDeadlineExceeded,  ///< Cancel token fired with Reason::kDeadline.
  kCancelled,         ///< Cancel token fired (shutdown / disconnect).
};

/// Unified result of one scenario co-simulation.
struct RunReport {
  std::string scenario;  ///< Scenario::name() of the run.

  // -- cfi::SocRunResult superset --------------------------------------------
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cf_logs = 0;
  std::uint64_t violations = 0;
  bool cfi_fault = false;
  std::uint64_t exit_code = 0;
  std::uint64_t queue_full_stalls = 0;
  std::uint64_t dual_cf_stalls = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
  double mean_queue_occupancy = 0.0;
  cfi::CommitLog fault_log{};  ///< Valid when cfi_fault.

  // -- Host memory-system statistics (sim::MemStats snapshot) ----------------
  sim::MemStats host_memory{};

  // -- Host decode-cache statistics ------------------------------------------
  std::uint64_t decode_hits = 0;
  std::uint64_t decode_misses = 0;

  // -- RoT-side counters ------------------------------------------------------
  std::uint64_t rot_instructions = 0;
  std::uint64_t rot_hmac_starts = 0;

  // -- Fault injection / graceful degradation --------------------------------
  /// All-zero on fault-free runs; populated from the FaultInjector pairing
  /// and the per-component degradation counters (see sim::ResilienceStats).
  sim::ResilienceStats resilience{};

  // -- Attack-corpus scoring --------------------------------------------------
  /// All-zero on benign runs; populated from the AttackTracker when the
  /// scenario carries an attacks::AttackPlan (detection yes/no, detection
  /// latency in host cycles, first-faulting CFI event ordinal, and the
  /// false-negative count — hijacked edges that retired unflagged).
  attacks::AttackStats attack{};

  /// Why the run returned.  kCompleted unless RunControl limits were set
  /// and hit.  Deliberately NOT part of the ReportSchema rendering: a run
  /// completing within its limits must render byte-identical to an
  /// unlimited run, and a stopped run's report is partial by definition.
  RunStop stop = RunStop::kCompleted;

  /// Field-wise equality (bit-exact, including the derived statistics) —
  /// what the cross-engine equivalence checks compare.
  bool operator==(const RunReport&) const = default;

  /// Doorbell amortisation achieved by the batched drain (1.0 == one
  /// doorbell per log, the paper's baseline protocol).
  [[nodiscard]] double doorbells_per_log() const {
    return cf_logs == 0 ? 0.0
                        : static_cast<double>(doorbells) /
                              static_cast<double>(cf_logs);
  }
};

/// Optional instrumentation hooks for a scenario run.
struct RunHooks {
  /// Observe every commit log the Log Writer sends (stream-identity checks).
  std::function<void(const cfi::CommitLog&)> log_capture;
  /// Called on the constructed SoC before the run (extra knobs, e.g. turning
  /// on the commit trace).
  std::function<void(cfi::SocTop&)> configure;
};

/// Cooperative lifecycle limits for one run (see sim::CancelToken and
/// cfi::SocTop::set_run_limits).  Default-constructed == no limits, and a
/// run finishing under its limits is bit-identical to a limitless run (the
/// registry-wide budget-identity gate in engine_equivalence_test).
struct RunControl {
  /// Fired externally (deadline reaper, disconnect detector, drain); the
  /// run stops at the next loop-top / quantum boundary.  May be null.
  std::shared_ptr<const sim::CancelToken> cancel;
  /// Graceful total-cycle budget (0 == unlimited).  Absolute cycle count:
  /// a warm-started run forked at cycle C >= max_cycles stops immediately.
  sim::Cycle max_cycles = 0;
  /// Event-engine quantum clamp while `cancel` is armed (0 == default).
  /// Tests shrink it to force heavy quantum splitting; services keep 0.
  sim::Cycle cancel_check_stride = 0;
};

/// Build the scenario's SoC, run to completion (or until a RunControl limit
/// stops it — check RunReport::stop), and collect the report.
[[nodiscard]] RunReport run_scenario(const Scenario& scenario,
                                     const RunHooks& hooks = {},
                                     const RunControl& control = {});

}  // namespace titan::api
