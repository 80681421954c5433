#include "api/run.hpp"

#include <array>

namespace titan::api {

RunReport run_scenario(const Scenario& scenario, const RunHooks& hooks,
                       const RunControl& control) {
  const std::unique_ptr<cfi::SocTop> soc = scenario.make_soc();
  if (hooks.log_capture) {
    soc->log_writer().set_log_capture(hooks.log_capture);
  }
  if (control.cancel != nullptr || control.max_cycles != 0) {
    soc->set_run_limits(control.cancel.get(), control.max_cycles,
                        control.cancel_check_stride);
  }
  if (hooks.configure) {
    hooks.configure(*soc);
  }
  if (const std::shared_ptr<const sim::Snapshot>& snapshot =
          scenario.warm_start()) {
    // A checkpoint is only valid for the exact scenario it was captured
    // from: every config knob, the workload bytes, and the firmware shape
    // are baked into the frozen state.  The embedded identity string makes
    // a mismatch fail loudly instead of silently diverging.
    if (snapshot->scenario != scenario.serialize()) {
      throw ScenarioError(
          "run_scenario: warm-start checkpoint was captured for a different "
          "scenario (" +
          snapshot->scenario + " vs " + scenario.serialize() + ")");
    }
    // Restore AFTER hooks.configure: capture_checkpoint applied the same
    // hooks before its prefix run, and the checkpointed state (e.g. whether
    // the commit trace is on) must win over a fresh configure.
    soc->restore(*snapshot);
    // Replay the prefix's popped log stream so a warm observer sees the
    // identical sequence a cold run's observer would.
    if (hooks.log_capture) {
      std::array<std::uint64_t, cfi::CommitLog::kBeats> beats{};
      for (std::size_t word = 0;
           word + cfi::CommitLog::kBeats <= snapshot->log_words.size();
           word += cfi::CommitLog::kBeats) {
        for (std::size_t beat = 0; beat < beats.size(); ++beat) {
          beats[beat] = snapshot->log_words[word + beat];
        }
        hooks.log_capture(cfi::CommitLog::unpack(beats));
      }
    }
  }
  const cfi::SocRunResult result = soc->run();

  RunReport report;
  report.scenario = scenario.name();
  report.cycles = result.cycles;
  report.instructions = result.instructions;
  report.cf_logs = result.cf_logs;
  report.violations = result.violations;
  report.cfi_fault = result.cfi_fault;
  report.exit_code = result.exit_code;
  report.queue_full_stalls = result.queue_full_stalls;
  report.dual_cf_stalls = result.dual_cf_stalls;
  report.doorbells = result.doorbells;
  report.batches = result.batches;
  report.max_batch = result.max_batch;
  report.mean_queue_occupancy = result.mean_queue_occupancy;
  report.fault_log = result.fault_log;
  report.resilience = result.resilience;
  report.attack = result.attack;
  report.host_memory = soc->host_memory().stats();
  report.decode_hits = soc->host().decode_cache().hits();
  report.decode_misses = soc->host().decode_cache().misses();
  report.rot_instructions = soc->rot().core().instret();
  report.rot_hmac_starts = soc->rot().hmac().starts();
  switch (result.stop) {
    case cfi::StopCause::kCompleted:
      report.stop = RunStop::kCompleted;
      break;
    case cfi::StopCause::kBudget:
      report.stop = RunStop::kBudgetExceeded;
      break;
    case cfi::StopCause::kCancelled:
      report.stop = control.cancel != nullptr &&
                            control.cancel->reason() ==
                                sim::CancelToken::Reason::kDeadline
                        ? RunStop::kDeadlineExceeded
                        : RunStop::kCancelled;
      break;
  }
  return report;
}

}  // namespace titan::api
