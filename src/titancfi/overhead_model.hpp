// Trace-driven CFI overhead model (paper Sec. V-C).
//
// "Slowdown is computed by simulating the RTL of the reference SoC and
//  extracting the cycle-accurate execution trace ... Then, we feed the
//  obtained traces to a trace-driven model which emulates the latency
//  required for CFI enforcement."
//
// The model replays the commit cycles of CFI-relevant instructions through
// the queue/log-writer/RoT service chain:
//
//   * each CF instruction, at its (stall-shifted) commit cycle, needs a free
//     CFI Queue slot; when the queue holds `queue_depth` unpopped logs the
//     commit stage stalls until the Log Writer pops the oldest one;
//   * the queue has a single write port, so two CF commits can never land in
//     the same cycle (second one slips by >= 1 cycle, Sec. IV-B2);
//   * the service chain is sequential: pop -> transport (mailbox beats) ->
//     RoT check; the next pop starts only after the verdict is read back
//     (Sec. IV-B3), so per-log service time = transport + check latency.
//
// Every commit stall shifts the whole downstream trace, which is exactly
// what inhibiting the commit stage does to an in-order core.
//
// ServiceChain is the replay itself, one log at a time, so a caller can feed
// a trace it never materialises and stop once the answer is decided.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cva6/scoreboard.hpp"
#include "sim/types.hpp"

namespace titan::cfi {

using sim::Cycle;

struct OverheadConfig {
  std::size_t queue_depth = 8;
  /// RoT firmware check latency per control-flow operation (paper Sec. V-C:
  /// 267 = IRQ firmware, 112 = Polling, 73 = Optimized RoT).
  std::uint32_t check_latency = 73;
  /// Fixed hardware transport cost per log: queue pop + 4 data beats +
  /// doorbell + result read on the AXI fabric.
  std::uint32_t transport_cycles = 7;
  /// When true, the run ends only after the last pending check completes
  /// (synchronous semantics); the paper's numbers are commit-side, so the
  /// default matches that.
  bool drain_at_end = false;
};

struct OverheadResult {
  Cycle baseline_cycles = 0;
  Cycle cfi_cycles = 0;
  std::uint64_t cf_count = 0;
  std::uint64_t stall_events = 0;    ///< CF commits that had to wait.
  Cycle stall_cycles = 0;            ///< Total commit-shift introduced.

  /// Percent slowdown relative to the baseline run.
  [[nodiscard]] double slowdown_percent() const;
};

/// Incremental replay of CF commit cycles (ascending, duplicates allowed —
/// dual commit) against the CFI service chain.  The pop times of the last
/// `queue_depth` logs live in a fixed ring.
class ServiceChain {
 public:
  /// Throws std::invalid_argument when `config.queue_depth` is 0.
  explicit ServiceChain(const OverheadConfig& config);

  void push(Cycle commit);

  /// Commit-stage shift accumulated so far; never shrinks.
  [[nodiscard]] Cycle delay() const { return delay_; }

  /// Lower bound on the final delay() when `remaining` more logs follow and
  /// none of them commits after `last_commit`.  Pops are sequential, and
  /// the last log cannot enqueue before the log `queue_depth` places ahead
  /// of it pops, which is at least (remaining - depth) services from now.
  [[nodiscard]] Cycle delay_floor(std::uint64_t remaining,
                                  Cycle last_commit) const;

  [[nodiscard]] OverheadResult finish(Cycle baseline_total) const;

 private:
  std::vector<Cycle> pop_times_;  // Ring; pop_times_[slot_] is the oldest.
  std::size_t slot_ = 0;
  std::uint64_t service_;
  bool drain_at_end_;
  std::uint64_t count_ = 0;
  std::uint64_t stall_events_ = 0;
  Cycle delay_ = 0;        // Accumulated commit-stage shift.
  Cycle server_free_ = 0;  // When the log-writer/RoT chain goes idle.
  Cycle last_pop_ = 0;
  Cycle prev_arrival_ = 0;
};

/// Smallest commit-stage shift whose slowdown_percent() over
/// `baseline_total` exceeds `target`; the maximum Cycle when none does.
[[nodiscard]] Cycle exceeding_delay(Cycle baseline_total, double target);

/// Replay a list of CF commit cycles (sorted, duplicates allowed — dual
/// commit) against the CFI service chain.
[[nodiscard]] inline OverheadResult simulate_cf_cycles(
    std::span<const Cycle> cf_commit_cycles, Cycle baseline_total,
    const OverheadConfig& config) {
  ServiceChain chain(config);
  for (const Cycle commit : cf_commit_cycles) {
    chain.push(commit);
  }
  return chain.finish(baseline_total);
}

/// Convenience: extract the CFI-relevant commits from a full trace.
[[nodiscard]] OverheadResult simulate_trace(
    const std::vector<cva6::CommitRecord>& trace, Cycle baseline_total,
    const OverheadConfig& config);

}  // namespace titan::cfi
