// Full-system co-simulation: CVA6 host + CFI stage + CFI Mailbox + OpenTitan
// RoT running the CFI firmware (paper Fig. 1).
//
// One host clock cycle proceeds as:
//   1. the commit stage presents up to two ready scoreboard entries;
//   2. the Queue Controller filters CF entries into the CFI Queue and decides
//      how many entries actually retire (stalling on queue-full / dual-CF);
//   3. the Log Writer FSM advances (pop -> AXI beats -> doorbell -> wait ->
//      verdict), raising a CFI fault on violations;
//   4. the RoT (Ibex + firmware) runs up to the same clock; the doorbell IRQ
//      wakes it through the RoT PLIC, and its completion write is observed by
//      the Log Writer next cycle.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "cva6/core.hpp"
#include "rv/assembler.hpp"
#include "sim/cancel.hpp"
#include "sim/fault.hpp"
#include "sim/memory.hpp"
#include "sim/snapshot.hpp"
#include "soc/bus.hpp"
#include "soc/mailbox.hpp"
#include "soc/pmp.hpp"
#include "titancfi/attack_tracker.hpp"
#include "titancfi/fault_injector.hpp"
#include "titancfi/log_writer.hpp"
#include "titancfi/queue_controller.hpp"
#include "titancfi/rot_subsystem.hpp"

namespace titan::cfi {

/// Co-simulation scheduler.  Both engines produce bit-identical results
/// (every SocRunResult field, trace, and component statistic); the lock-step
/// loop survives as the equivalence witness and for debugging.
enum class Engine {
  /// Simulate every host cycle (the seed scheduler): evaluate the queue,
  /// tick the Log Writer, and run the RoT forward once per cycle.
  kLockStep,
  /// Fast-forward between CFI events: while the CFI queue is empty, the Log
  /// Writer idle, the mailbox quiet, and no CFI-relevant instruction is in
  /// the host ROB, the host retires straight-line work in one batched
  /// quantum and the RoT clock advances once per quantum.  While the host
  /// is blocked on a full queue and the writer waits on the RoT's verdict,
  /// the RoT runs to its completion write and the stalled host cycles are
  /// replayed arithmetically; the post-program drain skips the writer's
  /// verdict waits the same way.  Falls back to exact per-cycle stepping
  /// everywhere else.
  kEventDriven,
};

struct SocConfig {
  std::size_t queue_depth = 8;
  RotFabric fabric = RotFabric::kBaseline;
  cva6::Cva6Config host;
  sim::Cycle max_cycles = 2'000'000'000;
  bool trace_commits = false;  ///< Record the host commit trace.
  /// Program the host PMP so untrusted software cannot touch the CFI
  /// mailbox or the authenticated spill arena (paper Sec. VI).
  bool enable_pmp = true;
  /// Commit logs per doorbell (1 == the paper's one-at-a-time drain; match
  /// the firmware's FirmwareConfig::batch_capacity when > 1).
  unsigned drain_burst = 1;
  /// HMAC each burst with the shared device-secret slot key (burst > 1;
  /// match FirmwareConfig::batch_mac).
  bool mac_batches = true;
  /// Hysteresis drain policy: when > 1, an idle Log Writer holds off the
  /// next drain until the queue holds `drain_wait` logs or `drain_timeout`
  /// cycles elapsed since the first pending log (0 == drain immediately, the
  /// paper's behaviour).  Trades verdict latency for fewer doorbells.
  unsigned drain_wait = 0;
  sim::Cycle drain_timeout = 0;
  /// Scheduler used by run().  Purely an execution strategy: results are
  /// bit-identical either way (enforced by tests/engine_equivalence_test).
  Engine engine = Engine::kEventDriven;
  /// Deterministic fault schedule (empty == fault-free, zero overhead).
  /// Ordinal-indexed triggers keep both engines bit-exact under any plan.
  sim::FaultPlan faults;
  /// Response when a commit log cannot enter the CFI Queue (see
  /// cfi::OverflowPolicy; kBackPressure is the paper's lossless stall).
  OverflowPolicy overflow_policy = OverflowPolicy::kBackPressure;
  /// Doorbell watchdog for the Log Writer (0 == wait forever, the paper's
  /// behaviour; > 0 needs firmware built with retry_handshake).
  sim::Cycle doorbell_timeout = 0;
  unsigned doorbell_max_retries = 3;
  /// RoT answers MAC mismatches with a retransmission request instead of a
  /// violation (needs firmware built with mac_rerequest).
  bool mac_rerequest = false;
  unsigned mac_max_retries = 3;
  /// Attack-corpus scoring: PCs of hijacked control-flow instructions (from
  /// attacks::generate, sorted).  Empty == no tracking, zero overhead.
  std::vector<std::uint64_t> attack_edges;
  /// Legitimate indirect-branch targets provisioned into the RoT jump table
  /// at `jump_table_base` before boot (the forward-edge policy treats an
  /// empty table as inert, so enforcement needs real contents).  Empty ==
  /// nothing provisioned.
  std::vector<std::uint32_t> jump_table;
  std::uint64_t jump_table_base = 0;
};

/// Why run() returned.  kCompleted is the only cause that drains the CFI
/// pipeline; budget/cancel stops return straight from the loop-top boundary
/// with whatever state the machine reached (cycles-completed-so-far).
enum class StopCause {
  kCompleted,  ///< Program done / CFI fault — today's behaviour.
  kBudget,     ///< Graceful cycle budget reached (set_run_limits).
  kCancelled,  ///< The cancel token fired (deadline / shutdown / disconnect).
};

struct SocRunResult {
  sim::Cycle cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cf_logs = 0;
  std::uint64_t violations = 0;
  bool cfi_fault = false;
  std::uint64_t exit_code = 0;
  std::uint64_t queue_full_stalls = 0;
  std::uint64_t dual_cf_stalls = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t batches = 0;        ///< Doorbell-delimited burst transfers.
  std::size_t max_batch = 0;        ///< Largest burst drained from the queue.
  double mean_queue_occupancy = 0.0;
  /// The log that triggered the violation (valid when cfi_fault).
  CommitLog fault_log{};
  /// Fault-injection outcome (all-zero on fault-free runs).
  sim::ResilienceStats resilience{};
  /// Attack-corpus outcome (all-zero when no attack edges were configured).
  attacks::AttackStats attack{};
  /// Why the run returned (kCompleted unless limits were set and hit).
  StopCause stop = StopCause::kCompleted;
};

class SocTop {
 public:
  /// `host_program`: RV64 image loaded into host memory; execution starts at
  /// its base.  `firmware`: the RoT ROM (see ibex::FirmwareRom), shared
  /// read-only with every other SoC built from it.
  SocTop(const SocConfig& config, const rv::Image& host_program,
         std::shared_ptr<const ibex::FirmwareRom> firmware);

  /// Run to completion (host ECALL), CFI fault, or the cycle guard, using
  /// the configured engine (bit-identical results either way).
  SocRunResult run();

  /// Override the configured engine before run() (e.g. to pit the two
  /// schedulers against each other on the same scenario).
  void set_engine(Engine engine) { config_.engine = engine; }
  [[nodiscard]] Engine engine() const { return config_.engine; }

  /// Cooperative run limits, checked only at loop-top / quantum boundaries
  /// so the simulated machine never observes them:
  ///  * `cancel` (may be null): when it fires, run() returns within a
  ///    bounded number of cycles (the event engine clamps fast-forward
  ///    quanta to `cancel_stride` while a token is armed; 0 picks the
  ///    default stride) with SocRunResult::stop == kCancelled;
  ///  * `budget` (0 == unlimited): run() stops at the first loop-top cycle
  ///    >= budget with stop == kBudget — a *graceful* sibling of
  ///    SocConfig::max_cycles, which throws.
  /// A run finishing under both limits is bit-identical to an unlimited
  /// run: the post-program drain is exempt from the budget (it is part of
  /// completing), and quantum splitting is result-exact (the checkpoint
  /// machinery already relies on that).
  void set_run_limits(const sim::CancelToken* cancel, sim::Cycle budget,
                      sim::Cycle cancel_stride = 0);

  [[nodiscard]] cva6::Cva6Core& host() { return *host_core_; }
  [[nodiscard]] RotSubsystem& rot() { return *rot_; }
  [[nodiscard]] QueueController& queue_controller() { return queue_controller_; }
  [[nodiscard]] soc::Mailbox& mailbox() { return mailbox_; }
  [[nodiscard]] sim::Memory& host_memory() { return host_memory_; }
  [[nodiscard]] soc::Crossbar& axi() { return axi_; }
  [[nodiscard]] LogWriter& log_writer() { return *log_writer_; }
  [[nodiscard]] const SocConfig& config() const { return config_; }

  /// Host cycles this SoC's main loop has stepped one at a time, i.e. not
  /// skipped by a fast-forward window; on lock-step, every cycle it ran.
  /// An execution statistic, not state: absent from reports and snapshots.
  [[nodiscard]] sim::Cycle stepped_cycles() const { return stepped_cycles_; }
  /// Post-program drain iterations stepped one at a time, i.e. not skipped
  /// by a verdict-wait window; on lock-step, every drain cycle.  Like
  /// stepped_cycles(), absent from reports and snapshots.
  [[nodiscard]] sim::Cycle stepped_drain_cycles() const {
    return stepped_drain_cycles_;
  }
  /// The one-entry MAC memo both ends of an authenticated burst share: the
  /// RoT's HMAC start re-MACs the bytes the Log Writer just MAC'd.  Its hit
  /// count is host-side only (absent from reports and snapshots); a
  /// restored SoC starts with the memo empty.
  [[nodiscard]] const crypto::MacMemo& mac_memo() const { return mac_memo_; }

  /// The event engine's second fast-forward predicate, the back-pressure
  /// window, at loop-top cycle `cycle`: the queue is full under
  /// kBackPressure with no forced-overflow burst, the host's ROB head is a
  /// ready CFI-relevant entry with issue idle, and the Log Writer waits on a
  /// verdict.  Only the RoT's completion write (or the watchdog) can end
  /// it; only the RoT reads the doorbell.
  [[nodiscard]] bool stalled_on_rot(sim::Cycle cycle) const;

  /// Freeze the full deterministic SoC state at loop-top cycle `cycle`:
  /// host DRAM and RoT SRAM as CoW memory images plus the flat
  /// component stream (host core, queue controller, log writer, mailbox,
  /// AXI fabric, fault injector, RoT subsystem).  host_now_ is dead at every
  /// loop-top boundary (reassigned before any use in step_cycle and
  /// drain_pending) and, with the stepped_cycles() and
  /// stepped_drain_cycles() statistics, one of the engine-divergent members,
  /// so none is serialized.  The caller seals the snapshot.
  void capture(sim::Snapshot& snapshot, sim::Cycle cycle) const;

  /// Rebuild the captured state.  The SocConfig and program images must match
  /// the captured run (enforced upstream via the Scenario string embedded in
  /// the snapshot); a structural mismatch the stream can detect — fault plan
  /// presence, section-tag skew, trailing bytes — throws sim::SnapshotError.
  /// A subsequent run() continues from the checkpoint cycle.
  void restore(const sim::Snapshot& snapshot);

  /// Arrange for `callback` to fire with a fresh capture at the first
  /// loop-top cycle >= `at`.  Both engines fire at the identical cycle: the
  /// lock-step loop visits every cycle, and the event engine clamps its
  /// fast-forward quanta to the pending checkpoint cycle.  If the main loop
  /// exits first (program done / CFI fault), the callback fires once at loop
  /// exit instead.  With `stop_after`, run() returns straight after the
  /// capture without draining (that partial result is meaningless; callers
  /// wanting a checkpoint ignore it).  One-shot: firing clears the trigger.
  void set_checkpoint(sim::Cycle at,
                      std::function<void(const sim::Snapshot&)> callback,
                      bool stop_after = false);

 private:
  SocRunResult run_lock_step();
  SocRunResult run_event_driven();
  /// One exact simulated cycle (the lock-step loop body); advances `cycle`.
  void step_cycle(sim::Cycle& cycle);
  /// Post-program drain: tick the writer/RoT until the CFI pipeline empties.
  /// The event engine skips the writer's verdict waits (run_rot_to_verdict).
  void drain_pending(sim::Cycle& cycle);
  [[nodiscard]] SocRunResult collect_result() const;
  /// Loop-top limit check: budget first (deterministic), then the token.
  /// Sets stop_cause_ and returns true when run() should return now.
  [[nodiscard]] bool stop_requested(sim::Cycle cycle);
  /// Fire the pending checkpoint if due (`cycle` reached it, or `force` at
  /// main-loop exit); returns true when run() should stop (stop_after).
  bool take_checkpoint(sim::Cycle cycle, bool force);
  /// First fast-forward predicate: no component can generate a CFI event
  /// before new host commit input — empty CFI queue, idle Log Writer, quiet
  /// mailbox, and no CFI-relevant instruction in the host ROB.  The engine
  /// then retires straight-line host work in one quantum
  /// (Cva6Core::run_until_event) and replays the skipped filter scans and
  /// empty-queue samples (QueueController::note_bypassed_cycles).
  [[nodiscard]] bool quiescent() const;
  /// End (exclusive) of any fast-forward window starting at `cycle`: the
  /// cycle guard, a pending checkpoint, the budget, and the cancel stride.
  [[nodiscard]] sim::Cycle window_limit(sim::Cycle cycle) const;
  /// Run one back-pressure window from `cycle`: clamp it to `limit`, the
  /// watchdog deadline and the next scheduled queue-overflow fault, advance
  /// the RoT to the cycle the writer would first see its completion, and
  /// replay each skipped cycle's stall (host clock and stall count, filter
  /// scan and select, overflow ordinal, full stall, occupancy sample, writer
  /// wait cycle).  Returns the host cycles skipped (0 when the window is
  /// empty and the cycle must be stepped).
  sim::Cycle skip_stalled_cycles(sim::Cycle cycle, sim::Cycle limit);
  /// Run the RoT through a verdict wait of host cycles [cycle, last]: to
  /// the cycle the writer would first see its completion, or to `last` if
  /// the RoT does not complete before.  Returns the host cycles the wait
  /// covered, for the caller to replay.
  inline sim::Cycle run_rot_to_verdict(sim::Cycle cycle, sim::Cycle last);

  SocConfig config_;
  sim::Memory host_memory_;
  soc::MemoryTarget host_memory_target_{host_memory_};
  soc::Crossbar axi_{"axi", 2};
  soc::Mailbox mailbox_;
  QueueController queue_controller_;
  std::unique_ptr<cva6::Cva6Core> host_core_;
  std::unique_ptr<RotSubsystem> rot_;
  std::unique_ptr<LogWriter> log_writer_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<AttackTracker> tracker_;
  /// Host cycle the components are currently stepping (fault timestamping).
  /// Set only by stepped cycles, where both engines agree on it.  Neither
  /// fast-forward window reads it: a quiescent quantum fires no fault site
  /// and a back-pressure window is clamped to end before the next scheduled
  /// queue-overflow fault.
  sim::Cycle host_now_ = 0;
  /// Host cycles run() stepped one at a time (see stepped_cycles()).
  sim::Cycle stepped_cycles_ = 0;
  CommitLog fault_log_{};
  bool fault_seen_ = false;
  soc::Pmp pmp_;
  /// Pending one-shot checkpoint trigger (see set_checkpoint).
  std::optional<sim::Cycle> checkpoint_at_;
  std::function<void(const sim::Snapshot&)> checkpoint_cb_;
  bool checkpoint_stop_ = false;
  /// Cycle run() starts from — zero on a cold run, the checkpoint cycle
  /// after restore().
  sim::Cycle start_cycle_ = 0;
  /// Cooperative run limits (see set_run_limits).
  const sim::CancelToken* cancel_ = nullptr;
  sim::Cycle budget_ = 0;
  sim::Cycle cancel_stride_ = 0;
  StopCause stop_cause_ = StopCause::kCompleted;
  /// Drain iterations run() stepped one at a time (see
  /// stepped_drain_cycles()).
  sim::Cycle stepped_drain_cycles_ = 0;
  /// Shared by the Log Writer and the RoT's HMAC block (see mac_memo()).
  crypto::MacMemo mac_memo_;
};

}  // namespace titan::cfi
