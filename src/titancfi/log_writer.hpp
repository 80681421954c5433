// CFI Log Writer FSM (paper Sec. IV-B3), extended with burst drains.
//
// "The CFI Log Writer module implements a Finite State Machine which pops
//  commit logs from [the] CFI Queue, and writes them to the CFI Mailbox
//  through the SoC interconnect. ... the Log Writer retrieves a commit log
//  from the queue, divides it into data chunks of equal size, matching the
//  interconnect data bus, which is 64 bits in our case, and initiates AXI
//  transactions to transmit the commit log to the CFI Mailbox. The final AXI
//  transaction sets the doorbell interrupt register and transitions the FSM
//  into a waiting state ... Once the completion signal is received, the FSM
//  reads the result of the CFI enforcement check from the CFI Mailbox and
//  triggers an exception if any control flow violation is detected."
//
// Burst mode (config.burst > 1): one doorbell carries up to `burst` commit
// logs.  The FSM drains whatever the CFI Queue holds (capped at the burst
// size) into the mailbox batch slots, writes the batch count — and, when
// batch authentication is on, an HMAC over the whole burst computed through
// the precomputed crypto::HmacKey midstates — then rings a single doorbell.
// The RoT answers with one verdict per burst (violating slot index in the
// result register bits [63:1]), so doorbells, IRQ entries, and verdict
// round-trips are amortised over the burst while the per-beat transport
// cost stays identical.  With config.burst == 1 the write sequence, timing,
// and mailbox footprint are exactly the paper's one-at-a-time FSM, which
// keeps Table I/II reproductions honest.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "crypto/hmac.hpp"
#include "sim/types.hpp"
#include "soc/bus.hpp"
#include "soc/mailbox.hpp"
#include "soc/memmap.hpp"
#include "titancfi/queue_controller.hpp"

namespace titan::cfi {

using sim::Cycle;

struct LogWriterConfig {
  /// Max commit logs transferred per doorbell.  1 == paper behaviour.
  unsigned burst = 1;
  /// Authenticate each burst with an HMAC over the packed logs (burst mode
  /// only).  The key comes from the shared device-secret slot derivation, so
  /// the RoT firmware can verify it on its HMAC accelerator.
  bool mac_batches = false;
  std::uint64_t device_secret = 0;
  std::uint32_t mac_key_sel = 1;
  /// Hysteresis drain policy (wait-for-k-or-timeout): when > 1, an idle FSM
  /// defers the next drain until the CFI Queue holds `drain_wait` logs or
  /// `drain_timeout` cycles have passed since it first saw a pending log —
  /// fuller bursts, fewer doorbells, bounded added verdict latency.  0 or 1
  /// == drain as soon as anything is queued (paper behaviour).  Must be
  /// <= burst (a deeper threshold could never fill one transfer).
  unsigned drain_wait = 0;
  Cycle drain_timeout = 0;
  /// Doorbell watchdog (degradation machinery, this repo): when > 0, a
  /// transfer that sees no completion within `doorbell_timeout` cycles of
  /// ringing re-rings the doorbell, doubling the window each time
  /// (exponential backoff), up to `doorbell_max_retries` re-rings; an
  /// exhausted budget is a fail-closed CFI fault.  0 == wait forever
  /// (paper behaviour).  Requires burst > 1: the retry protocol leans on the
  /// idempotent BATCH_COUNT handshake (firmware zeroes the count once
  /// serviced, so a re-rung doorbell after a slow-but-successful check hits
  /// the spurious-doorbell path instead of re-running the policy), which the
  /// legacy single-log register file does not have.
  Cycle doorbell_timeout = 0;
  unsigned doorbell_max_retries = 3;
  /// RoT-side MAC-failure re-request: instead of flagging a violation on a
  /// batch-MAC mismatch, the firmware answers the re-request verdict and the
  /// writer retransmits the burst (the queue popped nothing new, so the
  /// stream is unchanged), up to `mac_max_retries` times; exhausting the
  /// budget is a fail-closed fault.  Requires mac_batches.
  bool mac_rerequest = false;
  unsigned mac_max_retries = 3;
};

/// Verdict register values beyond pass (0) and violation (bit 0 + slot index
/// in bits [63:1]): the MAC re-request sentinel has bit 1 set and bit 0
/// clear, so violation decoding is untouched.
inline constexpr std::uint64_t kVerdictMacRerequest = 2;

class LogWriter {
 public:
  enum class State {
    kIdle,
    kWriteBeats,
    kRingDoorbell,
    kWaitCompletion,
    kReadResult,
    kFault,
  };

  using FaultHook = std::function<void(const CommitLog&)>;
  /// Observation hook: every log the writer pops, in pop (program) order.
  /// Used by tests to prove batched and single drains check the identical
  /// authenticated log stream.
  using LogHook = std::function<void(const CommitLog&)>;

  /// `axi`: host-domain fabric the writer masters (paper: standard bus
  /// interconnect, no custom side channel).  `mailbox`: the CFI Mailbox.
  LogWriter(QueueController& controller, soc::Crossbar& axi,
            soc::Mailbox& mailbox, FaultHook on_fault,
            LogWriterConfig config = {});

  /// Advance the FSM to `now` (call once per core cycle).
  void tick(Cycle now);

  void set_log_capture(LogHook hook) { on_log_ = std::move(hook); }
  /// Compute burst MACs through `memo`, which the RoT's HMAC block shares.
  void set_mac_memo(crypto::MacMemo* memo) { memo_ = memo; }
  /// Fault-injection seam (duplicate doorbells, MAC bit corruption) and the
  /// detection side of the doorbell-drop / RoT-stall sites.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  /// Attack-corpus scoring seam: verdict outcomes (pass clears the batch, a
  /// violation flags the named slot and clears the slots before it) feed the
  /// tracker's detection-latency / false-negative accounting.  MAC
  /// re-requests are not verdicts — the batch is retransmitted unreported.
  void set_attack_tracker(AttackTracker* tracker) { tracker_ = tracker; }

  [[nodiscard]] State state() const { return state_; }

  /// True when tick(now) can only count a wait cycle: the doorbell is rung,
  /// the bus is free, and no completion has arrived.  The RoT's completion
  /// write or the watchdog deadline ends this.
  [[nodiscard]] bool awaiting_verdict(Cycle now) const {
    return state_ == State::kWaitCompletion && now >= busy_until_ &&
           !mailbox_.completion_pending();
  }
  /// First cycle at which the doorbell watchdog acts on the current wait
  /// (UINT64_MAX without a watchdog).
  [[nodiscard]] Cycle watchdog_deadline() const {
    return config_.doorbell_timeout > 0
               ? wait_started_ + retry_window_
               : std::numeric_limits<Cycle>::max();
  }
  /// Event-engine replay of `cycles` skipped ticks while awaiting_verdict().
  void note_waited_cycles(std::uint64_t cycles) { wait_cycles_ += cycles; }

  [[nodiscard]] const LogWriterConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t logs_sent() const { return logs_sent_; }
  /// Doorbell-delimited transfers (== logs_sent() when burst is 1).
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  /// Cycles spent in kWaitCompletion (RoT check latency as seen by HW).
  [[nodiscard]] std::uint64_t wait_cycles() const { return wait_cycles_; }
  /// Watchdog re-rings of the doorbell (exponential backoff).
  [[nodiscard]] std::uint64_t doorbell_retries() const {
    return doorbell_retries_;
  }
  /// Burst retransmissions triggered by the RoT's MAC re-request verdict.
  [[nodiscard]] std::uint64_t mac_retries() const { return mac_retries_; }
  /// Completions consumed while idle (late answers to retried doorbells).
  [[nodiscard]] std::uint64_t spurious_completions() const {
    return spurious_completions_;
  }
  /// Cycles accumulated in timed-out doorbell wait windows.
  [[nodiscard]] std::uint64_t degraded_cycles() const {
    return degraded_cycles_;
  }

  /// Checkpoint support.  The in-flight transfer is serialized verbatim —
  /// batch logs AND the already-materialised beat write list — so a restore
  /// mid-kWriteBeats resumes the exact remaining MMIO writes and never
  /// re-runs begin_batch (which fires the kMacCorrupt injection seam and
  /// would double-advance the fault ordinals).  `packed_` is begin_batch
  /// scratch and `mac_key_` is config-derived; neither is serialized.
  void save_state(sim::SnapshotWriter& writer) const;
  void load_state(sim::SnapshotReader& reader);

 private:
  void begin_batch(Cycle now, std::size_t count);
  void ring_doorbell_write(Cycle now);
  void enter_wait(Cycle now);

  QueueController& controller_;
  soc::Crossbar& axi_;
  soc::Mailbox& mailbox_;
  FaultHook on_fault_;
  LogHook on_log_;
  LogWriterConfig config_;
  /// Engaged only when mac_batches: midstates precomputed once, and any
  /// accidental use without MAC mode is a hard error, not a zero-key MAC.
  std::optional<crypto::HmacKey> mac_key_;

  State state_ = State::kIdle;
  std::vector<CommitLog> batch_;
  /// Pending MMIO writes for the current transfer (beat address/value pairs;
  /// slot beats, then batch count, then MAC words in burst mode).
  struct PendingWrite {
    soc::Addr addr;
    std::uint64_t value;
  };
  /// Reused across batches (reserved once at construction, cleared per
  /// batch): the drain runs once per doorbell on the hot path and must not
  /// churn allocations.
  std::vector<PendingWrite> writes_;
  crypto::MacMemo* memo_ = nullptr;
  /// Packed little-endian log bytes for the burst MAC: sized once for a
  /// full burst in MAC mode (empty otherwise), written by index.
  std::vector<std::uint8_t> packed_;
  std::size_t write_index_ = 0;
  Cycle busy_until_ = 0;
  /// Cycle the idle FSM first observed the currently-pending logs (engaged
  /// only under the hysteresis policy; reset on every drain).
  std::optional<Cycle> pending_since_;
  std::uint64_t logs_sent_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t wait_cycles_ = 0;

  // ---- Degradation machinery + fault seam ----------------------------------
  FaultInjector* injector_ = nullptr;
  AttackTracker* tracker_ = nullptr;
  /// Cycle the current doorbell wait window opened, and its (backed-off)
  /// watchdog width; retries already spent on this window.
  Cycle wait_started_ = 0;
  Cycle retry_window_ = 0;
  unsigned retries_this_wait_ = 0;
  /// The current transfer is a MAC-failure retransmission (same logs).
  bool resend_ = false;
  unsigned mac_retries_this_batch_ = 0;
  /// Injected-fault bookkeeping for detection pairing.
  bool mac_corrupt_in_flight_ = false;
  bool dup_in_flight_ = false;
  std::uint64_t doorbell_retries_ = 0;
  std::uint64_t mac_retries_ = 0;
  std::uint64_t spurious_completions_ = 0;
  std::uint64_t degraded_cycles_ = 0;
};

}  // namespace titan::cfi
