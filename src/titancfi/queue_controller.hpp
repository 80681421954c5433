// CFI Queue + Queue Controller (paper Sec. IV-B2).
//
// "The CFI Queue is a FIFO which stores the commit logs extracted by the CFI
//  Filters. The Queue Controller controls the CFI Queue push signal and,
//  occasionally, it inhibits the CVA6 commit stage ... The Queue Control[ler]
//  inhibits the commit stage if the CFI Queue is full, or if more than one
//  commit port retires a control-flow instruction [in the same cycle]."
//
// Overflow policy (this repo, beyond the paper): the paper's behaviour is
// kBackPressure — stall the commit stage until the RoT drains, losing
// nothing.  The two alternatives model what a deployment would pick when
// stalling the host is unacceptable: kFailClosed halts the host (a CFI fault)
// the moment a log would be lost, guaranteeing zero false negatives;
// kFailOpen lets the instruction retire unchecked and counts the dropped
// log — dropped returns are the potential false negatives the resilience
// block reports.  Fault injection (forced overflow bursts, ECC bit flips on
// queue words) hooks in through an optional FaultInjector.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>

#include "cva6/scoreboard.hpp"
#include "sim/fifo.hpp"
#include "soc/ecc.hpp"
#include "titancfi/attack_tracker.hpp"
#include "titancfi/commit_log.hpp"
#include "titancfi/fault_injector.hpp"
#include "titancfi/filter.hpp"

namespace titan::cfi {

using CfiQueue = sim::Fifo<CommitLog>;

/// What to do when a commit log cannot enter the CFI Queue.
enum class OverflowPolicy {
  kBackPressure,  ///< Stall the commit port until space frees (paper; lossless).
  kFailClosed,    ///< Halt the host: availability sacrificed, zero misses.
  kFailOpen,      ///< Drop the log and let the instruction retire unchecked.
};

class QueueController {
 public:
  explicit QueueController(std::size_t queue_depth)
      : queue_(queue_depth) {}

  void set_overflow_policy(OverflowPolicy policy) { overflow_policy_ = policy; }
  /// Fault-injection seam: `now` must outlive the controller and track the
  /// host cycle (engine-invariant, since evaluate() only runs in stepped
  /// windows where both engines agree on the cycle count).
  void set_fault_injector(FaultInjector* injector, const sim::Cycle* now) {
    injector_ = injector;
    now_ = now;
  }
  /// Attack-corpus scoring seam: every log pushed or dropped is reported to
  /// the tracker, which assigns the engine-invariant event ordinal and spots
  /// hijacked edges.  Same `now` contract as the fault seam.
  void set_attack_tracker(AttackTracker* tracker, const sim::Cycle* now) {
    tracker_ = tracker;
    now_ = now;
  }
  /// Invoked with the offending log when kFailClosed must halt the host (or
  /// when an uncorrectable queue-word ECC error occurs under any policy
  /// other than kFailOpen).
  void set_fail_closed_hook(std::function<void(const CommitLog&)> hook) {
    fail_closed_hook_ = std::move(hook);
  }

  /// Evaluate one commit cycle.  `candidates` are the scoreboard entries the
  /// core could retire this cycle, in program order (one per commit port).
  /// Control-flow entries are filtered and pushed into the CFI Queue; the
  /// returned count is how many leading entries may actually retire.
  ///
  /// Invariants enforced (and checked by tests):
  ///  * at most one commit log is pushed per cycle (single queue write port);
  ///  * no entry retires past a CF entry that could not be pushed — except
  ///    under kFailOpen, where the log is dropped and counted;
  ///  * logs enter the queue in program order.
  unsigned evaluate(std::span<const cva6::ScoreboardEntry> candidates) {
    unsigned allowed = 0;
    bool pushed_this_cycle = false;
    for (const cva6::ScoreboardEntry& entry : candidates) {
      // Port index only matters for attribution; filters are per-port.
      CfiFilter& filter = filters_[allowed % 2];
      const auto log = filter.filter(entry);
      if (!log.has_value()) {
        ++allowed;
        continue;
      }
      if (pushed_this_cycle) {
        ++dual_cf_stalls_;  // Second CF in the same cycle: stall that port.
        break;
      }
      // Fault seam: a scheduled overflow burst forces the full signal for
      // the next `param` push attempts.  Ordinals count push attempts (not
      // cycles) so the perturbation is identical on both engines.
      if (injector_ != nullptr) {
        if (const auto width =
                injector_->fire(sim::FaultSite::kQueueOverflow, *now_)) {
          force_full_remaining_ += std::max<std::uint64_t>(*width, 1);
          if (overflow_policy_ != OverflowPolicy::kFailOpen) {
            // Back-pressure/fail-closed observe the burst immediately (the
            // stall/halt is the response); fail-open never notices — that
            // is exactly the false-negative window.
            injector_->note_detected(sim::FaultSite::kQueueOverflow, *now_);
          }
        }
      }
      const bool forced_full = force_full_remaining_ > 0;
      if (forced_full) {
        --force_full_remaining_;
      }
      if (forced_full || queue_.full()) {
        if (overflow_policy_ == OverflowPolicy::kBackPressure) {
          ++full_stalls_;
          if (forced_full) {
            ++overflow_stall_cycles_;
          }
          break;
        }
        if (overflow_policy_ == OverflowPolicy::kFailClosed) {
          ++full_stalls_;
          if (fail_closed_hook_) {
            fail_closed_hook_(*log);
          }
          break;
        }
        drop_log(*log);  // kFailOpen: retire unchecked.
        ++allowed;
        continue;
      }
      if (injector_ != nullptr && !queue_word_survives_ecc(*log)) {
        continue;  // Log consumed by the fault response (dropped or halted).
      }
      queue_.push(*log);
      if (tracker_ != nullptr) {
        tracker_->note_committed(*log, *now_);
      }
      pushed_this_cycle = true;
      ++allowed;
    }
    queue_.sample();
    return allowed;
  }

  /// Burst drain for the Log Writer: pop up to out.size() logs, oldest
  /// first, freeing that many commit slots at once.  Returns the count
  /// actually popped.  A drain of 1 is exactly the paper's one-at-a-time
  /// pop; larger bursts feed the batched mailbox transfer.
  std::size_t drain(std::span<CommitLog> out) {
    std::size_t count = 0;
    while (count < out.size()) {
      auto log = queue_.pop();
      if (!log.has_value()) {
        break;
      }
      out[count++] = *log;
    }
    if (count > max_drained_) {
      max_drained_ = count;
    }
    return count;
  }

  /// Largest burst a single drain() call has popped.
  [[nodiscard]] std::size_t max_drained() const { return max_drained_; }

  /// Replay for the event engine's quiescent windows: the scheduler skipped
  /// `cycles` evaluate() calls during which the host provably retired no
  /// CFI-relevant instruction (so nothing was pushed, nothing stalled, and
  /// the empty queue's occupancy never changed).  `port0_scans`/`port1_scans`
  /// are the entries each per-port filter would have scanned (even/odd
  /// candidate indices, exactly as evaluate() attributes them).  The
  /// back-pressure windows replay through note_full_stall_cycles instead.
  void note_bypassed_cycles(std::uint64_t cycles, std::uint64_t port0_scans,
                            std::uint64_t port1_scans) {
    filters_[0].note_scanned(port0_scans);
    filters_[1].note_scanned(port1_scans);
    queue_.sample_n(cycles);
  }

  /// True when the queue side of the CFI stage can generate no event before
  /// new commit-stage input: nothing queued for the Log Writer to pop.
  [[nodiscard]] bool quiescent() const { return queue_.empty(); }

  /// True when a CFI-relevant commit candidate on port 0 can only stall:
  /// back-pressure policy, no forced-overflow burst in flight, queue full.
  /// Nothing but a Log Writer pop changes this.
  [[nodiscard]] bool blocked_on_full() const {
    return overflow_policy_ == OverflowPolicy::kBackPressure &&
           force_full_remaining_ == 0 && queue_.full();
  }

  /// Replay for the event engine's back-pressure windows: `cycles`
  /// evaluate() calls skipped while blocked_on_full() held and the ROB head
  /// was a ready CFI-relevant entry.  Each one scanned and selected that
  /// head on port 0, spent one queue-overflow event ordinal (the caller
  /// clamps the window so none of them fires), counted one full stall, and
  /// sampled the unchanged occupancy.
  void note_full_stall_cycles(std::uint64_t cycles) {
    filters_[0].note_reselected(cycles);
    if (injector_ != nullptr) {
      injector_->skip(sim::FaultSite::kQueueOverflow, cycles);
    }
    full_stalls_ += cycles;
    queue_.sample_n(cycles);
  }

  [[nodiscard]] CfiQueue& queue() { return queue_; }
  [[nodiscard]] const CfiQueue& queue() const { return queue_; }
  [[nodiscard]] const CfiFilter& filter(unsigned port) const {
    return filters_[port];
  }

  [[nodiscard]] std::uint64_t full_stalls() const { return full_stalls_; }
  [[nodiscard]] std::uint64_t dual_cf_stalls() const { return dual_cf_stalls_; }
  [[nodiscard]] std::uint64_t dropped_logs() const { return dropped_logs_; }
  [[nodiscard]] std::uint64_t dropped_returns() const {
    return dropped_returns_;
  }
  [[nodiscard]] std::uint64_t overflow_stall_cycles() const {
    return overflow_stall_cycles_;
  }

  /// Checkpoint support: queue contents + per-port filter counters + the
  /// stall/drop counters and any in-flight forced-overflow burst.  Policy,
  /// injector wiring and hooks are config-derived and not serialized.
  void save_state(sim::SnapshotWriter& writer) const {
    queue_.save_state(writer, [](sim::SnapshotWriter& w, const CommitLog& log) {
      for (const std::uint64_t beat : log.pack()) {
        w.u64(beat);
      }
    });
    filters_[0].save_state(writer);
    filters_[1].save_state(writer);
    writer.u64(force_full_remaining_);
    writer.u64(full_stalls_);
    writer.u64(dual_cf_stalls_);
    writer.u64(dropped_logs_);
    writer.u64(dropped_returns_);
    writer.u64(overflow_stall_cycles_);
    writer.u64(max_drained_);
  }
  void load_state(sim::SnapshotReader& reader) {
    queue_.load_state(reader, [](sim::SnapshotReader& r) {
      std::array<std::uint64_t, CommitLog::kBeats> beats{};
      for (std::uint64_t& beat : beats) {
        beat = r.u64();
      }
      return CommitLog::unpack(beats);
    });
    filters_[0].load_state(reader);
    filters_[1].load_state(reader);
    force_full_remaining_ = reader.u64();
    full_stalls_ = reader.u64();
    dual_cf_stalls_ = reader.u64();
    dropped_logs_ = reader.u64();
    dropped_returns_ = reader.u64();
    overflow_stall_cycles_ = reader.u64();
    max_drained_ = static_cast<std::size_t>(reader.u64());
  }

 private:
  void drop_log(const CommitLog& log) {
    ++dropped_logs_;
    if (log.classify() == rv::CfKind::kReturn) {
      ++dropped_returns_;  // A return retired unchecked: potential miss.
    }
    if (tracker_ != nullptr) {
      tracker_->note_dropped(log, *now_);
    }
  }

  /// Fault seam: the nth successfully pushed log may carry an ECC bit flip
  /// on one 32-bit queue word (the queue SRAM is SECDED-protected like the
  /// rest of the OpenTitan memories).  A single-bit flip is corrected
  /// transparently; a double-bit flip is unrecoverable — the word is lost,
  /// so the log is dropped (kFailOpen) or the host halts (otherwise).
  /// Returns true when the (possibly corrected) log should still be pushed.
  bool queue_word_survives_ecc(const CommitLog& log) {
    const auto param = injector_->fire(sim::FaultSite::kMemBitFlip, *now_);
    if (!param) {
      return true;
    }
    const soc::Secded codec(32);
    const auto beats = log.pack();
    const unsigned half =
        static_cast<unsigned>((*param >> 1) % (CommitLog::kBeats * 2));
    const std::uint64_t word =
        (beats[half / 2] >> ((half % 2) * 32)) & 0xFFFF'FFFFULL;
    std::uint64_t codeword = codec.encode(word);
    const unsigned total = codec.codeword_bits();
    const unsigned first = static_cast<unsigned>((*param >> 4) % total);
    codeword ^= std::uint64_t{1} << first;
    if ((*param & 1) != 0) {
      // Double-bit flip: a second, guaranteed-distinct position.
      const unsigned second =
          (first + 1 + static_cast<unsigned>((*param >> 10) % (total - 1))) %
          total;
      codeword ^= std::uint64_t{1} << second;
    }
    const soc::EccResult decoded = codec.decode(codeword);
    // SECDED catches both outcomes; only the response differs.
    injector_->note_detected(sim::FaultSite::kMemBitFlip, *now_);
    if (decoded.status == soc::EccStatus::kCorrected) {
      return true;  // Corrected in place: the pristine log proceeds.
    }
    if (overflow_policy_ == OverflowPolicy::kFailOpen) {
      drop_log(log);
      return false;
    }
    if (fail_closed_hook_) {
      fail_closed_hook_(log);  // Unrecoverable corruption: halt.
    }
    return false;
  }

  CfiQueue queue_;
  CfiFilter filters_[2];
  OverflowPolicy overflow_policy_ = OverflowPolicy::kBackPressure;
  FaultInjector* injector_ = nullptr;
  AttackTracker* tracker_ = nullptr;
  const sim::Cycle* now_ = nullptr;
  std::function<void(const CommitLog&)> fail_closed_hook_;
  std::uint64_t force_full_remaining_ = 0;
  std::uint64_t full_stalls_ = 0;
  std::uint64_t dual_cf_stalls_ = 0;
  std::uint64_t dropped_logs_ = 0;
  std::uint64_t dropped_returns_ = 0;
  std::uint64_t overflow_stall_cycles_ = 0;
  std::size_t max_drained_ = 0;
};

}  // namespace titan::cfi
