#include "titancfi/log_writer.hpp"

#include <array>
#include <stdexcept>

#include "soc/hmac_mmio.hpp"

namespace titan::cfi {

namespace {

/// Mailbox MAC register packing: each 64-bit register holds two digest words
/// in the byte order the HMAC accelerator's DIGESTn reads present them
/// (big-endian within the 32-bit word), so the firmware can compare the
/// accelerator output against 32-bit mailbox reads with no byte shuffling.
std::uint64_t mac_reg(const crypto::Digest& digest, unsigned index) {
  const auto word = [&digest](unsigned w) -> std::uint64_t {
    return (std::uint64_t{digest[4 * w]} << 24) |
           (std::uint64_t{digest[4 * w + 1]} << 16) |
           (std::uint64_t{digest[4 * w + 2]} << 8) |
           std::uint64_t{digest[4 * w + 3]};
  };
  return word(2 * index) | (word(2 * index + 1) << 32);
}

}  // namespace

LogWriter::LogWriter(QueueController& controller, soc::Crossbar& axi,
                     soc::Mailbox& mailbox, FaultHook on_fault,
                     LogWriterConfig config)
    : controller_(controller),
      axi_(axi),
      mailbox_(mailbox),
      on_fault_(std::move(on_fault)),
      config_(config) {
  if (config_.burst < 1 || config_.burst > soc::Mailbox::kBatchSlots) {
    throw std::invalid_argument("LogWriter: burst must be in [1, kBatchSlots]");
  }
  if (config_.drain_wait > config_.burst) {
    throw std::invalid_argument(
        "LogWriter: drain_wait must be <= burst (a deeper wait threshold "
        "could never fill one transfer)");
  }
  if (config_.drain_wait > controller_.queue().depth()) {
    throw std::invalid_argument(
        "LogWriter: drain_wait must be <= the CFI queue depth (the queue "
        "can never accumulate that many logs, so only the timeout would "
        "ever fire)");
  }
  if (config_.drain_wait > 1 && config_.drain_timeout == 0) {
    throw std::invalid_argument(
        "LogWriter: the hysteresis policy needs a nonzero drain_timeout "
        "(logs must not wait forever on a quiet program)");
  }
  if (config_.drain_timeout > 100'000) {
    throw std::invalid_argument(
        "LogWriter: drain_timeout above 100000 cycles would dominate the "
        "post-program drain guard");
  }
  if (config_.doorbell_timeout > 0 && config_.burst < 2) {
    throw std::invalid_argument(
        "LogWriter: the doorbell watchdog requires burst > 1 (the retry "
        "protocol needs the idempotent BATCH_COUNT handshake the single-log "
        "register file lacks)");
  }
  if (config_.doorbell_timeout > 100'000) {
    throw std::invalid_argument(
        "LogWriter: doorbell_timeout above 100000 cycles would dominate the "
        "post-program drain guard");
  }
  if (config_.doorbell_timeout > 0 && (config_.doorbell_max_retries < 1 ||
                                       config_.doorbell_max_retries > 8)) {
    throw std::invalid_argument(
        "LogWriter: doorbell_max_retries must be in [1, 8] (backoff doubles "
        "the window each retry; more than 8 doublings overflows any useful "
        "timeout)");
  }
  if (config_.mac_rerequest && !config_.mac_batches) {
    throw std::invalid_argument(
        "LogWriter: mac_rerequest without mac_batches — there is no MAC "
        "whose failure could be re-requested");
  }
  if (config_.mac_rerequest &&
      (config_.mac_max_retries < 1 || config_.mac_max_retries > 8)) {
    throw std::invalid_argument(
        "LogWriter: mac_max_retries must be in [1, 8]");
  }
  if (config_.mac_batches) {
    mac_key_.emplace(
        soc::derive_slot_key(config.device_secret, config.mac_key_sel));
  }
  if (config_.mac_batches) {
    packed_.assign(std::size_t{config_.burst} * CommitLog::kBeats * 8, 0);
  }
  // One reservation for the lifetime of the writer: begin_batch only clears.
  batch_.reserve(config_.burst);
  writes_.reserve(std::size_t{config_.burst} * CommitLog::kBeats + 1 +
                  soc::Mailbox::kMacRegs);
}

void LogWriter::begin_batch(Cycle now, std::size_t count) {
  writes_.clear();
  write_index_ = 0;
  const soc::Addr base = soc::kCfiMailbox.base;
  if (config_.burst == 1) {
    // Paper layout: the single log's beats land in the legacy data registers.
    const auto beats = batch_[0].pack();
    for (unsigned beat = 0; beat < CommitLog::kBeats; ++beat) {
      writes_.push_back(
          {base + soc::Mailbox::kDataOffset + 8 * beat, beats[beat]});
    }
    busy_until_ = now + 1;  // Pop latency.
    return;
  }
  for (std::size_t slot = 0; slot < count; ++slot) {
    const auto beats = batch_[slot].pack();
    for (unsigned beat = 0; beat < CommitLog::kBeats; ++beat) {
      writes_.push_back(
          {base + soc::Mailbox::slot_offset(static_cast<unsigned>(slot)) +
               8 * beat,
           beats[beat]});
    }
  }
  writes_.push_back({base + soc::Mailbox::kBatchCountOffset,
                     static_cast<std::uint64_t>(count)});
  if (config_.mac_batches) {
    // The MAC covers the slot beats (every write but the batch count),
    // each stored little-endian.
    std::uint8_t* packed = packed_.data();
    for (std::size_t index = 0; index + 1 < writes_.size(); ++index) {
      for (unsigned byte = 0; byte < 8; ++byte) {
        *packed++ =
            static_cast<std::uint8_t>(writes_[index].value >> (8 * byte));
      }
    }
    const std::span<const std::uint8_t> message(packed_.data(), packed);
    const crypto::Digest digest = memo_ != nullptr
                                      ? memo_->mac(*mac_key_, message)
                                      : mac_key_->mac(message);
    std::array<std::uint64_t, soc::Mailbox::kMacRegs> mac_words{};
    for (unsigned index = 0; index < soc::Mailbox::kMacRegs; ++index) {
      mac_words[index] = mac_reg(digest, index);
    }
    // Fault seam: the nth MAC'd transfer (retransmissions included) may have
    // one bit of the 256-bit MAC flipped in transit; the param picks the bit.
    if (injector_ != nullptr) {
      if (const auto bit =
              injector_->fire(sim::FaultSite::kMacCorrupt, now)) {
        const unsigned index = static_cast<unsigned>(*bit % 256);
        mac_words[index / 64] ^= std::uint64_t{1} << (index % 64);
        mac_corrupt_in_flight_ = true;
      }
    }
    for (unsigned index = 0; index < soc::Mailbox::kMacRegs; ++index) {
      writes_.push_back(
          {base + soc::Mailbox::kBatchMacOffset + 8 * index,
           mac_words[index]});
    }
  }
  // One pop per drained log: the queue SRAM still has a single read port.
  busy_until_ = now + static_cast<Cycle>(count);
}

void LogWriter::ring_doorbell_write(Cycle now) {
  const soc::BusResponse response =
      axi_.write(soc::kCfiMailbox.base + soc::Mailbox::kDoorbellOffset, 8, 1);
  busy_until_ = now + response.latency;
}

void LogWriter::enter_wait(Cycle now) {
  wait_started_ = now;
  retry_window_ = config_.doorbell_timeout;
  retries_this_wait_ = 0;
}

void LogWriter::save_state(sim::SnapshotWriter& writer) const {
  writer.u8(static_cast<std::uint8_t>(state_));
  writer.u64(batch_.size());
  for (const CommitLog& log : batch_) {
    for (const std::uint64_t beat : log.pack()) {
      writer.u64(beat);
    }
  }
  writer.u64(writes_.size());
  for (const PendingWrite& write : writes_) {
    writer.u64(write.addr);
    writer.u64(write.value);
  }
  writer.u64(write_index_);
  writer.u64(busy_until_);
  writer.boolean(pending_since_.has_value());
  writer.u64(pending_since_.value_or(0));
  writer.u64(logs_sent_);
  writer.u64(batches_sent_);
  writer.u64(violations_);
  writer.u64(wait_cycles_);
  writer.u64(wait_started_);
  writer.u64(retry_window_);
  writer.u32(retries_this_wait_);
  writer.boolean(resend_);
  writer.u32(mac_retries_this_batch_);
  writer.boolean(mac_corrupt_in_flight_);
  writer.boolean(dup_in_flight_);
  writer.u64(doorbell_retries_);
  writer.u64(mac_retries_);
  writer.u64(spurious_completions_);
  writer.u64(degraded_cycles_);
}

void LogWriter::load_state(sim::SnapshotReader& reader) {
  const std::uint8_t state = reader.u8();
  if (state > static_cast<std::uint8_t>(State::kFault)) {
    throw sim::SnapshotError("log writer: bad FSM state");
  }
  state_ = static_cast<State>(state);
  batch_.clear();
  const std::uint64_t batch_count = reader.u64();
  for (std::uint64_t i = 0; i < batch_count; ++i) {
    std::array<std::uint64_t, CommitLog::kBeats> beats{};
    for (std::uint64_t& beat : beats) {
      beat = reader.u64();
    }
    batch_.push_back(CommitLog::unpack(beats));
  }
  writes_.clear();
  const std::uint64_t write_count = reader.u64();
  for (std::uint64_t i = 0; i < write_count; ++i) {
    const soc::Addr addr = reader.u64();
    const std::uint64_t value = reader.u64();
    writes_.push_back({addr, value});
  }
  write_index_ = static_cast<std::size_t>(reader.u64());
  busy_until_ = reader.u64();
  const bool has_pending_since = reader.boolean();
  const Cycle pending_since = reader.u64();
  pending_since_ = has_pending_since ? std::optional<Cycle>(pending_since)
                                     : std::nullopt;
  logs_sent_ = reader.u64();
  batches_sent_ = reader.u64();
  violations_ = reader.u64();
  wait_cycles_ = reader.u64();
  wait_started_ = reader.u64();
  retry_window_ = reader.u64();
  retries_this_wait_ = reader.u32();
  resend_ = reader.boolean();
  mac_retries_this_batch_ = reader.u32();
  mac_corrupt_in_flight_ = reader.boolean();
  dup_in_flight_ = reader.boolean();
  doorbell_retries_ = reader.u64();
  mac_retries_ = reader.u64();
  spurious_completions_ = reader.u64();
  degraded_cycles_ = reader.u64();
}

void LogWriter::tick(Cycle now) {
  if (now < busy_until_ || state_ == State::kFault) {
    if (state_ == State::kWaitCompletion) {
      ++wait_cycles_;
    }
    return;
  }

  switch (state_) {
    case State::kIdle: {
      if (mailbox_.completion_pending()) {
        // A late answer to a doorbell the watchdog already retried: the
        // transfer it acknowledges was re-run, so the signal is consumed
        // with no action (the completion wire is commit-stage-local, no bus
        // transaction involved).
        mailbox_.clear_completion();
        ++spurious_completions_;
      }
      const std::size_t queued = controller_.queue().size();
      if (queued == 0) {
        pending_since_.reset();
        return;
      }
      if (config_.drain_wait > 1 && queued < config_.drain_wait) {
        // Hysteresis: hold the drain for a fuller burst, but never past the
        // timeout (counted from the first cycle this idle FSM saw the
        // currently-pending logs).
        if (!pending_since_.has_value()) {
          pending_since_ = now;
        }
        if (now - *pending_since_ < config_.drain_timeout) {
          return;
        }
      }
      pending_since_.reset();
      batch_.resize(config_.burst);
      const std::size_t count = controller_.drain(batch_);
      if (count == 0) {
        return;
      }
      batch_.resize(count);
      if (on_log_) {
        for (const CommitLog& log : batch_) {
          on_log_(log);
        }
      }
      resend_ = false;
      mac_retries_this_batch_ = 0;
      begin_batch(now, count);
      state_ = State::kWriteBeats;
      break;
    }
    case State::kWriteBeats: {
      const PendingWrite& write = writes_[write_index_];
      const soc::BusResponse response = axi_.write(write.addr, 8, write.value);
      busy_until_ = now + response.latency;
      if (++write_index_ == writes_.size()) {
        state_ = State::kRingDoorbell;
      }
      break;
    }
    case State::kRingDoorbell: {
      ring_doorbell_write(now);
      // Fault seam: the nth ring may be delivered twice (a glitched pulse).
      // Both writes land before the RoT can step, so the PLIC level
      // coalesces them; the duplicate is benign by construction, which is
      // exactly what this site demonstrates.
      if (injector_ != nullptr &&
          injector_->fire(sim::FaultSite::kDoorbellDuplicate, now)) {
        const soc::BusResponse dup = axi_.write(
            soc::kCfiMailbox.base + soc::Mailbox::kDoorbellOffset, 8, 1);
        busy_until_ += dup.latency;
        dup_in_flight_ = true;
      }
      if (!resend_) {
        logs_sent_ += batch_.size();
      }
      ++batches_sent_;
      enter_wait(now);
      state_ = State::kWaitCompletion;
      break;
    }
    case State::kWaitCompletion: {
      // The completion register is wired straight to the commit stage
      // (Sec. IV-A): no bus transaction needed to observe it.
      if (!mailbox_.completion_pending()) {
        ++wait_cycles_;
        if (config_.doorbell_timeout > 0 &&
            now - wait_started_ >= retry_window_) {
          if (retries_this_wait_ >= config_.doorbell_max_retries) {
            // Watchdog exhausted: the RoT is unreachable.  Fail closed —
            // halting beats silently running without enforcement.
            state_ = State::kFault;
            if (on_fault_) {
              on_fault_(batch_[0]);
            }
            return;
          }
          degraded_cycles_ += now - wait_started_;
          ring_doorbell_write(now);
          ++doorbell_retries_;
          ++retries_this_wait_;
          if (injector_ != nullptr) {
            // If a drop was injected, this re-ring is its recovery.
            injector_->note_detected(sim::FaultSite::kDoorbellDrop, now);
          }
          wait_started_ = now;
          retry_window_ *= 2;  // Exponential backoff.
        }
        return;
      }
      state_ = State::kReadResult;
      break;
    }
    case State::kReadResult: {
      const soc::BusResponse response =
          axi_.read(soc::kCfiMailbox.base + soc::Mailbox::kDataOffset, 8);
      busy_until_ = now + response.latency;
      mailbox_.clear_completion();
      if (injector_ != nullptr) {
        // A completed verdict is the observation point for latency-only
        // faults: a stalled RoT answered late, a duplicated doorbell was
        // absorbed.  Both calls are no-ops when nothing was injected.
        injector_->note_detected(sim::FaultSite::kRotStall, now);
        if (dup_in_flight_) {
          injector_->note_detected(sim::FaultSite::kDoorbellDuplicate, now);
          dup_in_flight_ = false;
        }
      }
      const bool violation = (response.value & 1) != 0;
      if (!violation && response.value == kVerdictMacRerequest &&
          config_.mac_rerequest) {
        // The RoT saw a MAC mismatch and asks for a retransmission: the
        // batch is still in hand, so rebuild the transfer (fresh MAC) and
        // resend.  Exhausting the retry budget is a fail-closed fault.
        if (injector_ != nullptr && mac_corrupt_in_flight_) {
          injector_->note_detected(sim::FaultSite::kMacCorrupt, now);
          mac_corrupt_in_flight_ = false;
        }
        if (mac_retries_this_batch_ >= config_.mac_max_retries) {
          state_ = State::kFault;
          if (on_fault_) {
            on_fault_(batch_[0]);
          }
          return;
        }
        ++mac_retries_;
        ++mac_retries_this_batch_;
        resend_ = true;
        begin_batch(now, batch_.size());
        state_ = State::kWriteBeats;
        break;
      }
      if (violation) {
        if (injector_ != nullptr && mac_corrupt_in_flight_) {
          // Without re-request the firmware reports corruption as tamper:
          // the violation verdict is the detection.
          injector_->note_detected(sim::FaultSite::kMacCorrupt, now);
          mac_corrupt_in_flight_ = false;
        }
        ++violations_;
        state_ = State::kFault;
        // Burst verdicts carry the violating slot index in bits [63:1].
        std::size_t index = static_cast<std::size_t>(response.value >> 1);
        if (index >= batch_.size()) {
          index = 0;
        }
        if (tracker_ != nullptr) {
          // The firmware checked (and passed) every slot before the
          // violating one; anything after it never got a verdict.
          for (std::size_t slot = 0; slot < index; ++slot) {
            tracker_->note_cleared(batch_[slot], now);
          }
          tracker_->note_flagged(batch_[index], now);
        }
        if (on_fault_) {
          on_fault_(batch_[index]);
        }
      } else {
        if (tracker_ != nullptr) {
          for (const CommitLog& log : batch_) {
            tracker_->note_cleared(log, now);
          }
        }
        resend_ = false;
        mac_retries_this_batch_ = 0;
        state_ = State::kIdle;
      }
      break;
    }
    case State::kFault:
      break;
  }
}

}  // namespace titan::cfi
