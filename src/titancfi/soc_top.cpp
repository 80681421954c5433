#include "titancfi/soc_top.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace titan::cfi {

SocTop::SocTop(const SocConfig& config, const rv::Image& host_program,
               std::shared_ptr<const ibex::FirmwareRom> firmware)
    : config_(config), queue_controller_(config.queue_depth) {
  const auto& marks = firmware->image().marks;
  // The drain protocol is a contract between the Log Writer and the
  // firmware; a skew (burst writer + single-log firmware, or MAC on one
  // side only) would silently disable or falsely trip CFI checking, so
  // fail construction instead.  Batched images carry "batch"/"batch_mac"
  // marks (see fw::build_firmware).
  const bool fw_batched = marks.contains("batch");
  const bool fw_mac = marks.contains("batch_mac");
  const bool want_batched = config.drain_burst > 1;
  const bool want_mac = want_batched && config.mac_batches;
  if (fw_batched != want_batched) {
    throw std::invalid_argument(
        "SocTop: drain_burst and firmware batch_capacity disagree "
        "(build the firmware with batch_capacity matching the burst)");
  }
  if (fw_batched && fw_mac != want_mac) {
    throw std::invalid_argument(
        "SocTop: mac_batches and firmware batch_mac disagree");
  }
  // Degradation protocols are contracts too: a watchdog writer against
  // firmware that never zeroes BATCH_COUNT would re-run the policy over a
  // stale batch on every retried doorbell (corrupting the shadow stack),
  // and a mac_rerequest mismatch turns every retransmission request into a
  // violation (or vice versa).
  if (marks.contains("retry_handshake") !=
      (config.doorbell_timeout > 0)) {
    throw std::invalid_argument(
        "SocTop: doorbell_timeout and firmware retry_handshake disagree "
        "(the watchdog retry protocol needs the idempotent BATCH_COUNT "
        "handshake on both sides)");
  }
  if (marks.contains("mac_rerequest") != config.mac_rerequest) {
    throw std::invalid_argument(
        "SocTop: mac_rerequest and firmware mac_rerequest disagree");
  }
  host_memory_.load(host_program.base, host_program.bytes);

  // Host-domain AXI fabric, mastered by the CFI Log Writer.
  axi_.map(soc::kCfiMailbox, mailbox_, 0, "cfi-mailbox");
  axi_.map(soc::kDram, host_memory_target_, 2, "dram");

  cva6::Cva6Config host_config = config.host;
  host_config.reset_pc = host_program.base;
  host_core_ = std::make_unique<cva6::Cva6Core>(host_config, host_memory_);
  host_core_->set_trace_enabled(config.trace_commits);
  if (config.enable_pmp) {
    pmp_ = soc::Pmp::titancfi_default();
    host_core_->set_pmp(&pmp_);
  }

  rot_ = std::make_unique<RotSubsystem>(std::move(firmware), config.fabric,
                                        mailbox_, host_memory_);
  if (!config.jump_table.empty()) {
    // Provision the forward-edge policy's target table into RoT SRAM before
    // boot ([count][targets...], 32-bit words).  The firmware treats an
    // empty table as inert, so enforcement scenarios must fill it.
    if (config.jump_table_base == 0) {
      throw std::invalid_argument(
          "SocTop: jump_table contents without a jump_table_base");
    }
    rot_->sram().write32(config.jump_table_base,
                         static_cast<std::uint32_t>(config.jump_table.size()));
    for (std::size_t i = 0; i < config.jump_table.size(); ++i) {
      rot_->sram().write32(config.jump_table_base + 4 + 4 * i,
                           config.jump_table[i]);
    }
  }

  LogWriterConfig writer_config;
  writer_config.burst = config.drain_burst;
  writer_config.mac_batches = config.drain_burst > 1 && config.mac_batches;
  writer_config.device_secret = kRotDeviceSecret;
  writer_config.mac_key_sel = kBatchMacKeySlot;
  writer_config.drain_wait = config.drain_wait;
  writer_config.drain_timeout = config.drain_timeout;
  writer_config.doorbell_timeout = config.doorbell_timeout;
  writer_config.doorbell_max_retries = config.doorbell_max_retries;
  writer_config.mac_rerequest = config.mac_rerequest;
  writer_config.mac_max_retries = config.mac_max_retries;
  const auto fail_closed = [this](const CommitLog& log) {
    fault_log_ = log;
    fault_seen_ = true;
    host_core_->raise_cfi_fault();
  };
  log_writer_ = std::make_unique<LogWriter>(queue_controller_, axi_, mailbox_,
                                            fail_closed, writer_config);
  // Both ends of an authenticated burst MAC through the one memo.
  log_writer_->set_mac_memo(&mac_memo_);
  rot_->set_mac_memo(&mac_memo_);
  queue_controller_.set_overflow_policy(config.overflow_policy);
  queue_controller_.set_fail_closed_hook(fail_closed);

  if (!config.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(config.faults);
    queue_controller_.set_fault_injector(injector_.get(), &host_now_);
    log_writer_->set_fault_injector(injector_.get());
    // The mailbox seam covers both doorbell-transit sites: a dropped ring
    // never reaches the flag/IRQ; a delivered ring may open a RoT stall
    // window (the Ibex clock is engine-invariant, so anchoring the window
    // there keeps the engines bit-exact).
    mailbox_.set_doorbell_filter([this] {
      if (injector_->fire(sim::FaultSite::kDoorbellDrop, host_now_)) {
        return false;
      }
      if (const auto width =
              injector_->fire(sim::FaultSite::kRotStall, host_now_)) {
        rot_->inject_stall(std::max<sim::Cycle>(*width, 1));
      }
      return true;
    });
  }

  if (!config.attack_edges.empty()) {
    tracker_ = std::make_unique<AttackTracker>(config.attack_edges);
    queue_controller_.set_attack_tracker(tracker_.get(), &host_now_);
    log_writer_->set_attack_tracker(tracker_.get());
  }
}

namespace {

// Let the RoT firmware initialise (set up mtvec, shadow-stack pointers,
// reach its idle loop) before the host starts committing.  The RoT clock
// then leads the host clock by this constant offset; all interactions are
// relative, so the offset only models "RoT boots first" (secure boot).
constexpr sim::Cycle kRotInitBudget = 200;

/// Section sentinel framing the SocTop component stream ("SOCT").
constexpr std::uint32_t kSocTag = 0x534F'4354;

/// Default fast-forward clamp while a cancel token is armed: the event
/// engine splits quiescent quanta at this stride so the token is observed
/// within a bounded number of simulated cycles.  Splitting a quantum is
/// result-exact (the checkpoint clamp relies on the same property), so the
/// stride only bounds cancellation latency — it never changes results.
constexpr sim::Cycle kCancelCheckStride = 1 << 16;

}  // namespace

SocRunResult SocTop::run() {
  stop_cause_ = StopCause::kCompleted;
  return config_.engine == Engine::kLockStep ? run_lock_step()
                                             : run_event_driven();
}

void SocTop::set_run_limits(const sim::CancelToken* cancel, sim::Cycle budget,
                            sim::Cycle cancel_stride) {
  cancel_ = cancel;
  budget_ = budget;
  cancel_stride_ = cancel_stride != 0 ? cancel_stride : kCancelCheckStride;
}

bool SocTop::stop_requested(sim::Cycle cycle) {
  // Budget before token: a run that hits both limits on the same loop-top
  // cycle reports the deterministic one (the budget), not whichever thread
  // fired the token first.
  if (budget_ != 0 && cycle >= budget_) {
    stop_cause_ = StopCause::kBudget;
    return true;
  }
  if (cancel_ != nullptr && cancel_->cancelled()) {
    stop_cause_ = StopCause::kCancelled;
    return true;
  }
  return false;
}

void SocTop::capture(sim::Snapshot& snapshot, sim::Cycle cycle) const {
  snapshot.cycle = cycle;
  snapshot.memories.clear();
  snapshot.memories.push_back(host_memory_.capture());
  sim::SnapshotWriter writer;
  writer.tag(kSocTag);
  host_core_->save_state(writer);
  queue_controller_.save_state(writer);
  log_writer_->save_state(writer);
  mailbox_.save_state(writer);
  axi_.save_state(writer);
  writer.boolean(injector_ != nullptr);
  if (injector_ != nullptr) {
    injector_->save_state(writer);
  }
  writer.boolean(tracker_ != nullptr);
  if (tracker_ != nullptr) {
    tracker_->save_state(writer);
  }
  writer.boolean(fault_seen_);
  for (const std::uint64_t beat : fault_log_.pack()) {
    writer.u64(beat);
  }
  rot_->capture(snapshot, writer);
  snapshot.state = writer.take();
}

void SocTop::restore(const sim::Snapshot& snapshot) {
  if (snapshot.memories.size() != 1 + RotSubsystem::kMemoryImages) {
    throw sim::SnapshotError("soc top: wrong memory image count");
  }
  host_memory_.restore(snapshot.memories.at(0));
  sim::SnapshotReader reader(snapshot.state);
  reader.expect_tag(kSocTag, "soc top");
  host_core_->load_state(reader);
  queue_controller_.load_state(reader);
  log_writer_->load_state(reader);
  mailbox_.load_state(reader);
  axi_.load_state(reader);
  const bool captured_injector = reader.boolean();
  if (captured_injector != (injector_ != nullptr)) {
    throw sim::SnapshotError(
        "soc top: snapshot fault plan does not match this configuration");
  }
  if (injector_ != nullptr) {
    injector_->load_state(reader);
  }
  const bool captured_tracker = reader.boolean();
  if (captured_tracker != (tracker_ != nullptr)) {
    throw sim::SnapshotError(
        "soc top: snapshot attack plan does not match this configuration");
  }
  if (tracker_ != nullptr) {
    tracker_->load_state(reader);
  }
  fault_seen_ = reader.boolean();
  std::array<std::uint64_t, CommitLog::kBeats> beats{};
  for (std::uint64_t& beat : beats) {
    beat = reader.u64();
  }
  fault_log_ = CommitLog::unpack(beats);
  rot_->restore(snapshot, 1, reader);
  if (!reader.done()) {
    throw sim::SnapshotError("soc top: trailing component state");
  }
  start_cycle_ = snapshot.cycle;
}

void SocTop::set_checkpoint(sim::Cycle at,
                            std::function<void(const sim::Snapshot&)> callback,
                            bool stop_after) {
  checkpoint_at_ = at;
  checkpoint_cb_ = std::move(callback);
  checkpoint_stop_ = stop_after;
}

bool SocTop::take_checkpoint(sim::Cycle cycle, bool force) {
  if (!checkpoint_at_ || (!force && cycle < *checkpoint_at_)) {
    return false;
  }
  checkpoint_at_.reset();
  sim::Snapshot snapshot;
  capture(snapshot, cycle);
  checkpoint_cb_(snapshot);
  return checkpoint_stop_;
}

void SocTop::step_cycle(sim::Cycle& cycle) {
  ++stepped_cycles_;
  host_now_ = cycle;
  const auto candidates = host_core_->commit_candidates();
  const unsigned allowed = queue_controller_.evaluate(candidates);
  host_core_->retire(allowed);
  log_writer_->tick(cycle);
  rot_->run_until(cycle + kRotInitBudget);
  host_core_->tick();
  ++cycle;
}

void SocTop::drain_pending(sim::Cycle& cycle) {
  // Drain pending checks (unless a fault already stopped the run): the host
  // program is done, but the RoT may still be behind.  The drain is exempt
  // from the cycle *budget* — finishing the pipeline is part of completing,
  // and exempting it is what keeps a within-budget run byte-identical to an
  // unbudgeted one — but it still honours the cancel token, so shutdown and
  // disconnect stops stay bounded even mid-drain.
  const sim::Cycle drain_guard = cycle + 1'000'000;
  while (!fault_seen_ &&
         (!queue_controller_.queue().empty() ||
          log_writer_->state() != LogWriter::State::kIdle)) {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      stop_cause_ = StopCause::kCancelled;
      return;
    }
    if (cycle >= drain_guard) {
      throw std::runtime_error("SocTop: drain did not converge");
    }
    if (config_.engine != Engine::kLockStep &&
        log_writer_->awaiting_verdict(cycle)) {
      // Verdict wait: the host is done, so until the RoT's completion write
      // (or the watchdog deadline, which must be stepped) an iteration only
      // counts a writer wait cycle and steps the RoT — replayed below.  The
      // window also ends at the guard, so a non-converging drain throws at
      // the lock-step cycle, and, with a token armed, at the cancel stride,
      // which bounds the cancellation latency.
      sim::Cycle end = std::min(drain_guard, log_writer_->watchdog_deadline());
      if (cancel_ != nullptr) {
        end = std::min(end, cycle + cancel_stride_);
      }
      if (end > cycle) {
        const sim::Cycle waited = run_rot_to_verdict(cycle, end - 1);
        log_writer_->note_waited_cycles(waited);
        cycle += waited;
        continue;
      }
    }
    ++stepped_drain_cycles_;
    host_now_ = cycle;
    log_writer_->tick(cycle);
    rot_->run_until(cycle + kRotInitBudget);
    ++cycle;
  }
}

SocRunResult SocTop::run_lock_step() {
  sim::Cycle cycle = start_cycle_;
  // Harmless monotonic no-op on a resumed run (the RoT clock is already
  // past the init budget).
  rot_->run_until(kRotInitBudget);

  while (!host_core_->program_done() && !fault_seen_) {
    if (take_checkpoint(cycle, /*force=*/false)) {
      return collect_result();
    }
    if (stop_requested(cycle)) {
      return collect_result();
    }
    if (cycle >= config_.max_cycles) {
      throw std::runtime_error("SocTop: cycle guard exceeded");
    }
    step_cycle(cycle);
  }

  // The program finished (or faulted) before the checkpoint cycle: fire at
  // the main-loop exit boundary so the caller still gets a snapshot.
  if (take_checkpoint(cycle, /*force=*/true)) {
    return collect_result();
  }
  drain_pending(cycle);
  return collect_result();
}

bool SocTop::quiescent() const {
  return queue_controller_.quiescent() &&
         log_writer_->state() == LogWriter::State::kIdle &&
         !mailbox_.doorbell_pending() && !mailbox_.completion_pending() &&
         !host_core_->has_pending_cfi();
}

sim::Cycle SocTop::window_limit(sim::Cycle cycle) const {
  // A pending checkpoint clamps every fast-forward window so both engines
  // capture at the identical loop-top cycle; a budget clamps it so the stop
  // lands exactly at the budget cycle on both engines; an armed cancel token
  // clamps it to the check stride so cancellation latency stays bounded
  // even on straight-line workloads.
  sim::Cycle limit = config_.max_cycles;
  if (checkpoint_at_) {
    limit = std::min(limit, *checkpoint_at_);
  }
  if (budget_ != 0) {
    limit = std::min(limit, budget_);
  }
  if (cancel_ != nullptr) {
    limit = std::min(limit, cycle + cancel_stride_);
  }
  return limit;
}

bool SocTop::stalled_on_rot(sim::Cycle cycle) const {
  return queue_controller_.blocked_on_full() &&
         host_core_->cfi_head_blocks_issue() &&
         log_writer_->awaiting_verdict(cycle);
}

sim::Cycle SocTop::run_rot_to_verdict(sim::Cycle cycle, sim::Cycle last) {
  // Lock-step runs the RoT to h + kRotInitBudget at host cycle h, so a
  // completion raised by a step starting at Ibex cycle c_s is first seen by
  // the writer on the cycle after h* = c_s + 1 - kRotInitBudget: the window
  // ends at h*, or at `last` if the RoT does not complete before.
  if (const auto started =
          rot_->run_until(last + kRotInitBudget, /*stop_on_completion=*/true)) {
    last = std::max(cycle + kRotInitBudget, *started + 1) - kRotInitBudget;
  }
  rot_->run_until(last + kRotInitBudget);
  return last + 1 - cycle;
}

sim::Cycle SocTop::skip_stalled_cycles(sim::Cycle cycle, sim::Cycle limit) {
  // The watchdog acts on its deadline cycle, which must be stepped.
  const sim::Cycle end = std::min(limit, log_writer_->watchdog_deadline());
  if (end <= cycle) {
    return 0;
  }
  // Every skipped cycle is one queue-overflow event (the blocked head is a
  // push attempt), so the window must end before the next scheduled one.
  sim::Cycle span = end - cycle;
  if (injector_ != nullptr) {
    span = std::min<sim::Cycle>(
        span, injector_->quiet_events(sim::FaultSite::kQueueOverflow));
    if (span == 0) {
      return 0;
    }
  }
  const sim::Cycle skipped = run_rot_to_verdict(cycle, cycle + span - 1);
  host_core_->note_stalled_cycles(skipped);
  queue_controller_.note_full_stall_cycles(skipped);
  log_writer_->note_waited_cycles(skipped);
  return skipped;
}

SocRunResult SocTop::run_event_driven() {
  sim::Cycle cycle = start_cycle_;
  rot_->run_until(kRotInitBudget);

  while (!host_core_->program_done() && !fault_seen_) {
    if (take_checkpoint(cycle, /*force=*/false)) {
      return collect_result();
    }
    if (stop_requested(cycle)) {
      return collect_result();
    }
    if (cycle >= config_.max_cycles) {
      throw std::runtime_error("SocTop: cycle guard exceeded");
    }
    if (quiescent()) {
      // No component can act before the next CFI-relevant commit: retire
      // straight-line host work in one quantum.  The skipped lock-step
      // iterations would have sampled an empty queue, scanned non-CFI
      // entries through the filters, ticked an idle writer (a no-op), and
      // run the RoT to the same final clock — all replayed exactly below.
      const auto quantum = host_core_->run_until_event(window_limit(cycle));
      if (quantum.cycles > 0) {
        queue_controller_.note_bypassed_cycles(
            quantum.cycles, quantum.port0_scans, quantum.port1_scans);
        cycle += quantum.cycles;
        // The last executed cycle's lock-step iteration ran the RoT to
        // (cycle - 1) + budget; the next iteration (per-cycle or quantum)
        // advances it further, preserving the tick/run_until interleaving.
        rot_->run_until(cycle - 1 + kRotInitBudget);
        continue;
      }
    } else if (stalled_on_rot(cycle)) {
      // Back-pressure window: the host is blocked on a full queue and the
      // writer waits on the RoT, so nothing host-side moves until the RoT
      // writes its completion.  The skipped lock-step iterations would have
      // re-filtered and stalled the same head, sampled the same occupancy,
      // counted a writer wait cycle, and stepped the RoT — replayed below.
      if (const sim::Cycle skipped =
              skip_stalled_cycles(cycle, window_limit(cycle))) {
        cycle += skipped;
        continue;
      }
    }
    // Event window: exact per-cycle stepping (identical to lock-step).
    step_cycle(cycle);
  }

  if (take_checkpoint(cycle, /*force=*/true)) {
    return collect_result();
  }
  drain_pending(cycle);
  return collect_result();
}

SocRunResult SocTop::collect_result() const {
  SocRunResult result;
  result.cycles = host_core_->cycle();
  result.instructions = host_core_->instret();
  result.cf_logs = log_writer_->logs_sent();
  result.violations = log_writer_->violations();
  result.cfi_fault = fault_seen_;
  result.fault_log = fault_log_;
  result.exit_code = host_core_->exit_code();
  result.queue_full_stalls = queue_controller_.full_stalls();
  result.dual_cf_stalls = queue_controller_.dual_cf_stalls();
  result.doorbells = mailbox_.doorbell_count();
  result.batches = log_writer_->batches_sent();
  result.max_batch = queue_controller_.max_drained();
  result.mean_queue_occupancy =
      queue_controller_.queue().stats().mean_occupancy();
  // Resilience block: injector pairing + the counters each degradation
  // mechanism owns.  All-zero (and cheap) when no faults were configured.
  if (injector_ != nullptr) {
    result.resilience = injector_->stats();
  }
  result.resilience.doorbell_retries = log_writer_->doorbell_retries();
  result.resilience.mac_retries = log_writer_->mac_retries();
  result.resilience.spurious_completions = log_writer_->spurious_completions();
  result.resilience.dropped_logs = queue_controller_.dropped_logs();
  result.resilience.false_negatives = queue_controller_.dropped_returns();
  result.resilience.degraded_cycles = log_writer_->degraded_cycles() +
                                      queue_controller_.overflow_stall_cycles() +
                                      rot_->stalled_cycles();
  if (tracker_ != nullptr) {
    result.attack = tracker_->stats();
  }
  result.stop = stop_cause_;
  return result;
}

}  // namespace titan::cfi
