// CVA6 host-core model: functional RV64IMC execution with an in-order,
// single-issue, dual-commit timing model (paper Sec. III-A).
//
// The model separates three concerns:
//   * functional execution — a full RV64IMC interpreter over sim::Memory;
//   * timing — each instruction carries a deterministic execute latency
//     (ALU 1, load/store 2, taken control flow +2, mul 2, div 20) and flows
//     through a reorder buffer; the commit stage retires up to two entries
//     per cycle, exactly like CVA6's two commit ports;
//   * commit gating — an external agent (the TitanCFI Queue Controller) is
//     consulted every cycle and may retire fewer entries than are ready,
//     which back-pressures issue once the ROB fills.  This reproduces the
//     paper's "inhibit the commit stage" stall mechanism (Sec. IV-B2).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cva6/scoreboard.hpp"
#include "sim/decode_cache.hpp"
#include "sim/memory.hpp"
#include "sim/types.hpp"
#include "soc/pmp.hpp"

namespace titan::cva6 {

struct Cva6Config {
  std::uint64_t reset_pc = 0x8000'0000;
  std::uint64_t reset_sp = 0x8800'0000;
  unsigned commit_width = 2;   ///< CVA6 has two commit ports.
  unsigned rob_depth = 8;      ///< Scoreboard/ROB entries.
  std::uint32_t load_cycles = 2;
  std::uint32_t store_cycles = 1;
  std::uint32_t mul_cycles = 2;
  std::uint32_t div_cycles = 20;
  std::uint32_t taken_cf_penalty = 2;  ///< Front-end refill on taken CF.
  std::uint64_t max_instructions = 500'000'000;  ///< Runaway guard.
};

class Cva6Core {
 public:
  Cva6Core(const Cva6Config& config, sim::Memory& memory);
  Cva6Core(const Cva6Core&) = delete;
  Cva6Core& operator=(const Cva6Core&) = delete;

  // ---- Per-cycle co-simulation interface -----------------------------------

  /// Entries ready to retire this cycle (up to commit_width, in order).
  [[nodiscard]] std::span<const ScoreboardEntry> commit_candidates();

  /// Retire the first `count` candidates (the CFI stage may allow fewer than
  /// are ready; 0 == full commit stall this cycle).
  void retire(unsigned count);

  /// Advance one clock edge: issue/execute bookkeeping, cycle++.
  void tick();

  // ---- Whole-run helpers ------------------------------------------------------

  /// Run with no commit gating until ECALL/halt; returns total cycles.
  Cycle run_baseline();

  // ---- Event-driven co-simulation interface --------------------------------

  /// Outcome of a fast-forward quantum (see run_until_event).
  struct FastForwardResult {
    Cycle cycles = 0;  ///< Host cycles advanced (cycle() moved by this much).
    /// Entries the commit-port CFI filters would have scanned on the even /
    /// odd candidate indices — the external Queue Controller replays these
    /// into its per-port statistics.
    std::uint64_t port0_scans = 0;
    std::uint64_t port1_scans = 0;
  };

  /// Batched fast path for the event-driven SoC scheduler: run whole cycles
  /// (retire the ready prefix, refill the ROB, advance the clock) exactly as
  /// the per-cycle interface would with an external arbiter that allows every
  /// candidate — valid precisely while the ROB holds no CFI-relevant entry,
  /// which is what makes "allow everything" the arbiter's only possible
  /// answer.  Stops BEFORE executing a cycle whose commit candidates could
  /// contain a CFI-relevant entry (i.e. as soon as the issue stage has placed
  /// one in the ROB), on program completion, or at the absolute cycle
  /// `limit`.  Returns zero cycles when the ROB already holds a CFI-relevant
  /// entry.  Cycle numbering, retirement timing, traces, and stall counters
  /// are bit-identical to per-cycle stepping; queue-side statistics for the
  /// skipped evaluate() calls are returned for the caller to replay.
  FastForwardResult run_until_event(Cycle limit);

  /// True while the ROB holds at least one CFI-relevant (call / return /
  /// indirect-jump) entry — the window in which the CFI stage must arbitrate
  /// commit per cycle.
  [[nodiscard]] bool has_pending_cfi() const { return rob_cfi_count_ > 0; }

  /// True when the ROB head is a ready CFI-relevant entry and the issue
  /// stage is idle (ROB full or core halted).  While the CFI stage refuses
  /// that head, a cycle changes nothing here but the clock and the stall
  /// count, which note_stalled_cycles replays.
  [[nodiscard]] bool cfi_head_blocks_issue() const {
    if (rob_size_ == 0) {
      return false;
    }
    const RobEntry& head = rob_[rob_head_];
    return head.entry.cfi_relevant() && head.ready <= cycle_ &&
           (halted_ || rob_size_ >= config_.rob_depth);
  }

  /// Event-engine replay of `cycles` commit cycles in which the CFI stage
  /// retired nothing while cfi_head_blocks_issue() held.
  void note_stalled_cycles(Cycle cycles) {
    cycle_ += cycles;
    stall_cycles_ += cycles;
  }

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] bool program_done() const {
    return halted_ && rob_size_ == 0;
  }
  [[nodiscard]] std::uint64_t exit_code() const { return exit_code_; }
  [[nodiscard]] bool faulted() const { return cfi_fault_; }
  /// Raise the CFI violation exception (from the CFI Log Writer).
  void raise_cfi_fault();

  /// Install a PMP checker consulted on every data access (paper Sec. VI:
  /// the CFI Mailbox region is inhibited for host software).  Null disables
  /// checking.  A denied access halts the core with an access fault.
  void set_pmp(const soc::Pmp* pmp) { pmp_ = pmp; }
  [[nodiscard]] bool access_fault() const { return access_fault_; }

  [[nodiscard]] Cycle cycle() const { return cycle_; }
  [[nodiscard]] std::uint64_t instret() const { return instret_; }
  [[nodiscard]] std::uint64_t reg(unsigned index) const { return regs_[index]; }
  void set_reg(unsigned index, std::uint64_t value) {
    if (index != 0) regs_[index] = value;
  }
  [[nodiscard]] std::uint64_t pc() const { return pc_; }

  /// Cycle-stamped trace of every retired instruction, in retirement order.
  [[nodiscard]] const std::vector<CommitRecord>& trace() const { return trace_; }
  /// Discard the trace (long co-sim runs that only need statistics).
  void set_trace_enabled(bool enabled) { trace_enabled_ = enabled; }

  /// Commit-stall cycles observed (cycles where ready work retired short).
  [[nodiscard]] std::uint64_t stall_cycles() const { return stall_cycles_; }

  /// Decoded-instruction cache (PC-indexed, validated against the raw fetch
  /// window, so self-modifying stores and Memory::load invalidate exactly).
  [[nodiscard]] const sim::DecodeCache& decode_cache() const {
    return decode_cache_;
  }
  /// Disable to force a full rv::decode per fetch (the seed behaviour, kept
  /// for before/after benchmarking).
  void set_decode_cache_enabled(bool enabled) { decode_cache_enabled_ = enabled; }

  /// Checkpoint support.  Serializes architectural state, the ROB in logical
  /// (oldest-first) order with full decoded entries, the commit trace, the
  /// decode-cache contents, and every counter a RunReport reads.  Memory is
  /// captured separately by the owning SoC; the fetch-page cache is reset on
  /// load (stat-neutral).
  void save_state(sim::SnapshotWriter& writer) const;
  void load_state(sim::SnapshotReader& reader);

 private:
  struct RobEntry {
    ScoreboardEntry entry;
    Cycle ready = 0;
  };

  // The ROB is a fixed-capacity ring (hardware-faithful: rob_depth slots,
  // in-order alloc/retire), which keeps the per-instruction hot path free of
  // deque block management and entry copies — issue_one() constructs each
  // entry in place in its slot.  Wrapping compares against the configured
  // depth, not a container size, so a probe costs one add and one compare.
  [[nodiscard]] RobEntry& rob_at(std::size_t index) {
    std::size_t slot = rob_head_ + index;
    if (slot >= config_.rob_depth) {
      slot -= config_.rob_depth;
    }
    return rob_[slot];
  }
  void rob_pop_front() {
    if (++rob_head_ >= config_.rob_depth) {
      rob_head_ = 0;
    }
    --rob_size_;
  }

  /// Functionally execute the next instruction and append it to the ROB.
  /// Both are compiled into their callers (tick and run_until_event, in
  /// core.cpp), so an instruction costs no call on the hot path; only the
  /// rare paths (decode miss, fetch refill, PMP denial, the budget throw)
  /// are calls.
  [[gnu::always_inline]] inline void issue_one();
  [[gnu::always_inline]] inline void execute(
      const sim::DecodeCache::Entry& decoded, ScoreboardEntry& entry);
  /// Halt on a PMP-denied data access (the 0xACC access fault).
  [[gnu::noinline]] void deny_access(ScoreboardEntry& entry);
  /// The 4-byte fetch window at `pc`: one probe of the hoisted page on a
  /// hit, the full memory path otherwise.
  [[nodiscard]] std::uint32_t fetch_window(std::uint64_t pc) {
    std::uint32_t window;
    if (fetch_cache_.lookup(pc, &window)) [[likely]] {
      return window;
    }
    return fetch_refill(pc);
  }
  /// fetch_window's miss: install the page, or take the full memory path.
  [[gnu::noinline]] std::uint32_t fetch_refill(std::uint64_t pc);
  /// The reference path's decode (cache disabled), into uncached_.
  [[gnu::noinline]] const sim::DecodeCache::Entry& decode_uncached(
      std::uint32_t window);
  void record_commit(const ScoreboardEntry& entry);

  Cva6Config config_;
  sim::Memory& memory_;

  std::uint64_t regs_[32]{};
  std::uint64_t pc_;
  bool halted_ = false;
  bool cfi_fault_ = false;
  bool access_fault_ = false;
  const soc::Pmp* pmp_ = nullptr;
  std::uint64_t exit_code_ = 0;

  Cycle cycle_ = 0;
  Cycle issue_ready_ = 0;  ///< Next cycle the issue stage may accept work.
  std::uint64_t instret_ = 0;
  /// Execute cycles indexed by sim::LatencyClass (ALU, load, store, mul,
  /// div), from the config.
  std::uint32_t latency_[sim::kLatencyClasses];
  std::unique_ptr<RobEntry[]> rob_;  ///< Ring storage, rob_depth slots.
  std::size_t rob_head_ = 0;       ///< Slot of the oldest live entry.
  std::size_t rob_size_ = 0;       ///< Live entries.
  std::size_t rob_cfi_count_ = 0;  ///< CFI-relevant entries currently live.
  std::vector<ScoreboardEntry> candidates_;
  std::vector<CommitRecord> trace_;
  bool trace_enabled_ = true;
  std::uint64_t stall_cycles_ = 0;
  sim::DecodeCache decode_cache_{rv::Xlen::k64};
  bool decode_cache_enabled_ = true;
  /// The decode of the reference path (cache disabled), in a member so the
  /// cached path pays nothing for it.
  sim::DecodeCache::Entry uncached_;
  /// Hoisted fetch-page probe (see sim::FetchPageCache).
  sim::FetchPageCache fetch_cache_;
};

}  // namespace titan::cva6
