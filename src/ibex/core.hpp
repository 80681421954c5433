// Ibex model: RV32IMC instruction-set simulator with the cycle model of the
// OpenTitan secure microcontroller (paper Sec. III-B).
//
// Timing parameters follow the paper's own measurements:
//   * 45 cycles from doorbell assertion to the first ISR instruction when
//     waking from sleep (Sec. V-B: "it takes 45 cycles from when the host
//     core set the doorbell interrupt bit ... to when the Ibex core wakes
//     up from sleep");
//   * ~5 cycles per RoT-private scratchpad access, ~12 cycles per SoC-memory
//     access through the TL2AXI bridge (both come from the bus model);
//   * 2-stage pipeline: taken branches/jumps refetch (+2 cycles);
//   * single-cycle multiplier, 37-cycle iterative divider (Ibex default).
//
// All memory traffic goes through a soc::Crossbar, so the Mem.RoT / Mem.SoC
// attribution of Table I falls out of the address map.
#pragma once

#include <cstdint>
#include <optional>

#include "ibex/rom.hpp"
#include "rv/isa.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "soc/bus.hpp"

namespace titan::ibex {

using sim::Addr;
using sim::Cycle;

/// mstatus/mie bit positions used by the model.
inline constexpr std::uint32_t kMstatusMie = 1u << 3;
inline constexpr std::uint32_t kMstatusMpie = 1u << 7;
inline constexpr std::uint32_t kMieMeie = 1u << 11;
inline constexpr std::uint32_t kMcauseExtIrq = 0x8000000Bu;

struct IbexConfig {
  std::uint32_t reset_pc = 0;
  std::uint32_t reset_sp = 0;
  /// Doorbell-to-ISR latency when the core sleeps in WFI.
  std::uint32_t wakeup_latency = 45;
  /// Trap entry cost when the core is awake (pipeline flush + vector fetch).
  std::uint32_t trap_entry_latency = 4;
  std::uint32_t taken_cf_penalty = 2;  ///< Extra cycles for taken branch/jump.
  std::uint32_t mul_cycles = 1;
  std::uint32_t div_cycles = 37;
};

/// One retired instruction with its timing, for firmware cost attribution.
struct IbexStep {
  std::uint32_t pc = 0;
  Cycle cycles = 0;           ///< Total cycles charged to this step.
  Cycle mem_cycles = 0;       ///< Portion spent on the data-memory access.
  std::optional<Addr> mem_addr;  ///< Effective address of a load/store.
  bool irq_entry = false;     ///< This step was a trap entry, not an insn.
  bool retired = true;
};

class IbexCore {
 public:
  /// `rom` (may be null): pre-decoded code the core executes from without
  /// fetching; it must stay alive, and its bytes must be what `bus` reads at
  /// its addresses, for the core's lifetime.
  IbexCore(const IbexConfig& config, soc::Crossbar& bus,
           const FirmwareRom* rom = nullptr);

  /// Execute one step (instruction or trap entry) and advance the clock.
  IbexStep step();

  /// Execute steps, without a record, while cycle() < target.  Returns after
  /// the first step that may have changed what the caller must re-read — a
  /// trap entry, a bus access outside the RoT's private SRAM (plain RAM, so
  /// no device sees it), a CSR access, mret, wfi or a halt — or that reached
  /// `target`, yielding the cycle that step started at.  Call only when not
  /// halted; the interrupt line is the caller's to keep current between
  /// calls.
  Cycle run(Cycle target);

  /// Level-triggered external interrupt line (from the RoT PLIC).
  void set_irq_line(bool asserted) { irq_line_ = asserted; }
  [[nodiscard]] bool irq_line() const { return irq_line_; }

  [[nodiscard]] bool sleeping() const { return sleeping_; }
  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] Cycle cycle() const { return cycle_; }
  [[nodiscard]] std::uint64_t instret() const { return instret_; }
  [[nodiscard]] std::uint32_t pc() const { return pc_; }
  void set_pc(std::uint32_t pc) { pc_ = pc; }

  [[nodiscard]] std::uint32_t reg(unsigned index) const { return regs_[index]; }
  void set_reg(unsigned index, std::uint32_t value) {
    if (index != 0) regs_[index] = value;
  }

  [[nodiscard]] std::uint32_t csr(std::uint32_t number) const;
  void set_csr(std::uint32_t number, std::uint32_t value);

  /// Fast-forward the clock while asleep (the SoC top level uses this to
  /// skip idle RoT time between doorbells).
  void advance_clock(Cycle cycles) { cycle_ += cycles; }

  /// Instructions fetched and decoded outside the ROM table (RAM, or a ROM
  /// address the sweep did not reach).  An execution statistic, not state:
  /// absent from snapshots and reports.
  [[nodiscard]] std::uint64_t off_rom_instructions() const {
    return off_rom_instructions_;
  }

  /// Checkpoint support: architectural registers, CSRs, clock and the
  /// interrupt-line, sleep and halt flags.
  void save_state(sim::SnapshotWriter& writer) const {
    for (const std::uint32_t reg : regs_) {
      writer.u32(reg);
    }
    writer.u32(pc_);
    writer.u64(cycle_);
    writer.u64(instret_);
    writer.u32(mstatus_);
    writer.u32(mie_);
    writer.u32(mtvec_);
    writer.u32(mscratch_);
    writer.u32(mepc_);
    writer.u32(mcause_);
    writer.boolean(irq_line_);
    writer.boolean(sleeping_);
    writer.boolean(halted_);
  }
  void load_state(sim::SnapshotReader& reader) {
    for (std::uint32_t& reg : regs_) {
      reg = reader.u32();
    }
    pc_ = reader.u32();
    cycle_ = reader.u64();
    instret_ = reader.u64();
    mstatus_ = reader.u32();
    mie_ = reader.u32();
    mtvec_ = reader.u32();
    mscratch_ = reader.u32();
    mepc_ = reader.u32();
    mcause_ = reader.u32();
    irq_line_ = reader.boolean();
    sleeping_ = reader.boolean();
    halted_ = reader.boolean();
  }

 private:
  /// What execute() did beyond the architectural state: the cycles it
  /// charged, its data access, and whether run() must return after it.
  struct Effect {
    Cycle cycles = 1;
    Cycle mem_cycles = 0;
    Addr mem_addr = 0;
    bool accessed = false;
    bool event = false;
  };

  [[nodiscard]] bool irq_pending() const {
    return irq_line_ && (mstatus_ & kMstatusMie) != 0 && (mie_ & kMieMeie) != 0;
  }
  /// Trap entry; returns the cycles it charged.
  Cycle take_trap();
  /// The decoded instruction at pc_: the ROM table entry, or an exact
  /// crossbar fetch plus rv::decode.
  [[nodiscard]] const rv::Inst& fetch();
  const rv::Inst& fetch_slow();
  void execute(const rv::Inst& inst, Effect& effect);

  IbexConfig config_;
  soc::Crossbar& bus_;

  std::uint32_t regs_[32]{};
  std::uint32_t pc_;
  Cycle cycle_ = 0;
  std::uint64_t instret_ = 0;

  // Machine-mode CSRs (modelled subset).
  std::uint32_t mstatus_ = 0;
  std::uint32_t mie_ = 0;
  std::uint32_t mtvec_ = 0;
  std::uint32_t mscratch_ = 0;
  std::uint32_t mepc_ = 0;
  std::uint32_t mcause_ = 0;

  bool irq_line_ = false;
  bool sleeping_ = false;
  bool halted_ = false;

  /// The ROM table (null when there is none) and its halfword slot count.
  const rv::Inst* rom_table_ = nullptr;
  std::uint32_t rom_base_ = 0;
  std::uint32_t rom_slots_ = 0;
  /// Decoded form of the last off-table fetch.
  rv::Inst slow_inst_;
  std::uint64_t off_rom_instructions_ = 0;
};

}  // namespace titan::ibex
