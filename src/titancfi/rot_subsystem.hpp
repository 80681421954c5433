// OpenTitan RoT subsystem model: Ibex + TL-UL fabric + private SRAM/ROM +
// PLIC + HMAC accelerator + TL2AXI bridge window onto the host domain.
//
// Latency calibration (paper Sec. V-B):
//   * RoT private scratchpad: ~5 cycles per access  (TL hop 3 + SRAM 1 + core 1)
//   * SoC memory through the TL2AXI bridge: ~12 cycles (TL hop 3 + bridge 8 + core 1)
//   * "Optimized" RoT (redesigned low-latency interconnect): scratchpad in a
//     single cycle, SoC memory in ~8 cycles.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "ibex/core.hpp"
#include "ibex/rom.hpp"
#include "rv/assembler.hpp"
#include "sim/memory.hpp"
#include "sim/snapshot.hpp"
#include "soc/bus.hpp"
#include "soc/hmac_mmio.hpp"
#include "soc/mailbox.hpp"
#include "soc/memmap.hpp"
#include "soc/plic.hpp"

namespace titan::cfi {

/// RoT interconnect generation (paper Table I sections).
enum class RotFabric {
  kBaseline,   ///< Stock OpenTitan TL-UL fabric (5 / 12 cycle accesses).
  kOptimized,  ///< Low-latency interconnect (1 / 8 cycle accesses).
};

/// RoT-private PLIC (address defined with the rest of the map).
inline constexpr soc::Region kRotPlic = soc::kRotPlic;
/// Doorbell interrupt source id on the RoT PLIC.
inline constexpr unsigned kCfiDoorbellIrq = 1;
/// Device secret the RoT's key slots derive from (model value; the silicon
/// part keeps this in OTP).  Shared with the host-side Log Writer model so
/// batched drains can be MAC'd end to end (soc::derive_slot_key).
inline constexpr std::uint64_t kRotDeviceSecret = 0x0123'4567'89AB'CDEFULL;
/// Key slot used to authenticate batched commit-log transfers.
inline constexpr std::uint32_t kBatchMacKeySlot = 1;

class RotSubsystem {
 public:
  /// `firmware`: the ROM image, shared read-only with every other SoC built
  /// from it.  `mailbox`: the CFI mailbox (lives in the host domain; reached
  /// through the TL2AXI bridge).  `soc_memory`: host DRAM (spill arena lives
  /// there).
  RotSubsystem(std::shared_ptr<const ibex::FirmwareRom> firmware,
               RotFabric fabric, soc::Mailbox& mailbox,
               sim::Memory& soc_memory);

  /// Step the Ibex core once; returns the step record.
  ibex::IbexStep step();

  /// Run until the Ibex clock reaches `target` (fast-forwards sleep time).
  /// With `stop_on_completion`, return right after the first step that
  /// raises the mailbox completion instead, yielding the Ibex cycle that
  /// step started at (the event engine's back-pressure windows end there).
  std::optional<sim::Cycle> run_until(sim::Cycle target,
                                      bool stop_on_completion = false);

  /// Fault seam: freeze the Ibex pipeline for `width` cycles starting at the
  /// current Ibex clock (the clock still advances; no instruction executes).
  /// Anchored to the — engine-invariant — Ibex clock at injection time, so
  /// both co-simulation engines observe the identical stall window.
  void inject_stall(sim::Cycle width) {
    stall_until_ = core_->cycle() + width;
    stalled_cycles_ += width;
  }
  [[nodiscard]] std::uint64_t stalled_cycles() const { return stalled_cycles_; }

  [[nodiscard]] ibex::IbexCore& core() { return *core_; }
  [[nodiscard]] soc::Plic& plic() { return plic_; }
  [[nodiscard]] soc::Crossbar& fabric() { return tlul_; }
  [[nodiscard]] const soc::HmacMmio& hmac() const { return *hmac_; }
  void set_mac_memo(crypto::MacMemo* memo) { hmac_->set_mac_memo(memo); }
  [[nodiscard]] sim::Memory& sram() { return sram_; }
  [[nodiscard]] const rv::Image& firmware() const { return rom_->image(); }

  /// Firmware section of a PC (see ibex::FirmwareRom::section_of); Table I
  /// attribution.
  [[nodiscard]] std::string section_of(std::uint32_t pc) const {
    return rom_->section_of(pc);
  }

  /// Checkpoint support.  SRAM is captured as a CoW memory image; everything
  /// else (core, PLIC, fabric counter, HMAC block, stall window) rides the
  /// flat state stream.  The ROM is config-derived and read-only, so it is
  /// not serialized.
  void capture(sim::Snapshot& snapshot, sim::SnapshotWriter& writer) const;
  void restore(const sim::Snapshot& snapshot, std::size_t memory_base,
               sim::SnapshotReader& reader);
  /// Memory images this subsystem appends to a snapshot (SRAM).
  static constexpr std::size_t kMemoryImages = 1;

 private:
  std::shared_ptr<const ibex::FirmwareRom> rom_;
  soc::Mailbox& mailbox_;
  sim::Memory sram_;
  soc::RomTarget rom_target_;
  soc::MemoryTarget sram_target_{sram_};
  soc::MemoryTarget soc_mem_target_;
  soc::Plic plic_{4};
  soc::Crossbar tlul_;
  std::unique_ptr<soc::HmacMmio> hmac_;
  std::unique_ptr<ibex::IbexCore> core_;
  sim::Cycle stall_until_ = 0;
  std::uint64_t stalled_cycles_ = 0;
};

}  // namespace titan::cfi
