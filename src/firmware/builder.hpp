// RV32 CFI-firmware generator for the OpenTitan Ibex core.
//
// Emits, via the built-in assembler, the three firmware organisations the
// paper measures (Table I):
//   * kIrq      — interrupt-driven: WFI idle loop; the CFI mailbox doorbell
//                 wakes Ibex, the ISR spills 6 registers, claims the PLIC,
//                 runs the policy, completes, restores, MRET (Sec. IV-C);
//   * kPolling  — busy-waits on the doorbell register, paying no IRQ
//                 entry/exit cost (Sec. V-B "Polling");
//   * the "Optimized" configuration reuses the kPolling image on the
//     low-latency RoT fabric (RotFabric::kOptimized) — it is an interconnect
//     change, not a firmware change.
//
// The generated policy is the shadow-stack return-address protection with
// HMAC-authenticated spill/fill, mirroring firmware/shadow_stack.hpp
// instruction-for-instruction (differential tests enforce agreement).
//
// Section marks (consumed by Table I attribution and the RotSubsystem):
//   "init"  — reset/bring-up code;
//   "main"  — idle loop (WFI or doorbell poll; excluded from per-op cost);
//   "irq"   — ISR prologue (register spill, PLIC claim, doorbell ack);
//   "cfi"   — the policy body (decode, shadow-stack update, verdict);
//   "spill" / "fill" — overflow/underflow slow paths;
//   "irq_exit" — ISR epilogue (PLIC complete, restore, MRET).
#pragma once

#include <compare>
#include <memory>

#include "rv/assembler.hpp"

namespace titan::ibex {
class FirmwareRom;
}  // namespace titan::ibex

namespace titan::fw {

enum class FwVariant { kIrq, kPolling };

struct FirmwareConfig {
  FwVariant variant = FwVariant::kIrq;
  unsigned ss_capacity = 32;  ///< On-chip shadow-stack entries (words).
  unsigned spill_block = 16;  ///< Entries per spilled segment.
  /// Also enforce forward edges: indirect jumps and register-indirect calls
  /// must target an entry of the jump table at FwLayout::kJumpTable (count
  /// word followed by 32-bit targets, written into RoT SRAM by the host at
  /// protection-domain setup).  An empty table permits everything, so the
  /// feature is inert until provisioned.  Off by default to keep Table I's
  /// fast path identical to the paper's.
  bool enable_jump_table = false;
  /// Commit logs processed per doorbell.  1 (default) emits the paper's
  /// single-log firmware byte-for-byte; > 1 emits the burst loop: per
  /// IRQ/poll the firmware reads BATCH_COUNT, optionally verifies the Log
  /// Writer's burst MAC on the HMAC accelerator, then runs the policy over
  /// every batch slot before writing one verdict + completion.  Must be >=
  /// the Log Writer's configured burst (soc::Mailbox::kBatchSlots at most).
  unsigned batch_capacity = 1;
  /// Verify the burst MAC before trusting the batch slots (batch mode only;
  /// match the Log Writer's mac_batches).  One accelerator pass per burst —
  /// the per-log MAC cost shrinks with the batch thanks to HMAC's fixed
  /// 2-block pad overhead being paid once.
  bool batch_mac = true;
  /// Idempotent doorbell handshake (batch mode only): zero BATCH_COUNT the
  /// moment a burst is serviced, before writing the verdict.  A doorbell
  /// re-rung by the Log Writer's watchdog after a slow-but-successful check
  /// then reads count == 0 and takes the existing spurious-doorbell path
  /// (safe verdict + completion) instead of re-running the policy over a
  /// stale batch — which would corrupt the shadow stack.  Required by (and
  /// cross-checked against) a SocConfig with a doorbell watchdog.
  bool retry_handshake = false;
  /// On a burst-MAC mismatch answer the re-request verdict (2) instead of a
  /// blame-slot-0 violation, asking the Log Writer to retransmit the batch.
  /// Requires batch_mac; cross-checked against SocConfig::mac_rerequest.
  bool mac_rerequest = false;

  auto operator<=>(const FirmwareConfig&) const = default;
};

/// Firmware data layout in the RoT private SRAM.
struct FwLayout {
  static constexpr std::uint32_t kVars = 0x2000'0000;       // variable block
  static constexpr std::uint32_t kSsPtr = kVars + 0;        // current top
  static constexpr std::uint32_t kDepth = kVars + 4;        // live entries
  static constexpr std::uint32_t kSpillPtr = kVars + 8;     // next arena slot
  static constexpr std::uint32_t kSpillCount = kVars + 12;  // spilled segments
  static constexpr std::uint32_t kSsBase = 0x2000'0100;     // stack storage
  /// Forward-edge jump table: [count][target0][target1]... (32-bit words).
  static constexpr std::uint32_t kJumpTable = 0x2000'0800;
};

[[nodiscard]] rv::Image build_firmware(const FirmwareConfig& config);

/// The ROM of build_firmware(config), built once per distinct config and
/// shared process-wide while any holder keeps it alive (thread-safe).
[[nodiscard]] std::shared_ptr<const ibex::FirmwareRom> shared_rom(
    const FirmwareConfig& config);

}  // namespace titan::fw
