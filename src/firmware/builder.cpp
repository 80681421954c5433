#include "firmware/builder.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "ibex/rom.hpp"
#include "rv/isa.hpp"
#include "soc/hmac_mmio.hpp"
#include "soc/mailbox.hpp"
#include "soc/memmap.hpp"
#include "soc/plic.hpp"
#include "titancfi/rot_subsystem.hpp"

namespace titan::fw {

namespace {

using rv::Assembler;
using rv::Reg;

// Mailbox register byte offsets (see cfi::CommitLog::pack()).  The
// per-field offsets are relative to the log's first beat, so they hold both
// for the legacy single-log area (base + 0) and for every batch slot.
constexpr std::int32_t kMbResult = 0x00;     // verdict goes to data[0] low
constexpr std::int32_t kMbEncoding = 0x08;   // beat1 low  = encoding
constexpr std::int32_t kMbNextLo = 0x0C;     // beat1 high = next[31:0]
constexpr std::int32_t kMbTargetLo = 0x14;   // beat2 high = target[31:0]
constexpr std::int32_t kMbDoorbell = 0x40;
constexpr std::int32_t kMbCompletion = 0x48;
constexpr std::int32_t kMbBatchCount = 0x50;
constexpr std::int32_t kMbBatchMac = 0x60;
constexpr std::int32_t kMbBatchBase = 0x80;
constexpr std::int32_t kMbSlotStride = 0x20;

// Accelerator register byte offsets.
constexpr std::int32_t kAccCmd = 0x00;
constexpr std::int32_t kAccStatus = 0x04;
constexpr std::int32_t kAccSrc = 0x08;
constexpr std::int32_t kAccLen = 0x0C;
constexpr std::int32_t kAccKeySel = 0x10;
constexpr std::int32_t kAccDigest = 0x20;

/// Emit the shadow-stack policy subroutine.  Calling convention: clobbers
/// t0-t5, a0, a1 (the ISR spills this set); returns via ra.
///
/// Register roles in the fast path:
///   t0 = CFI mailbox base      t1 = instruction encoding
///   t2 = variable block base   t3 = bound / scratch
///   a0 = shadow-stack pointer  a1 = return address / target
///
/// `batched` changes the interface, not the checks: the caller preloads t0
/// with the batch-slot base (the per-field offsets are slot-relative either
/// way) and the verdict comes back in a0 (0 = safe, 1 = violation) instead
/// of being written to the mailbox result/completion registers — the burst
/// loop accumulates verdicts and completes once per doorbell.
void emit_policy(Assembler& a, const FirmwareConfig& config,
                 bool batched = false) {
  const std::int32_t ss_end =
      static_cast<std::int32_t>(FwLayout::kSsBase + config.ss_capacity * 4);
  const std::int32_t block_bytes =
      static_cast<std::int32_t>(config.spill_block * 4);
  const std::int32_t segment_bytes = 32 + block_bytes;

  auto policy = a.here();
  (void)policy;
  auto jal_path = a.new_label();
  auto do_call = a.new_label();
  auto call_push = a.new_label();
  auto do_ret = a.new_label();
  auto ret_pop = a.new_label();
  auto do_ijump = a.new_label();
  auto jt_check = a.new_label();
  auto do_spill = a.new_label();
  auto do_fill = a.new_label();
  auto fill_tamper = a.new_label();
  auto verdict_ok = a.new_label();
  auto verdict_bad = a.new_label();

  // ---- Decode the uncompressed encoding (paper Sec. IV-C) -----------------
  if (!batched) {
    a.li(Reg::kT0, soc::kCfiMailbox.base);
  }
  a.lw(Reg::kT1, Reg::kT0, kMbEncoding);       // SoC access
  a.andi(Reg::kT2, Reg::kT1, 0x7F);            // opcode
  a.li(Reg::kA1, 0x6F);
  a.beq(Reg::kT2, Reg::kA1, jal_path);         // JAL
  a.li(Reg::kA1, 0x67);
  a.bne(Reg::kT2, Reg::kA1, verdict_ok);       // not a checked CF op
  // JALR: rd = enc[11:7], rs1 = enc[19:15].
  a.srli(Reg::kA0, Reg::kT1, 7);
  a.andi(Reg::kA0, Reg::kA0, 31);
  a.li(Reg::kA1, 1);
  a.beq(Reg::kA0, Reg::kA1, do_call);          // jalr ra, ...
  a.li(Reg::kA1, 5);
  a.beq(Reg::kA0, Reg::kA1, do_call);          // jalr t0, ...
  a.bnez(Reg::kA0, do_ijump);                  // links elsewhere
  a.srli(Reg::kA0, Reg::kT1, 15);
  a.andi(Reg::kA0, Reg::kA0, 31);
  a.li(Reg::kA1, 1);
  a.beq(Reg::kA0, Reg::kA1, do_ret);           // jalr x0, 0(ra)
  a.li(Reg::kA1, 5);
  a.beq(Reg::kA0, Reg::kA1, do_ret);           // jalr x0, 0(t0)
  a.j(do_ijump);

  a.bind(jal_path);
  a.srli(Reg::kA0, Reg::kT1, 7);
  a.andi(Reg::kA0, Reg::kA0, 31);
  a.li(Reg::kA1, 1);
  a.beq(Reg::kA0, Reg::kA1, do_call);
  a.li(Reg::kA1, 5);
  a.beq(Reg::kA0, Reg::kA1, do_call);
  a.j(verdict_ok);                             // direct jump: not checked

  // ---- CALL: push the return site ------------------------------------------
  a.bind(do_call);
  a.lw(Reg::kA1, Reg::kT0, kMbNextLo);         // SoC: return address
  a.li(Reg::kT2, FwLayout::kVars);
  a.lw(Reg::kA0, Reg::kT2, 0);                 // RoT: ss_ptr
  a.li(Reg::kT3, ss_end);
  a.bgeu(Reg::kA0, Reg::kT3, do_spill);        // overflow -> spill
  a.bind(call_push);
  a.sw(Reg::kA1, Reg::kA0, 0);                 // RoT: push
  a.addi(Reg::kA0, Reg::kA0, 4);
  a.sw(Reg::kA0, Reg::kT2, 0);                 // RoT: ss_ptr
  a.lw(Reg::kT4, Reg::kT2, 4);                 // RoT: depth
  a.addi(Reg::kT4, Reg::kT4, 1);
  a.sw(Reg::kT4, Reg::kT2, 4);                 // RoT: depth
  if (config.enable_jump_table) {
    // Register-indirect calls also get the forward-edge check (the encoding
    // is still live in t1).
    a.andi(Reg::kT3, Reg::kT1, 0x7F);
    a.li(Reg::kT4, 0x67);
    a.beq(Reg::kT3, Reg::kT4, jt_check);
  }
  a.j(verdict_ok);

  // ---- RETURN: pop and compare ----------------------------------------------
  a.bind(do_ret);
  a.lw(Reg::kA1, Reg::kT0, kMbTargetLo);       // SoC: actual target
  a.li(Reg::kT2, FwLayout::kVars);
  a.lw(Reg::kA0, Reg::kT2, 0);                 // RoT: ss_ptr
  a.li(Reg::kT3, FwLayout::kSsBase);
  a.beq(Reg::kA0, Reg::kT3, do_fill);          // empty -> restore from DRAM
  a.bind(ret_pop);
  a.addi(Reg::kA0, Reg::kA0, -4);
  a.lw(Reg::kT4, Reg::kA0, 0);                 // RoT: pop expected
  a.sw(Reg::kA0, Reg::kT2, 0);                 // RoT: ss_ptr
  a.lw(Reg::kT5, Reg::kT2, 4);                 // RoT: depth
  a.addi(Reg::kT5, Reg::kT5, -1);
  a.sw(Reg::kT5, Reg::kT2, 4);                 // RoT: depth
  a.bne(Reg::kT4, Reg::kA1, verdict_bad);      // ROP detected
  a.j(verdict_ok);

  // ---- Indirect jumps -------------------------------------------------------
  // Unconstrained under pure return-address protection; validated against
  // the provisioned jump table when forward-edge enforcement is on.
  a.bind(do_ijump);
  if (!config.enable_jump_table) {
    a.j(verdict_ok);
  } else {
    a.bind(jt_check);
    a.lw(Reg::kA1, Reg::kT0, kMbTargetLo);     // SoC: actual target
    a.li(Reg::kT2, FwLayout::kJumpTable);
    a.lw(Reg::kT3, Reg::kT2, 0);               // RoT: entry count
    a.beqz(Reg::kT3, verdict_ok);              // empty table: inert
    {
      auto scan = a.new_label();
      a.bind(scan);
      a.lw(Reg::kT4, Reg::kT2, 4);             // RoT: next entry
      a.addi(Reg::kT2, Reg::kT2, 4);
      a.beq(Reg::kT4, Reg::kA1, verdict_ok);   // registered target
      a.addi(Reg::kT3, Reg::kT3, -1);
      a.bnez(Reg::kT3, scan);
    }
    a.j(verdict_bad);                          // unregistered forward edge
  }

  // ---- Verdict write-back ------------------------------------------------------
  if (!batched) {
    a.bind(verdict_ok);
    a.sw(Reg::kZero, Reg::kT0, kMbResult);       // SoC: verdict = safe
    a.li(Reg::kA1, 1);
    a.sw(Reg::kA1, Reg::kT0, kMbCompletion);     // SoC: completion
    a.ret();
    a.bind(verdict_bad);
    a.li(Reg::kA1, 1);
    a.sw(Reg::kA1, Reg::kT0, kMbResult);         // SoC: verdict = violation
    a.sw(Reg::kA1, Reg::kT0, kMbCompletion);     // SoC: completion
    a.ret();
  } else {
    a.bind(verdict_ok);
    a.li(Reg::kA0, 0);                           // verdict in a0, no MMIO
    a.ret();
    a.bind(verdict_bad);
    a.li(Reg::kA0, 1);
    a.ret();
  }

  // ---- Overflow spill (slow path) -------------------------------------------
  // Authenticates the oldest `spill_block` entries with the HMAC engine,
  // copies [MAC | entries] into the DRAM arena, slides the remainder down,
  // then resumes the push.  Extra scratch registers are preserved here so the
  // fast path keeps the paper's 6-register ISR frame.
  a.mark("spill");
  a.bind(do_spill);
  a.addi(Reg::kSp, Reg::kSp, -24);
  a.sw(Reg::kA2, Reg::kSp, 0);
  a.sw(Reg::kA3, Reg::kSp, 4);
  a.sw(Reg::kA4, Reg::kSp, 8);
  a.sw(Reg::kA5, Reg::kSp, 12);
  a.sw(Reg::kT6, Reg::kSp, 16);
  a.li(Reg::kA2, soc::kRotHmacAccel.base);
  a.li(Reg::kA3, FwLayout::kSsBase);
  a.sw(Reg::kA3, Reg::kA2, kAccSrc);
  a.li(Reg::kA4, block_bytes);
  a.sw(Reg::kA4, Reg::kA2, kAccLen);
  a.sw(Reg::kZero, Reg::kA2, kAccKeySel);
  a.li(Reg::kA4, 1);
  a.sw(Reg::kA4, Reg::kA2, kAccCmd);
  {
    auto wait = a.here();
    a.lw(Reg::kA4, Reg::kA2, kAccStatus);
    a.beqz(Reg::kA4, wait);
  }
  a.lw(Reg::kA5, Reg::kT2, 8);  // spill_ptr
  // Copy the 8 digest words accel -> arena.
  a.addi(Reg::kA3, Reg::kA2, kAccDigest);
  a.mv(Reg::kA4, Reg::kA5);
  a.li(Reg::kT6, 8);
  {
    auto loop = a.here();
    a.lw(Reg::kT4, Reg::kA3, 0);
    a.sw(Reg::kT4, Reg::kA4, 0);
    a.addi(Reg::kA3, Reg::kA3, 4);
    a.addi(Reg::kA4, Reg::kA4, 4);
    a.addi(Reg::kT6, Reg::kT6, -1);
    a.bnez(Reg::kT6, loop);
  }
  // Copy the spilled entries RoT SRAM -> arena.
  a.li(Reg::kA3, FwLayout::kSsBase);
  a.li(Reg::kT6, static_cast<std::int32_t>(config.spill_block));
  {
    auto loop = a.here();
    a.lw(Reg::kT4, Reg::kA3, 0);
    a.sw(Reg::kT4, Reg::kA4, 0);
    a.addi(Reg::kA3, Reg::kA3, 4);
    a.addi(Reg::kA4, Reg::kA4, 4);
    a.addi(Reg::kT6, Reg::kT6, -1);
    a.bnez(Reg::kT6, loop);
  }
  // Slide the remaining entries to the bottom.
  a.li(Reg::kA3, FwLayout::kSsBase);
  a.li(Reg::kA4, static_cast<std::int64_t>(FwLayout::kSsBase) + block_bytes);
  a.li(Reg::kT6,
       static_cast<std::int32_t>(config.ss_capacity - config.spill_block));
  {
    auto loop = a.here();
    a.lw(Reg::kT4, Reg::kA4, 0);
    a.sw(Reg::kT4, Reg::kA3, 0);
    a.addi(Reg::kA3, Reg::kA3, 4);
    a.addi(Reg::kA4, Reg::kA4, 4);
    a.addi(Reg::kT6, Reg::kT6, -1);
    a.bnez(Reg::kT6, loop);
  }
  // Bump spill_ptr / spill_count, drop ss_ptr by one block.
  a.lw(Reg::kA5, Reg::kT2, 8);
  a.addi(Reg::kA5, Reg::kA5, segment_bytes);
  a.sw(Reg::kA5, Reg::kT2, 8);
  a.lw(Reg::kA5, Reg::kT2, 12);
  a.addi(Reg::kA5, Reg::kA5, 1);
  a.sw(Reg::kA5, Reg::kT2, 12);
  a.lw(Reg::kA0, Reg::kT2, 0);
  a.addi(Reg::kA0, Reg::kA0, -block_bytes);
  a.lw(Reg::kA2, Reg::kSp, 0);
  a.lw(Reg::kA3, Reg::kSp, 4);
  a.lw(Reg::kA4, Reg::kSp, 8);
  a.lw(Reg::kA5, Reg::kSp, 12);
  a.lw(Reg::kT6, Reg::kSp, 16);
  a.addi(Reg::kSp, Reg::kSp, 24);
  a.j(call_push);

  // ---- Underflow fill (slow path) --------------------------------------------
  a.mark("fill");
  a.bind(do_fill);
  a.lw(Reg::kT4, Reg::kT2, 12);                // spill_count
  a.beqz(Reg::kT4, verdict_bad);               // true underflow
  a.addi(Reg::kSp, Reg::kSp, -24);
  a.sw(Reg::kA2, Reg::kSp, 0);
  a.sw(Reg::kA3, Reg::kSp, 4);
  a.sw(Reg::kA4, Reg::kSp, 8);
  a.sw(Reg::kA5, Reg::kSp, 12);
  a.sw(Reg::kT6, Reg::kSp, 16);
  a.lw(Reg::kA5, Reg::kT2, 8);
  a.addi(Reg::kA5, Reg::kA5, -segment_bytes);  // segment base
  // Restore entries arena -> RoT SRAM.
  a.addi(Reg::kA4, Reg::kA5, 32);
  a.li(Reg::kA3, FwLayout::kSsBase);
  a.li(Reg::kT6, static_cast<std::int32_t>(config.spill_block));
  {
    auto loop = a.here();
    a.lw(Reg::kT4, Reg::kA4, 0);
    a.sw(Reg::kT4, Reg::kA3, 0);
    a.addi(Reg::kA4, Reg::kA4, 4);
    a.addi(Reg::kA3, Reg::kA3, 4);
    a.addi(Reg::kT6, Reg::kT6, -1);
    a.bnez(Reg::kT6, loop);
  }
  // Recompute the MAC over the restored block.
  a.li(Reg::kA2, soc::kRotHmacAccel.base);
  a.li(Reg::kA3, FwLayout::kSsBase);
  a.sw(Reg::kA3, Reg::kA2, kAccSrc);
  a.li(Reg::kA4, block_bytes);
  a.sw(Reg::kA4, Reg::kA2, kAccLen);
  a.sw(Reg::kZero, Reg::kA2, kAccKeySel);
  a.li(Reg::kA4, 1);
  a.sw(Reg::kA4, Reg::kA2, kAccCmd);
  {
    auto wait = a.here();
    a.lw(Reg::kA4, Reg::kA2, kAccStatus);
    a.beqz(Reg::kA4, wait);
  }
  // Constant-time compare of the 8 digest words against the stored MAC.
  a.addi(Reg::kA3, Reg::kA2, kAccDigest);
  a.mv(Reg::kA4, Reg::kA5);
  a.li(Reg::kT6, 8);
  a.li(Reg::kT3, 0);                            // accumulated difference
  {
    auto loop = a.here();
    a.lw(Reg::kT4, Reg::kA3, 0);
    a.lw(Reg::kT5, Reg::kA4, 0);
    a.xor_(Reg::kT4, Reg::kT4, Reg::kT5);
    a.or_(Reg::kT3, Reg::kT3, Reg::kT4);
    a.addi(Reg::kA3, Reg::kA3, 4);
    a.addi(Reg::kA4, Reg::kA4, 4);
    a.addi(Reg::kT6, Reg::kT6, -1);
    a.bnez(Reg::kT6, loop);
  }
  // Commit the fill: spill_ptr back, count down, ss_ptr to a full block.
  a.sw(Reg::kA5, Reg::kT2, 8);
  a.lw(Reg::kT4, Reg::kT2, 12);
  a.addi(Reg::kT4, Reg::kT4, -1);
  a.sw(Reg::kT4, Reg::kT2, 12);
  a.li(Reg::kA0, static_cast<std::int64_t>(FwLayout::kSsBase) + block_bytes);
  a.sw(Reg::kA0, Reg::kT2, 0);
  a.lw(Reg::kA2, Reg::kSp, 0);
  a.lw(Reg::kA3, Reg::kSp, 4);
  a.lw(Reg::kA4, Reg::kSp, 8);
  a.lw(Reg::kA5, Reg::kSp, 12);
  a.lw(Reg::kT6, Reg::kSp, 16);
  a.addi(Reg::kSp, Reg::kSp, 24);
  a.bnez(Reg::kT3, fill_tamper);
  a.j(ret_pop);
  a.bind(fill_tamper);
  a.j(verdict_bad);

}

/// Emit the burst-drain entry point (batch mode): verify the Log Writer's
/// burst MAC (one HMAC-accelerator pass over the whole batch, key slot
/// kBatchMacKeySlot), then run the policy over every slot, then write one
/// verdict + completion for the doorbell.  Register roles: s2 = mailbox
/// base, s3 = batch count, s4 = slot index, s5 = slot pointer; the policy
/// subroutine gets the slot base in t0 and returns its verdict in a0.
void emit_batch_entry(Assembler& a, const FirmwareConfig& config,
                      Assembler::Label policy_entry) {
  auto done_ok = a.new_label();
  auto bad = a.new_label();
  auto tamper = a.new_label();
  auto epilogue = a.new_label();
  auto loop = a.new_label();

  a.addi(Reg::kSp, Reg::kSp, -8);
  a.sw(Reg::kRa, Reg::kSp, 0);                  // calls the policy below
  a.li(Reg::kS2, soc::kCfiMailbox.base);
  a.lw(Reg::kS3, Reg::kS2, kMbBatchCount);      // SoC: burst size
  a.beqz(Reg::kS3, done_ok);                    // spurious doorbell
  if (config.batch_mac) {
    // One accelerator pass authenticates count*32 bytes; HMAC's fixed
    // two-block pad cost is paid once per burst instead of once per log.
    a.li(Reg::kA2, soc::kRotHmacAccel.base);
    a.li(Reg::kA3,
         static_cast<std::int64_t>(soc::kCfiMailbox.base) + kMbBatchBase);
    a.sw(Reg::kA3, Reg::kA2, kAccSrc);
    a.slli(Reg::kA4, Reg::kS3, 5);              // bytes = count * 32
    a.sw(Reg::kA4, Reg::kA2, kAccLen);
    a.li(Reg::kA4, static_cast<std::int32_t>(cfi::kBatchMacKeySlot));
    a.sw(Reg::kA4, Reg::kA2, kAccKeySel);
    a.li(Reg::kA4, 1);
    a.sw(Reg::kA4, Reg::kA2, kAccCmd);
    {
      auto wait = a.here();
      a.lw(Reg::kA4, Reg::kA2, kAccStatus);
      a.beqz(Reg::kA4, wait);
    }
    // Constant-time compare: accelerator digest words vs mailbox MAC words.
    a.addi(Reg::kA3, Reg::kA2, kAccDigest);
    a.li(Reg::kA4,
         static_cast<std::int64_t>(soc::kCfiMailbox.base) + kMbBatchMac);
    a.li(Reg::kT6, 8);
    a.li(Reg::kT3, 0);
    {
      auto cmp = a.here();
      a.lw(Reg::kT4, Reg::kA3, 0);              // RoT: digest word
      a.lw(Reg::kT5, Reg::kA4, 0);              // SoC: transmitted MAC word
      a.xor_(Reg::kT4, Reg::kT4, Reg::kT5);
      a.or_(Reg::kT3, Reg::kT3, Reg::kT4);
      a.addi(Reg::kA3, Reg::kA3, 4);
      a.addi(Reg::kA4, Reg::kA4, 4);
      a.addi(Reg::kT6, Reg::kT6, -1);
      a.bnez(Reg::kT6, cmp);
    }
    a.bnez(Reg::kT3, tamper);
  }
  a.li(Reg::kS4, 0);                            // slot index
  a.addi(Reg::kS5, Reg::kS2, kMbBatchBase);     // slot pointer
  a.bind(loop);
  a.mv(Reg::kT0, Reg::kS5);                     // policy: fields at t0+off
  a.jal(Reg::kRa, policy_entry);
  a.bnez(Reg::kA0, bad);                        // a0 = per-log verdict
  a.addi(Reg::kS4, Reg::kS4, 1);
  a.addi(Reg::kS5, Reg::kS5, kMbSlotStride);
  a.blt(Reg::kS4, Reg::kS3, loop);
  a.bind(done_ok);
  if (config.retry_handshake) {
    // Consume the burst before answering: a watchdog re-ring now reads
    // count == 0 and lands on the spurious-doorbell path above.
    a.sw(Reg::kZero, Reg::kS2, kMbBatchCount);
  }
  a.sw(Reg::kZero, Reg::kS2, kMbResult);        // SoC: verdict = safe
  a.li(Reg::kA1, 1);
  a.sw(Reg::kA1, Reg::kS2, kMbCompletion);      // SoC: one completion/burst
  a.j(epilogue);
  a.bind(tamper);
  if (config.mac_rerequest) {
    // Transport corruption, not a violation: ask the Log Writer to resend
    // the burst (it still holds the logs; the retransmission carries a
    // freshly computed MAC and a rewritten BATCH_COUNT).
    if (config.retry_handshake) {
      a.sw(Reg::kZero, Reg::kS2, kMbBatchCount);
    }
    a.li(Reg::kA1, 2);                          // verdict = re-request
    a.sw(Reg::kA1, Reg::kS2, kMbResult);
    a.li(Reg::kA1, 1);
    a.sw(Reg::kA1, Reg::kS2, kMbCompletion);
    a.j(epilogue);
  }
  a.li(Reg::kS4, 0);                            // MAC mismatch: blame slot 0
  a.bind(bad);
  if (config.retry_handshake) {
    a.sw(Reg::kZero, Reg::kS2, kMbBatchCount);
  }
  a.slli(Reg::kA1, Reg::kS4, 1);                // verdict = index << 1 | 1
  a.ori(Reg::kA1, Reg::kA1, 1);
  a.sw(Reg::kA1, Reg::kS2, kMbResult);
  a.li(Reg::kA1, 1);
  a.sw(Reg::kA1, Reg::kS2, kMbCompletion);
  a.bind(epilogue);
  a.lw(Reg::kRa, Reg::kSp, 0);
  a.addi(Reg::kSp, Reg::kSp, 8);
  a.ret();
}

}  // namespace

rv::Image build_firmware(const FirmwareConfig& config) {
  if (config.batch_capacity > soc::Mailbox::kBatchSlots) {
    throw std::invalid_argument(
        "build_firmware: batch_capacity exceeds mailbox batch slots");
  }
  const bool batched = config.batch_capacity > 1;
  if (config.retry_handshake && !batched) {
    throw std::invalid_argument(
        "build_firmware: retry_handshake needs batch mode (only BATCH_COUNT "
        "makes the doorbell handshake idempotent)");
  }
  if (config.mac_rerequest && !(batched && config.batch_mac)) {
    throw std::invalid_argument(
        "build_firmware: mac_rerequest needs batch_mac (there is no burst "
        "MAC to fail without it)");
  }
  Assembler a(rv::Xlen::k32, soc::kRotFlash.base);

  auto isr = a.new_label();
  auto policy_entry = a.new_label();
  auto batch_entry = a.new_label();
  auto main_loop = a.new_label();
  // Per doorbell the firmware services one log (paper) or one burst.
  const Assembler::Label service_entry = batched ? batch_entry : policy_entry;

  // ---- Reset / init -------------------------------------------------------------
  a.mark("init");
  a.li(Reg::kSp, static_cast<std::int64_t>(soc::kRotSram.end() - 16));
  a.li(Reg::kT0, FwLayout::kVars);
  a.li(Reg::kT1, FwLayout::kSsBase);
  a.sw(Reg::kT1, Reg::kT0, 0);   // ss_ptr = base
  a.sw(Reg::kZero, Reg::kT0, 4); // depth = 0
  a.li(Reg::kT1, static_cast<std::int64_t>(soc::kSpillArena.base));
  a.sw(Reg::kT1, Reg::kT0, 8);   // spill_ptr = arena base
  a.sw(Reg::kZero, Reg::kT0, 12);
  if (config.variant == FwVariant::kIrq) {
    a.la(Reg::kT0, isr);
    a.csrrw(Reg::kZero, rv::csr::kMtvec, Reg::kT0);
    a.li(Reg::kT0, 1 << 11);  // MEIE
    a.csrrw(Reg::kZero, rv::csr::kMie, Reg::kT0);
    a.csrrsi(Reg::kZero, rv::csr::kMstatus, 8);  // MIE
  }
  a.j(main_loop);

  // ---- Idle loop ------------------------------------------------------------------
  a.mark("main");
  a.bind(main_loop);
  if (config.variant == FwVariant::kIrq) {
    a.wfi();
    a.j(main_loop);
  } else {
    auto poll = a.here();
    a.li(Reg::kT0, soc::kCfiMailbox.base);
    a.lw(Reg::kT1, Reg::kT0, kMbDoorbell);
    a.beqz(Reg::kT1, poll);
    a.sw(Reg::kZero, Reg::kT0, kMbDoorbell);  // ack
    a.jal(Reg::kRa, service_entry);
    a.j(poll);
  }

  // ---- ISR (IRQ variant only, but always emitted for layout stability) ------------
  a.mark("irq");
  a.bind(isr);
  if (!batched) {
    // Paper frame: exactly six registers (Sec. IV-C).
    a.addi(Reg::kSp, Reg::kSp, -24);
    a.sw(Reg::kRa, Reg::kSp, 0);
    a.sw(Reg::kT0, Reg::kSp, 4);
    a.sw(Reg::kT1, Reg::kSp, 8);
    a.sw(Reg::kT2, Reg::kSp, 12);
    a.sw(Reg::kA0, Reg::kSp, 16);
    a.sw(Reg::kA1, Reg::kSp, 20);
  } else {
    // Burst frame: the batch loop additionally clobbers a2-a4 and s2-s5;
    // the larger spill is amortised over the whole burst.
    a.addi(Reg::kSp, Reg::kSp, -52);
    a.sw(Reg::kRa, Reg::kSp, 0);
    a.sw(Reg::kT0, Reg::kSp, 4);
    a.sw(Reg::kT1, Reg::kSp, 8);
    a.sw(Reg::kT2, Reg::kSp, 12);
    a.sw(Reg::kA0, Reg::kSp, 16);
    a.sw(Reg::kA1, Reg::kSp, 20);
    a.sw(Reg::kA2, Reg::kSp, 24);
    a.sw(Reg::kA3, Reg::kSp, 28);
    a.sw(Reg::kA4, Reg::kSp, 32);
    a.sw(Reg::kS2, Reg::kSp, 36);
    a.sw(Reg::kS3, Reg::kSp, 40);
    a.sw(Reg::kS4, Reg::kSp, 44);
    a.sw(Reg::kS5, Reg::kSp, 48);
  }
  a.li(Reg::kT0, cfi::kRotPlic.base);
  a.lw(Reg::kA0, Reg::kT0, soc::Plic::kClaimOffset);  // RoT: claim
  a.li(Reg::kT1, soc::kCfiMailbox.base);
  a.lw(Reg::kT2, Reg::kT1, kMbDoorbell);              // SoC: spurious-IRQ check
  a.sw(Reg::kZero, Reg::kT1, kMbDoorbell);            // SoC: ack doorbell
  a.jal(Reg::kRa, service_entry);
  a.mark("irq_exit");
  a.li(Reg::kT0, cfi::kRotPlic.base);
  a.li(Reg::kT1, cfi::kCfiDoorbellIrq);
  a.sw(Reg::kT1, Reg::kT0, soc::Plic::kClaimOffset);  // RoT: complete
  a.lw(Reg::kRa, Reg::kSp, 0);
  a.lw(Reg::kT0, Reg::kSp, 4);
  a.lw(Reg::kT1, Reg::kSp, 8);
  a.lw(Reg::kT2, Reg::kSp, 12);
  a.lw(Reg::kA0, Reg::kSp, 16);
  a.lw(Reg::kA1, Reg::kSp, 20);
  if (!batched) {
    a.addi(Reg::kSp, Reg::kSp, 24);
  } else {
    a.lw(Reg::kA2, Reg::kSp, 24);
    a.lw(Reg::kA3, Reg::kSp, 28);
    a.lw(Reg::kA4, Reg::kSp, 32);
    a.lw(Reg::kS2, Reg::kSp, 36);
    a.lw(Reg::kS3, Reg::kSp, 40);
    a.lw(Reg::kS4, Reg::kSp, 44);
    a.lw(Reg::kS5, Reg::kSp, 48);
    a.addi(Reg::kSp, Reg::kSp, 52);
  }
  a.mret();

  // ---- Policy ---------------------------------------------------------------------
  a.mark("cfi");
  if (batched) {
    // Contract marks: SocTop cross-checks these against SocConfig so a
    // burst-mode Log Writer can never be paired with single-log firmware
    // (which would read the never-written legacy registers and wave every
    // burst through) or a MAC mismatch.
    a.mark("batch");
    if (config.batch_mac) {
      a.mark("batch_mac");
    }
    if (config.retry_handshake) {
      a.mark("retry_handshake");
    }
    if (config.mac_rerequest) {
      a.mark("mac_rerequest");
    }
    a.bind(batch_entry);
    emit_batch_entry(a, config, policy_entry);
  }
  a.bind(policy_entry);
  emit_policy(a, config, batched);
  a.mark("end");

  return a.finish();
}

std::shared_ptr<const ibex::FirmwareRom> shared_rom(
    const FirmwareConfig& config) {
  static std::mutex mutex;
  // Leaked on purpose: no exit-time destructor runs while another thread may
  // still ask for a ROM.
  static auto& roms =
      *new std::map<FirmwareConfig, std::weak_ptr<const ibex::FirmwareRom>>;
  const std::lock_guard<std::mutex> lock(mutex);
  if (auto rom = roms[config].lock()) {
    return rom;
  }
  // A miss: drop the entries no one holds any more, so wire specs with ever
  // new configs cannot grow the map beyond the ROMs alive.
  std::erase_if(roms, [](const auto& entry) { return entry.second.expired(); });
  auto rom = ibex::FirmwareRom::build(build_firmware(config));
  roms[config] = rom;
  return rom;
}

}  // namespace titan::fw
