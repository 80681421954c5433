// SCMI-style doorbell/completion mailbox (paper Sec. III-B and IV-A).
//
// "The mailbox consists of a set of general-purpose memory mapped registers
//  meant for data sharing. Additionally, it features two registers, named
//  Doorbell and Completion, which are meant to send an interrupt to the Ibex
//  security microcontroller and to the CVA6 host core."
//
// The CFI Mailbox is the same block with two differences (Sec. IV-A):
//  * the data registers are sized to hold one 224-bit commit log, and
//  * the completion register is wired directly to the CVA6 commit stage
//    (the CFI Log Writer) rather than to the host interrupt controller.
// Both behaviours are expressed through the on_doorbell/on_completion hooks.
//
// Burst extension (this repo, beyond the paper's single-log register file):
// the deeper queue sweeps assume the RoT drains the CFI Queue in bursts, so
// the data register file grows a batch area — BATCH_COUNT at +0x50, an
// optional 256-bit batch MAC at +0x60, and up to kBatchSlots commit-log
// slots of kSlotRegs 64-bit registers each from +0x80.  The legacy one-log
// layout (data 0x00-0x3F, doorbell 0x40, completion 0x48) is untouched, so
// single-drain firmware and Table I/II reproductions see an identical block.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>

#include "sim/snapshot.hpp"
#include "soc/bus.hpp"

namespace titan::soc {

class Mailbox final : public BusTarget {
 public:
  /// Register file layout (64-bit registers, byte offsets).
  static constexpr Addr kDataOffset = 0x00;
  static constexpr unsigned kDataRegs = 8;
  static constexpr Addr kDoorbellOffset = 0x40;
  static constexpr Addr kCompletionOffset = 0x48;
  // ---- Burst-drain extension ------------------------------------------------
  static constexpr Addr kBatchCountOffset = 0x50;
  static constexpr Addr kBatchMacOffset = 0x60;   ///< 4 x 64-bit MAC words.
  static constexpr unsigned kMacRegs = 4;
  static constexpr Addr kBatchBase = 0x80;
  static constexpr unsigned kBatchSlots = 16;     ///< Max logs per doorbell.
  static constexpr unsigned kSlotRegs = 4;        ///< 64-bit beats per log.
  static constexpr Addr kSlotStride = 8 * kSlotRegs;
  static constexpr Addr slot_offset(unsigned slot) {
    return kBatchBase + slot * kSlotStride;
  }

  using SignalHook = std::function<void()>;
  using DoorbellFilter = std::function<bool()>;

  /// Hook invoked when the sender rings the doorbell (RoT side interrupt).
  void set_on_doorbell(SignalHook hook) { on_doorbell_ = std::move(hook); }
  /// Hook invoked when the receiver signals completion (host side).
  void set_on_completion(SignalHook hook) { on_completion_ = std::move(hook); }
  /// Fault-injection seam: consulted on each doorbell ring; returning false
  /// drops the ring silently (no flag, no count, no interrupt) — modelling a
  /// doorbell pulse lost on the interconnect.
  void set_doorbell_filter(DoorbellFilter filter) {
    doorbell_filter_ = std::move(filter);
  }

  // ---- BusTarget (MMIO view, used by Ibex firmware / CVA6) -----------------
  std::uint64_t read(Addr addr, unsigned size) override;
  bool write(Addr addr, unsigned size, std::uint64_t value) override;
  /// DMA view (the RoT HMAC block reads the batch area): whole aligned
  /// registers are copied 8 bytes at a time, everything else bytewise.
  void read_bytes(Addr addr, std::span<std::uint8_t> out) override;

  // ---- Direct port view (used by the hardware-side CFI Log Writer) ---------
  [[nodiscard]] std::uint64_t data(unsigned index) const { return data_.at(index); }
  void set_data(unsigned index, std::uint64_t value) { data_.at(index) = value; }
  [[nodiscard]] std::uint64_t batch_count() const { return batch_count_; }
  void set_batch_count(std::uint64_t count) { batch_count_ = count; }
  [[nodiscard]] std::uint64_t batch_beat(unsigned slot, unsigned beat) const {
    return batch_.at(slot * kSlotRegs + beat);
  }
  void set_batch_beat(unsigned slot, unsigned beat, std::uint64_t value) {
    batch_.at(slot * kSlotRegs + beat) = value;
  }
  [[nodiscard]] std::uint64_t batch_mac(unsigned index) const {
    return mac_.at(index);
  }
  void set_batch_mac(unsigned index, std::uint64_t value) {
    mac_.at(index) = value;
  }

  void ring_doorbell();
  void signal_completion();
  [[nodiscard]] bool doorbell_pending() const { return doorbell_; }
  [[nodiscard]] bool completion_pending() const { return completion_; }
  void clear_doorbell() { doorbell_ = false; }
  void clear_completion() { completion_ = false; }

  [[nodiscard]] std::uint64_t doorbell_count() const { return doorbell_count_; }
  [[nodiscard]] std::uint64_t completion_count() const { return completion_count_; }

  /// Checkpoint support: the full register file, pending interrupt flags and
  /// ring/completion counters.  Hooks are config-wired and not serialized.
  void save_state(sim::SnapshotWriter& writer) const {
    for (const std::uint64_t reg : data_) writer.u64(reg);
    writer.u64(batch_count_);
    for (const std::uint64_t reg : mac_) writer.u64(reg);
    for (const std::uint64_t reg : batch_) writer.u64(reg);
    writer.boolean(doorbell_);
    writer.boolean(completion_);
    writer.u64(doorbell_count_);
    writer.u64(completion_count_);
  }
  void load_state(sim::SnapshotReader& reader) {
    for (std::uint64_t& reg : data_) reg = reader.u64();
    batch_count_ = reader.u64();
    for (std::uint64_t& reg : mac_) reg = reader.u64();
    for (std::uint64_t& reg : batch_) reg = reader.u64();
    doorbell_ = reader.boolean();
    completion_ = reader.boolean();
    doorbell_count_ = reader.u64();
    completion_count_ = reader.u64();
  }

 private:
  /// Resolve a register byte offset to its backing 64-bit register, or null
  /// for unimplemented holes (reads return 0, writes are dropped).
  [[nodiscard]] std::uint64_t* reg_at(Addr offset);

  std::array<std::uint64_t, kDataRegs> data_{};
  std::uint64_t batch_count_ = 0;
  std::array<std::uint64_t, kMacRegs> mac_{};
  std::array<std::uint64_t, kBatchSlots * kSlotRegs> batch_{};
  bool doorbell_ = false;
  bool completion_ = false;
  std::uint64_t doorbell_count_ = 0;
  std::uint64_t completion_count_ = 0;
  SignalHook on_doorbell_;
  SignalHook on_completion_;
  DoorbellFilter doorbell_filter_;
};

}  // namespace titan::soc
