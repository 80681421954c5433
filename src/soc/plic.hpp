// Platform-Level Interrupt Controller model (claim/complete protocol).
//
// Both domains own a PLIC in the reference SoC (Fig. 1); the RoT's instance
// forwards the CFI-mailbox doorbell to Ibex as ext-irq.  Only the features
// the firmware exercises are modelled: level-pending sources, per-source
// enables, claim/complete, and a "highest pending" arbitration.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/snapshot.hpp"
#include "soc/bus.hpp"

namespace titan::soc {

class Plic final : public BusTarget {
 public:
  /// MMIO register offsets (one word each).
  static constexpr Addr kPendingOffset = 0x00;
  static constexpr Addr kEnableOffset = 0x08;
  static constexpr Addr kClaimOffset = 0x10;  ///< Read: claim; write: complete.

  explicit Plic(unsigned num_sources) : pending_(num_sources + 1, false),
                                        enabled_(num_sources + 1, false),
                                        in_service_(num_sources + 1, false) {}

  /// Assert a level interrupt from a source (1-based ids, as in the spec).
  void raise(unsigned source);
  void lower(unsigned source);

  /// Highest-priority (lowest id) pending+enabled source, or 0.
  [[nodiscard]] unsigned pending_source() const;
  /// True when any enabled source is pending and not already in service
  /// (pending_source() != 0, kept current by every state change so the RoT
  /// run loop reads a flag instead of scanning the sources).
  [[nodiscard]] bool irq_asserted() const { return asserted_; }

  unsigned claim();
  void complete(unsigned source);
  void enable(unsigned source, bool on = true);

  // ---- BusTarget ------------------------------------------------------------
  std::uint64_t read(Addr addr, unsigned size) override;
  bool write(Addr addr, unsigned size, std::uint64_t value) override;

  [[nodiscard]] std::uint64_t claims() const { return claims_; }

  /// Checkpoint support: the per-source level/enable/in-service bits and the
  /// claim counter.  Source count is config-derived and only sanity-checked.
  void save_state(sim::SnapshotWriter& writer) const {
    writer.u64(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      writer.boolean(pending_[i]);
      writer.boolean(enabled_[i]);
      writer.boolean(in_service_[i]);
    }
    writer.u64(claims_);
  }
  void load_state(sim::SnapshotReader& reader) {
    if (reader.u64() != pending_.size()) {
      throw sim::SnapshotError("plic: source count mismatch");
    }
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      pending_[i] = reader.boolean();
      enabled_[i] = reader.boolean();
      in_service_[i] = reader.boolean();
    }
    claims_ = reader.u64();
    update();
  }

 private:
  void update() { asserted_ = pending_source() != 0; }

  std::vector<bool> pending_;
  std::vector<bool> enabled_;
  std::vector<bool> in_service_;
  std::uint64_t claims_ = 0;
  bool asserted_ = false;
};

}  // namespace titan::soc
