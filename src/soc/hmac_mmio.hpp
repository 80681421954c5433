// MMIO front-end for the HMAC accelerator, as seen by Ibex firmware.
//
// Register map (word offsets from kRotHmacAccel.base):
//   0x00 CMD      (W) write 1 to start MAC over [SRC, SRC+LEN)
//   0x04 STATUS   (R) 1 when the engine is idle/done at the current time
//   0x08 SRC      (RW) source buffer address
//   0x0C LEN      (RW) source length in bytes
//   0x10 KEY_SEL  (RW) key slot (the real block has a sideloaded key; we
//                      model two slots derived from the device secret)
//   0x20..0x3C DIGEST0..7 (R) big-endian digest words
//
// Timing: the engine is asynchronous.  A start command computes the digest
// functionally and arms `done_at = now() + cost`; STATUS reads compare
// against the caller-provided clock, so a polling firmware pays real cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "crypto/accel.hpp"
#include "sim/snapshot.hpp"
#include "soc/bus.hpp"

namespace titan::soc {

/// Derive the HMAC key for a sideloaded key slot from the device secret.
/// Shared between the RoT-side accelerator and the host-side CFI Log Writer
/// model so both ends of an authenticated burst agree on the slot key; the
/// returned HmacKey carries precomputed ipad/opad midstates.
[[nodiscard]] crypto::HmacKey derive_slot_key(std::uint64_t device_secret,
                                              std::uint32_t key_sel);

class HmacMmio final : public BusTarget {
 public:
  static constexpr Addr kCmd = 0x00;
  static constexpr Addr kStatus = 0x04;
  static constexpr Addr kSrc = 0x08;
  static constexpr Addr kLen = 0x0C;
  static constexpr Addr kKeySel = 0x10;
  static constexpr Addr kDigestBase = 0x20;

  using ClockFn = std::function<std::uint64_t()>;

  /// `data_bus`: fabric the engine DMAs the source buffer from.
  /// `clock`: returns the current RoT cycle (drives STATUS timing).
  HmacMmio(Crossbar& data_bus, std::uint64_t device_secret, ClockFn clock);

  std::uint64_t read(Addr addr, unsigned size) override;
  bool write(Addr addr, unsigned size, std::uint64_t value) override;

  /// Share the SoC's MAC memo (the Log Writer MACs each burst first).
  void set_mac_memo(crypto::MacMemo* memo) { memo_ = memo; }

  [[nodiscard]] const crypto::HmacAccel& engine() const { return engine_; }
  [[nodiscard]] std::uint64_t starts() const { return starts_; }

  /// Checkpoint support: MMIO registers, in-flight completion time, digest,
  /// and the engine usage counters.  The key-slot cache is NOT serialized —
  /// slot keys are a pure function of the config-derived device secret, so
  /// a warm run re-derives them with zero observable state (no bus traffic,
  /// no counters).  Nor is the MAC memo, which belongs to the SoC: a
  /// restore targets a freshly built SoC, whose memo is empty.
  void save_state(sim::SnapshotWriter& writer) const;
  void load_state(sim::SnapshotReader& reader);

 private:
  void start();
  [[nodiscard]] const crypto::HmacKey& key_for(std::uint32_t key_sel);

  Crossbar& data_bus_;
  std::uint64_t device_secret_;
  ClockFn clock_;
  crypto::HmacAccel engine_;
  /// Key slots derived from the device secret are immutable, so their
  /// ipad/opad midstates are computed once per slot, not per log.  Bounded:
  /// KEY_SEL is an arbitrary guest value, not a cache key to trust.
  static constexpr std::size_t kMaxKeySlots = 16;
  std::unordered_map<std::uint32_t, crypto::HmacKey> key_slots_;

  crypto::MacMemo* memo_ = nullptr;
  std::uint32_t src_ = 0;
  std::uint32_t len_ = 0;
  std::uint32_t key_sel_ = 0;
  std::uint64_t done_at_ = 0;
  crypto::Digest digest_{};
  std::uint64_t starts_ = 0;
};

}  // namespace titan::soc
