// Accelerator-style front-end over the HMAC primitive, with the cycle-cost
// model of OpenTitan's HMAC block.
//
// The firmware does not hash byte-by-byte in software: it hands a buffer to
// the accelerator and pays a fixed setup cost plus a per-block cost.  The
// constants below follow the OpenTitan HMAC HWIP datasheet shape (one
// SHA-256 compression round per cycle, 80-cycle digest latency) — exact
// values are configurable because Table I/III only depend on them through
// the (rare) spill path.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/hmac.hpp"

namespace titan::crypto {

struct HmacAccelConfig {
  std::uint32_t setup_cycles = 24;      ///< Key load + start command (MMIO).
  std::uint32_t cycles_per_block = 80;  ///< One 64-byte SHA-256 block.
  std::uint32_t digest_cycles = 40;     ///< Finalisation + digest readout.
};

/// Request/response model of the HMAC accelerator: compute the MAC and
/// report how many accelerator cycles it costs.
class HmacAccel {
 public:
  explicit HmacAccel(HmacAccelConfig config = {}) : config_(config) {}

  struct Result {
    Digest digest{};
    std::uint64_t cycles = 0;
  };

  [[nodiscard]] Result mac(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) const {
    return mac(HmacKey(key), message);
  }

  /// MAC with a pre-loaded key (ipad/opad midstates already computed).  The
  /// modelled cycle cost is unchanged — the hardware pipeline hides the pad
  /// blocks either way — but the host-side simulation skips two SHA-256
  /// compressions per call.
  /// With a `memo`, the digest may come from it; the cycles never do.
  [[nodiscard]] Result mac(const HmacKey& key,
                           std::span<const std::uint8_t> message,
                           MacMemo* memo = nullptr) const {
    Result result;
    result.digest = memo != nullptr ? memo->mac(key, message) : key.mac(message);
    // HMAC hashes (ipad || message) then (opad || inner): two extra blocks.
    const std::uint64_t blocks = (message.size() + 63) / 64 + 2;
    result.cycles = config_.setup_cycles +
                    blocks * config_.cycles_per_block + config_.digest_cycles;
    return result;
  }

  [[nodiscard]] const HmacAccelConfig& config() const { return config_; }

  /// Total accelerator cycles consumed since construction (for reports).
  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }

  /// mac() + accounting, for components that track accelerator usage.
  Result mac_accounted(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> message) {
    Result result = mac(key, message);
    total_cycles_ += result.cycles;
    ++invocations_;
    return result;
  }

  Result mac_accounted(const HmacKey& key,
                       std::span<const std::uint8_t> message,
                       MacMemo* memo = nullptr) {
    Result result = mac(key, message, memo);
    total_cycles_ += result.cycles;
    ++invocations_;
    return result;
  }

  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }

  /// Checkpoint support: overwrite the usage counters with captured values
  /// (the owning MMIO block serializes them alongside its own state).
  void restore_usage(std::uint64_t total_cycles, std::uint64_t invocations) {
    total_cycles_ = total_cycles;
    invocations_ = invocations;
  }

 private:
  HmacAccelConfig config_;
  std::uint64_t total_cycles_ = 0;
  std::uint64_t invocations_ = 0;
};

}  // namespace titan::crypto
