// HMAC-SHA256 (RFC 2104), the MAC TitanCFI uses to authenticate CFI metadata
// before spilling it outside the RoT (paper Sec. V-B / VI, "inspired by
// Zipper Stack").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace titan::crypto {

using Key = std::vector<std::uint8_t>;

/// A key with precomputed ipad/opad SHA-256 midstates (the classic HMAC
/// optimisation, and what OpenTitan's HMAC block does when the key register
/// is left loaded).  Construction costs the two pad compressions once; each
/// mac() then costs two compression call sites instead of four, which is
/// what makes per-commit-log authentication cheap.
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(std::span<const std::uint8_t> key);

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const;

  /// Same midstates, hence the same MAC for every message.
  friend bool operator==(const HmacKey&, const HmacKey&) = default;

 private:
  Sha256State inner_mid_{};
  Sha256State outer_mid_{};
};

/// A one-entry cache of HmacKey::mac, keyed by the key's midstates and the
/// full message bytes.  The two ends of an authenticated burst (the Log
/// Writer and the RoT's HMAC block) MAC the same bytes under the same slot
/// key back to back, so the second MAC is a memcmp instead of SHA-256
/// compressions.  The MAC is a pure function and the key is the whole
/// input, so the memo changes no modelled state, only host time.
class MacMemo {
 public:
  /// Longer messages bypass the memo (computed, not stored).
  static constexpr std::size_t kMaxMessageBytes = 1024;

  [[nodiscard]] Digest mac(const HmacKey& key,
                           std::span<const std::uint8_t> message);
  [[nodiscard]] bool empty() const { return !key_.has_value(); }
  /// Lookups answered from the memo (host-side; in no report or snapshot).
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  /// The stored entry: key, message_[0, length_) and its digest.  Only
  /// meaningful while key_ is engaged; the rest is left uninitialised.
  std::optional<HmacKey> key_;
  std::array<std::uint8_t, kMaxMessageBytes> message_;
  std::size_t length_;
  Digest digest_;
  std::uint64_t hits_ = 0;
};

/// One-shot HMAC-SHA256.
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

/// Constant-time digest comparison (the RoT firmware must not leak a timing
/// oracle when verifying a restored shadow-stack segment).
[[nodiscard]] bool digest_equal(const Digest& a, const Digest& b);

}  // namespace titan::crypto
