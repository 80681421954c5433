#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace titan::crypto {

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  constexpr std::size_t kBlockSize = 64;

  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }

  std::array<std::uint8_t, kBlockSize> pad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = key_block[i] ^ 0x36;
  }
  Sha256 inner;
  inner.update(pad);
  inner_mid_ = inner.midstate();

  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = key_block[i] ^ 0x5c;
  }
  Sha256 outer;
  outer.update(pad);
  outer_mid_ = outer.midstate();
}

Digest HmacKey::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner;
  inner.seed(inner_mid_, 64);
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.seed(outer_mid_, 64);
  outer.update(inner_digest);
  return outer.finish();
}

Digest MacMemo::mac(const HmacKey& key, std::span<const std::uint8_t> message) {
  if (message.size() > kMaxMessageBytes) {
    return key.mac(message);
  }
  if (key_ == key && length_ == message.size() &&
      std::equal(message.begin(), message.end(), message_.begin())) {
    ++hits_;
  } else {
    key_ = key;
    length_ = message.size();
    std::copy(message.begin(), message.end(), message_.begin());
    digest_ = key.mac(message);
  }
  return digest_;
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  return HmacKey(key).mac(message);
}

bool digest_equal(const Digest& a, const Digest& b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

}  // namespace titan::crypto
