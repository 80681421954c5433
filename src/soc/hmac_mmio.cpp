#include "soc/hmac_mmio.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "sim/rng.hpp"

namespace titan::soc {

HmacMmio::HmacMmio(Crossbar& data_bus, std::uint64_t device_secret,
                   ClockFn clock)
    : data_bus_(data_bus),
      device_secret_(device_secret),
      clock_(std::move(clock)) {}

crypto::HmacKey derive_slot_key(std::uint64_t device_secret,
                                std::uint32_t key_sel) {
  // Key slots are derived from the device secret, never visible on the bus.
  std::vector<std::uint8_t> key(32);
  sim::SplitMix64 kdf(device_secret ^ key_sel);
  for (std::size_t i = 0; i < key.size(); i += 8) {
    const std::uint64_t chunk = kdf.next();
    for (std::size_t j = 0; j < 8; ++j) {
      key[i + j] = static_cast<std::uint8_t>(chunk >> (8 * j));
    }
  }
  return crypto::HmacKey(key);
}

const crypto::HmacKey& HmacMmio::key_for(std::uint32_t key_sel) {
  const auto it = key_slots_.find(key_sel);
  if (it != key_slots_.end()) {
    return it->second;
  }
  // KEY_SEL is guest-writable; bound the cache so firmware cycling through
  // arbitrary selectors cannot grow host memory without limit (the modelled
  // hardware has a handful of real slots).
  if (key_slots_.size() >= kMaxKeySlots) {
    key_slots_.clear();
  }
  return key_slots_.emplace(key_sel, derive_slot_key(device_secret_, key_sel))
      .first->second;
}

void HmacMmio::start() {
  ++starts_;
  // DMA the source buffer (hardware engine: does not cost core cycles).
  // Any message the memo can hold lands on the stack; only longer ones (no
  // firmware MACs one) allocate.  SRC is a 32-bit register: a buffer past
  // 0xFFFFFFFF wraps to 0.
  std::array<std::uint8_t, crypto::MacMemo::kMaxMessageBytes> local;
  std::vector<std::uint8_t> oversize;
  std::span<std::uint8_t> buffer(local.data(),
                                 std::min<std::size_t>(len_, local.size()));
  if (len_ > local.size()) {
    oversize.resize(len_);
    buffer = oversize;
  }
  const std::size_t head =
      std::min<std::uint64_t>(len_, (std::uint64_t{1} << 32) - src_);
  data_bus_.read_bytes(src_, buffer.first(head));
  data_bus_.read_bytes(0, buffer.subspan(head));
  const auto result = engine_.mac_accounted(key_for(key_sel_), buffer, memo_);
  digest_ = result.digest;
  done_at_ = clock_() + result.cycles;
}

std::uint64_t HmacMmio::read(Addr addr, unsigned size) {
  (void)size;
  const Addr offset = addr & 0xFF;
  if (offset == kStatus) {
    return clock_() >= done_at_ ? 1 : 0;
  }
  if (offset == kSrc) return src_;
  if (offset == kLen) return len_;
  if (offset == kKeySel) return key_sel_;
  if (offset >= kDigestBase && offset < kDigestBase + 32) {
    const unsigned word = static_cast<unsigned>((offset - kDigestBase) / 4);
    return (std::uint32_t{digest_[4 * word]} << 24) |
           (std::uint32_t{digest_[4 * word + 1]} << 16) |
           (std::uint32_t{digest_[4 * word + 2]} << 8) |
           std::uint32_t{digest_[4 * word + 3]};
  }
  return 0;
}

void HmacMmio::save_state(sim::SnapshotWriter& writer) const {
  writer.u32(src_);
  writer.u32(len_);
  writer.u32(key_sel_);
  writer.u64(done_at_);
  writer.raw(std::span<const std::uint8_t>(digest_.data(), digest_.size()));
  writer.u64(starts_);
  writer.u64(engine_.total_cycles());
  writer.u64(engine_.invocations());
}

void HmacMmio::load_state(sim::SnapshotReader& reader) {
  src_ = reader.u32();
  len_ = reader.u32();
  key_sel_ = reader.u32();
  done_at_ = reader.u64();
  reader.raw(std::span<std::uint8_t>(digest_.data(), digest_.size()));
  starts_ = reader.u64();
  const std::uint64_t total_cycles = reader.u64();
  engine_.restore_usage(total_cycles, reader.u64());
  key_slots_.clear();  // Re-derived on demand; derivation is observably pure.
}

bool HmacMmio::write(Addr addr, unsigned size, std::uint64_t value) {
  (void)size;
  const Addr offset = addr & 0xFF;
  switch (offset) {
    case kCmd:
      if ((value & 1) != 0) {
        start();
      }
      break;
    case kSrc:
      src_ = static_cast<std::uint32_t>(value);
      break;
    case kLen:
      len_ = static_cast<std::uint32_t>(value);
      break;
    case kKeySel:
      key_sel_ = static_cast<std::uint32_t>(value);
      break;
    default:
      break;
  }
  return true;
}

}  // namespace titan::soc
