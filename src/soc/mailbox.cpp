#include "soc/mailbox.hpp"

namespace titan::soc {

namespace {

// Mailboxes are mapped at region bases; only the low offset bits decode.
Addr reg_offset(Addr addr) { return addr & 0xFFF; }

}  // namespace

std::uint64_t* Mailbox::reg_at(Addr offset) {
  if (offset < kDataOffset + 8 * kDataRegs) {
    return &data_[static_cast<unsigned>((offset - kDataOffset) / 8)];
  }
  if (offset >= kBatchCountOffset && offset < kBatchCountOffset + 8) {
    return &batch_count_;
  }
  if (offset >= kBatchMacOffset && offset < kBatchMacOffset + 8 * kMacRegs) {
    return &mac_[static_cast<unsigned>((offset - kBatchMacOffset) / 8)];
  }
  if (offset >= kBatchBase &&
      offset < kBatchBase + kBatchSlots * kSlotStride) {
    return &batch_[static_cast<unsigned>((offset - kBatchBase) / 8)];
  }
  return nullptr;
}

std::uint64_t Mailbox::read(Addr addr, unsigned size) {
  const Addr offset = reg_offset(addr);
  std::uint64_t value = 0;
  if (offset == kDoorbellOffset) {
    value = doorbell_ ? 1 : 0;
  } else if (offset == kCompletionOffset) {
    value = completion_ ? 1 : 0;
  } else if (const std::uint64_t* reg = reg_at(offset); reg != nullptr) {
    const unsigned shift = static_cast<unsigned>((offset % 8) * 8);
    value = *reg >> shift;
  }
  if (size < 8) {
    value &= (std::uint64_t{1} << (8 * size)) - 1;
  }
  return value;
}

void Mailbox::read_bytes(Addr addr, std::span<std::uint8_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    const Addr offset = reg_offset(addr + i);
    const std::uint64_t* reg = reg_at(offset);
    if (reg == nullptr || offset % 8 != 0 || out.size() - i < 8) {
      out[i] = static_cast<std::uint8_t>(read(addr + i, 1));
      ++i;
      continue;
    }
    for (unsigned byte = 0; byte < 8; ++byte) {
      out[i + byte] = static_cast<std::uint8_t>(*reg >> (8 * byte));
    }
    i += 8;
  }
}

bool Mailbox::write(Addr addr, unsigned size, std::uint64_t value) {
  const Addr offset = reg_offset(addr);
  if (offset == kDoorbellOffset) {
    if ((value & 1) != 0) {
      ring_doorbell();
    } else {
      clear_doorbell();
    }
    return true;
  }
  if (offset == kCompletionOffset) {
    if ((value & 1) != 0) {
      signal_completion();
    } else {
      clear_completion();
    }
    return true;
  }
  std::uint64_t* reg = reg_at(offset);
  if (reg == nullptr) {
    return true;
  }
  if (size == 8) {
    *reg = value;
  } else {
    const unsigned shift = static_cast<unsigned>((offset % 8) * 8);
    const std::uint64_t mask = ((std::uint64_t{1} << (8 * size)) - 1) << shift;
    *reg = (*reg & ~mask) | ((value << shift) & mask);
  }
  return true;
}

void Mailbox::ring_doorbell() {
  if (doorbell_filter_ && !doorbell_filter_()) {
    return;  // Pulse lost in transit: the sender observes nothing.
  }
  doorbell_ = true;
  ++doorbell_count_;
  if (on_doorbell_) {
    on_doorbell_();
  }
}

void Mailbox::signal_completion() {
  completion_ = true;
  ++completion_count_;
  if (on_completion_) {
    on_completion_();
  }
}

}  // namespace titan::soc
