#include "ibex/rom.hpp"

#include <algorithm>

#include "rv/decode.hpp"

namespace titan::ibex {

std::shared_ptr<const FirmwareRom> FirmwareRom::build(rv::Image image) {
  return std::shared_ptr<const FirmwareRom>(new FirmwareRom(std::move(image)));
}

FirmwareRom::FirmwareRom(rv::Image image) : image_(std::move(image)) {
  const std::vector<std::uint8_t>& bytes = image_.bytes;
  const auto half = [&bytes](std::size_t offset) {
    return static_cast<std::uint32_t>(bytes[offset] | (bytes[offset + 1] << 8));
  };
  rv::Inst unswept;
  unswept.len = 0;
  // Each entry is what a fetch of the same bytes decodes to: a compressed
  // window is its low halfword alone.  A 32-bit encoding whose upper half
  // lies past the image is left to the core's slow path.
  const std::size_t slots = bytes.size() / 2;
  table_.reserve(slots);
  while (table_.size() < slots) {
    const std::size_t offset = 2 * table_.size();
    std::uint32_t window = half(offset);
    if ((window & 3) == 3) {
      if (offset + 4 > bytes.size()) {
        break;
      }
      window |= half(offset + 2) << 16;
    }
    table_.push_back(rv::decode(window, rv::Xlen::k32));
    if (table_.back().len == 4) {
      table_.push_back(unswept);  // The upper half starts no instruction.
    }
  }
  table_.resize(slots, unswept);

  // std::map iterates marks in name order and "address <= pc, address >=
  // best-so-far" lets a later map entry win address ties, so a stable sort
  // by address and taking the last entry <= pc reproduces the scan.
  sections_.reserve(image_.marks.size());
  for (const auto& [name, addr] : image_.marks) {
    sections_.emplace_back(addr, &name);
  }
  std::stable_sort(
      sections_.begin(), sections_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::string FirmwareRom::section_of(std::uint32_t pc) const {
  const auto it = std::upper_bound(
      sections_.begin(), sections_.end(), std::uint64_t{pc},
      [](std::uint64_t value, const auto& entry) { return value < entry.first; });
  if (it == sections_.begin()) {
    return "init";
  }
  return *std::prev(it)->second;
}

}  // namespace titan::ibex
