#include "soc/bus.hpp"

#include <stdexcept>

namespace titan::soc {

void Crossbar::map(Region region, BusTarget& target,
                   std::uint32_t device_latency, std::string label) {
  for (const Mapping& existing : mappings_) {
    const bool overlaps = region.base < existing.region.end() &&
                          existing.region.base < region.end();
    if (overlaps) {
      throw std::invalid_argument("Crossbar '" + name_ +
                                  "': overlapping region for " + label);
    }
  }
  reserve_mappings();
  mappings_.push_back({region, &target, device_latency, std::move(label)});
}

Crossbar::Mapping* Crossbar::lookup(Addr addr) {
  if (mru_ < mappings_.size() && mappings_[mru_].region.contains(addr)) {
    return &mappings_[mru_];
  }
  for (std::size_t i = 0; i < mappings_.size(); ++i) {
    if (mappings_[i].region.contains(addr)) {
      mru_ = i;
      return &mappings_[i];
    }
  }
  return nullptr;
}

BusResponse Crossbar::read(Addr addr, unsigned size) {
  ++transactions_;
  Mapping* mapping = lookup(addr);
  if (mapping == nullptr) {
    return {.value = 0, .latency = hop_latency_, .error = true};
  }
  BusResponse response;
  response.value = mapping->target->read(addr, size);
  response.latency = hop_latency_ + mapping->device_latency;
  return response;
}

BusResponse Crossbar::write(Addr addr, unsigned size, std::uint64_t value) {
  ++transactions_;
  Mapping* mapping = lookup(addr);
  // A refused store costs what an unmapped one does.
  if (mapping == nullptr || !mapping->target->write(addr, size, value)) {
    return {.value = 0, .latency = hop_latency_, .error = true};
  }
  return {.value = 0,
          .latency = hop_latency_ + mapping->device_latency,
          .error = false};
}

void Crossbar::read_bytes(Addr addr, std::span<std::uint8_t> out) {
  const Addr last = addr + (out.size() - 1);
  Mapping* mapping = lookup(addr);
  if (mapping != nullptr && last >= addr && mapping->region.contains(last)) {
    transactions_ += out.size();
    mapping->target->read_bytes(addr, out);
    return;
  }
  // Unmapped, straddling or wrapping: one decoded transaction per byte.
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(read(addr + i, 1).value);
  }
}

void Crossbar::reserve_mappings() {
  // Every SoC fabric maps at most this many targets, so each takes one
  // allocation; a larger map grows the vector as before.
  constexpr std::size_t kTypicalMappings = 8;
  mappings_.reserve(kTypicalMappings);
}

}  // namespace titan::soc
