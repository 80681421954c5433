// Bus fabric model: memory-mapped targets behind a crossbar with per-hop
// latency.
//
// Two fabrics exist in the SoC (paper Sec. III): the host-domain AXI4
// crossbar and OpenTitan's TileLink-UL fabric, joined by a TL<->AXI bridge.
// We model both with the same Crossbar class configured with different hop
// latencies; the bridge is an extra-latency region entry.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/memory.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "soc/memmap.hpp"

namespace titan::soc {

using sim::Addr;

/// A memory-mapped slave.  `size` is 1, 2, 4, or 8 bytes.
class BusTarget {
 public:
  virtual ~BusTarget() = default;
  virtual std::uint64_t read(Addr addr, unsigned size) = 0;
  /// Returns false when the target refuses the store (read-only); the
  /// crossbar answers that with a bus error.
  virtual bool write(Addr addr, unsigned size, std::uint64_t value) = 0;
  /// Block read of [addr, addr + out.size()), the bytes `out.size()`
  /// one-byte read()s would return.  The default is that loop; a target
  /// whose one-byte reads have no side effects may copy in larger pieces.
  virtual void read_bytes(Addr addr, std::span<std::uint8_t> out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(read(addr + i, 1));
    }
  }
};

/// Adapts a sim::Memory to the bus interface.
class MemoryTarget final : public BusTarget {
 public:
  explicit MemoryTarget(sim::Memory& memory) : memory_(memory) {}

  std::uint64_t read(Addr addr, unsigned size) override {
    switch (size) {
      case 1: return memory_.read8(addr);
      case 2: return memory_.read16(addr);
      case 4: return memory_.read32(addr);
      default: return memory_.read64(addr);
    }
  }

  bool write(Addr addr, unsigned size, std::uint64_t value) override {
    switch (size) {
      case 1: memory_.write8(addr, static_cast<std::uint8_t>(value)); break;
      case 2: memory_.write16(addr, static_cast<std::uint16_t>(value)); break;
      case 4: memory_.write32(addr, static_cast<std::uint32_t>(value)); break;
      default: memory_.write64(addr, value); break;
    }
    return true;
  }

 private:
  sim::Memory& memory_;
};

/// Read-only view of immutable bytes at `base` (the RoT ROM).  Bytes past
/// the image read as zero, as unwritten sim::Memory does; every store is
/// refused and changes nothing.
class RomTarget final : public BusTarget {
 public:
  RomTarget(Addr base, std::span<const std::uint8_t> bytes)
      : base_(base), bytes_(bytes) {}

  std::uint64_t read(Addr addr, unsigned size) override {
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
      const Addr offset = addr + i - base_;
      if (offset < bytes_.size()) {
        value |= std::uint64_t{bytes_[offset]} << (8 * i);
      }
    }
    return value;
  }

  bool write(Addr, unsigned, std::uint64_t) override { return false; }

 private:
  Addr base_;
  std::span<const std::uint8_t> bytes_;
};

/// Result of a timed bus access.
struct BusResponse {
  std::uint64_t value = 0;  ///< Read data (zero for writes).
  std::uint32_t latency = 0;  ///< Cycles from issue to completion.
  /// No target claimed the address, or the target refused a store.
  bool error = false;
};

/// Address-decoding crossbar with per-region access latency.
///
/// `hop_latency` models the fabric traversal (AXI: ~2 cycles, TL-UL inside
/// OpenTitan: ~5 cycles per the paper's scratchpad measurements); each region
/// adds its own device latency on top.
class Crossbar {
 public:
  explicit Crossbar(std::string name, std::uint32_t hop_latency)
      : name_(std::move(name)), hop_latency_(hop_latency) {}

  void map(Region region, BusTarget& target, std::uint32_t device_latency,
           std::string label);

  [[nodiscard]] BusResponse read(Addr addr, unsigned size);
  BusResponse write(Addr addr, unsigned size, std::uint64_t value);
  /// DMA read of `out.size()` bytes from `addr`: the bytes and traffic count
  /// of one read(addr + i, 1) per byte (errors read as zero).  A range that
  /// lies in one mapping costs one lookup and one BusTarget::read_bytes.
  void read_bytes(Addr addr, std::span<std::uint8_t> out);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t hop_latency() const { return hop_latency_; }
  void set_hop_latency(std::uint32_t cycles) { hop_latency_ = cycles; }

  struct Mapping {
    Region region;
    BusTarget* target = nullptr;
    std::uint32_t device_latency = 0;
    std::string label;
  };
  [[nodiscard]] const std::vector<Mapping>& mappings() const { return mappings_; }

  [[nodiscard]] std::uint64_t transaction_count() const { return transactions_; }

  /// Checkpoint support: topology and latencies are config-derived, so only
  /// the traffic counter persists (the MRU hint is a perf-only accelerator).
  void save_state(sim::SnapshotWriter& writer) const {
    writer.u64(transactions_);
  }
  void load_state(sim::SnapshotReader& reader) { transactions_ = reader.u64(); }

 private:
  [[nodiscard]] Mapping* lookup(Addr addr);
  /// Called by every map(); out of line, as it runs only while a SoC is
  /// built and inlined it would swell map()'s exception paths.
  [[gnu::noinline]] void reserve_mappings();

  std::string name_;
  std::uint32_t hop_latency_;
  std::vector<Mapping> mappings_;
  std::uint64_t transactions_ = 0;
  /// Most-recently-hit mapping (index, so vector growth can't dangle it);
  /// bus traffic is strongly clustered, making the decode scan rare.
  std::size_t mru_ = SIZE_MAX;
};

}  // namespace titan::soc
