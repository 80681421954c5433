// Immutable, pre-decoded firmware ROM for the Ibex model.
//
// The RoT firmware is a pure function of its configuration and the ROM it
// sits in is read-only on the TL-UL fabric, so its instructions can be
// decoded once, when the ROM is built, and shared by every SoC (and every
// thread) that runs it.  Ibex executes straight from the table: a fetch from
// a swept instruction start is one index, with no fetch probe, no decode and
// no cache tag check.  Any other PC (RAM, a mid-instruction halfword) takes
// the core's exact fetch-and-decode path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rv/assembler.hpp"
#include "rv/isa.hpp"

namespace titan::ibex {

class FirmwareRom {
 public:
  /// The one way to build a ROM: sweep `image` linearly from its base,
  /// decoding one instruction per start (stepping by its length), and sort
  /// its section marks.
  [[nodiscard]] static std::shared_ptr<const FirmwareRom> build(
      rv::Image image);

  [[nodiscard]] const rv::Image& image() const { return image_; }
  [[nodiscard]] std::uint32_t base() const {
    return static_cast<std::uint32_t>(image_.base);
  }

  /// Halfword-indexed table: slot (pc - base) / 2 holds rv::decode of the
  /// instruction starting at pc, or an entry with len == 0 when the sweep
  /// did not start an instruction there.
  [[nodiscard]] const std::vector<rv::Inst>& table() const { return table_; }

  /// Classify a PC against the firmware section marks ("irq" / "cfi" /
  /// "init" / "poll"): the mark with the greatest address <= pc, "init"
  /// before the first.  O(log n); Table I attribution calls it per step.
  [[nodiscard]] std::string section_of(std::uint32_t pc) const;

 private:
  explicit FirmwareRom(rv::Image image);

  rv::Image image_;
  /// image_.marks as (address, name) pointing at the map's keys, sorted by
  /// address with ties in name order: the section owning a PC is the last
  /// entry with address <= pc, which reproduces the seed linear scan's
  /// "greatest address, later map entry wins ties" rule.
  std::vector<std::pair<std::uint64_t, const std::string*>> sections_;
  std::vector<rv::Inst> table_;
};

}  // namespace titan::ibex
