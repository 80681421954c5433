#include "titancfi/rot_subsystem.hpp"

#include <algorithm>

namespace titan::cfi {

namespace {

std::uint32_t hop_latency(RotFabric fabric) {
  return fabric == RotFabric::kBaseline ? 3 : 0;
}

std::uint32_t bridge_latency(RotFabric fabric) {
  return fabric == RotFabric::kBaseline ? 8 : 7;
}

std::uint32_t sram_latency(RotFabric fabric) {
  return fabric == RotFabric::kBaseline ? 1 : 0;
}

}  // namespace

RotSubsystem::RotSubsystem(const rv::Image& firmware, RotFabric fabric,
                           soc::Mailbox& mailbox, sim::Memory& soc_memory)
    : firmware_(firmware),
      mailbox_(mailbox),
      soc_mem_target_(soc_memory),
      tlul_("tlul", hop_latency(fabric)) {
  rom_.load(firmware.base, firmware.bytes);

  // RoT-private devices.
  tlul_.map(soc::kRotFlash, rom_target_, 0, "rom");
  tlul_.map(soc::kRotSram, sram_target_, sram_latency(fabric), "sram");
  tlul_.map(kRotPlic, plic_, sram_latency(fabric), "plic");

  // Host-domain windows through the TL2AXI bridge.
  tlul_.map(soc::kCfiMailbox, mailbox, bridge_latency(fabric), "bridge-mailbox");
  tlul_.map(soc::kDram, soc_mem_target_, bridge_latency(fabric), "bridge-dram");

  ibex::IbexConfig config;
  config.reset_pc = static_cast<std::uint32_t>(firmware.base);
  config.reset_sp = static_cast<std::uint32_t>(soc::kRotSram.end() - 16);
  core_ = std::make_unique<ibex::IbexCore>(config, tlul_);

  // The HMAC accelerator needs the Ibex clock for its STATUS timing.
  hmac_ = std::make_unique<soc::HmacMmio>(tlul_, kRotDeviceSecret,
                                          [this] { return core_->cycle(); });
  tlul_.map(soc::kRotHmacAccel, *hmac_, sram_latency(fabric), "hmac");

  plic_.enable(kCfiDoorbellIrq);
  mailbox_.set_on_doorbell([this] { plic_.raise(kCfiDoorbellIrq); });

  // Sorted section table for section_of(): std::map iterates marks in name
  // order and "address <= pc, address >= best-so-far" lets a later map entry
  // win address ties, so sorting by (address, name) and taking the last
  // entry <= pc reproduces the scan exactly.
  sections_.reserve(firmware_.marks.size());
  for (const auto& [name, addr] : firmware_.marks) {
    sections_.emplace_back(addr, name);
  }
  std::sort(sections_.begin(), sections_.end());
}

ibex::IbexStep RotSubsystem::step() {
  core_->set_irq_line(plic_.irq_asserted());
  return core_->step();
}

std::optional<sim::Cycle> RotSubsystem::run_until(sim::Cycle target,
                                                  bool stop_on_completion) {
  while (core_->cycle() < target && !core_->halted()) {
    if (core_->cycle() < stall_until_) {
      // Injected stall window: the clock ticks, the pipeline is frozen.
      core_->advance_clock(std::min(target, stall_until_) - core_->cycle());
      continue;
    }
    core_->set_irq_line(plic_.irq_asserted());
    if (core_->sleeping() && !plic_.irq_asserted()) {
      core_->advance_clock(target - core_->cycle());
      break;
    }
    const sim::Cycle started = core_->cycle();
    core_->step();
    if (stop_on_completion && mailbox_.completion_pending()) {
      return started;
    }
  }
  return std::nullopt;
}

void RotSubsystem::capture(sim::Snapshot& snapshot,
                           sim::SnapshotWriter& writer) const {
  snapshot.memories.push_back(rom_.capture());
  snapshot.memories.push_back(sram_.capture());
  writer.tag(0x524F5453);  // "ROTS"
  core_->save_state(writer);
  plic_.save_state(writer);
  tlul_.save_state(writer);
  hmac_->save_state(writer);
  writer.u64(stall_until_);
  writer.u64(stalled_cycles_);
}

void RotSubsystem::restore(const sim::Snapshot& snapshot,
                           std::size_t memory_base,
                           sim::SnapshotReader& reader) {
  rom_.restore(snapshot.memories.at(memory_base));
  sram_.restore(snapshot.memories.at(memory_base + 1));
  reader.expect_tag(0x524F5453, "rot subsystem");
  core_->load_state(reader);
  plic_.load_state(reader);
  tlul_.load_state(reader);
  hmac_->load_state(reader);
  stall_until_ = reader.u64();
  stalled_cycles_ = reader.u64();
}

std::string RotSubsystem::section_of(std::uint32_t pc) const {
  // Marks partition the image: the section owning `pc` is the mark with the
  // greatest address <= pc (binary search over the construction-time table).
  const auto it = std::upper_bound(
      sections_.begin(), sections_.end(), std::uint64_t{pc},
      [](std::uint64_t value, const auto& entry) { return value < entry.first; });
  if (it == sections_.begin()) {
    return "init";
  }
  return std::prev(it)->second;
}

}  // namespace titan::cfi
