#include "titancfi/rot_subsystem.hpp"

#include <algorithm>
#include <utility>

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

RotSubsystem::RotSubsystem(std::shared_ptr<const ibex::FirmwareRom> firmware,
                           RotFabric fabric, soc::Mailbox& mailbox,
                           sim::Memory& soc_memory)
    : rom_(std::move(firmware)),
      mailbox_(mailbox),
      rom_target_(rom_->image().base, rom_->image().bytes),
      soc_mem_target_(soc_memory),
      tlul_("tlul", hop_latency(fabric)) {
  // RoT-private devices.  The ROM is read-only: a store is a bus error.
  tlul_.map(soc::kRotFlash, rom_target_, 0, "rom");
  tlul_.map(soc::kRotSram, sram_target_, sram_latency(fabric), "sram");
  tlul_.map(kRotPlic, plic_, sram_latency(fabric), "plic");

  // Host-domain windows through the TL2AXI bridge.
  tlul_.map(soc::kCfiMailbox, mailbox, bridge_latency(fabric), "bridge-mailbox");
  tlul_.map(soc::kDram, soc_mem_target_, bridge_latency(fabric), "bridge-dram");

  ibex::IbexConfig config;
  config.reset_pc = rom_->base();
  config.reset_sp = static_cast<std::uint32_t>(soc::kRotSram.end() - 16);
  core_ = std::make_unique<ibex::IbexCore>(config, tlul_, rom_.get());

  // The HMAC accelerator needs the Ibex clock for its STATUS timing.
  hmac_ = std::make_unique<soc::HmacMmio>(tlul_, kRotDeviceSecret,
                                          [this] { return core_->cycle(); });
  tlul_.map(soc::kRotHmacAccel, *hmac_, sram_latency(fabric), "hmac");

  plic_.enable(kCfiDoorbellIrq);
  mailbox_.set_on_doorbell([this] { plic_.raise(kCfiDoorbellIrq); });
}

std::optional<sim::Cycle> RotSubsystem::run_until(sim::Cycle target,
                                                  bool stop_on_completion) {
  ibex::IbexCore& core = *core_;
  if (!core.halted() && core.cycle() < std::min(target, stall_until_)) {
    // Injected stall window: the clock ticks, the pipeline is frozen.
    core.advance_clock(std::min(target, stall_until_) - core.cycle());
  }
  // The PLIC, the sleep state and the mailbox change only in a step that
  // ends IbexCore::run, so they are re-read after those steps alone.  A
  // completion already pending ends the window after the first step.
  const bool single = stop_on_completion && mailbox_.completion_pending();
  while (core.cycle() < target && !core.halted()) {
    const bool irq = plic_.irq_asserted();
    core.set_irq_line(irq);
    if (core.sleeping() && !irq) {
      core.advance_clock(target - core.cycle());
      break;
    }
    const sim::Cycle started = core.run(single ? core.cycle() + 1 : target);
    if (stop_on_completion && mailbox_.completion_pending()) {
      return started;
    }
  }
  return std::nullopt;
}

ibex::IbexStep RotSubsystem::step() {
  core_->set_irq_line(plic_.irq_asserted());
  return core_->step();
}

void RotSubsystem::capture(sim::Snapshot& snapshot,
                           sim::SnapshotWriter& writer) const {
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
  sram_.restore(snapshot.memories.at(memory_base));
  reader.expect_tag(0x524F5453, "rot subsystem");
  core_->load_state(reader);
  plic_.load_state(reader);
  tlul_.load_state(reader);
  hmac_->load_state(reader);
  stall_until_ = reader.u64();
  stalled_cycles_ = reader.u64();
}

}  // namespace titan::cfi
