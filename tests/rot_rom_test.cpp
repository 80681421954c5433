// The RoT runs from one shared, pre-decoded, read-only ROM (ibex::FirmwareRom).
// These tests check that model without comparing the two co-simulation
// engines with each other:
//   * the ROM refuses stores on the TL-UL fabric and execution goes on;
//   * the decoded table agrees, step for step, with a core that fetches and
//     decodes the same image from plain RAM, for every distinct firmware in
//     the registry;
//   * the PLIC's cached interrupt flag agrees with its source scan under
//     random operation sequences;
//   * one Scenario's ROM is shared safely by concurrent sweep workers.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/api.hpp"
#include "firmware/builder.hpp"
#include "ibex/core.hpp"
#include "ibex/rom.hpp"
#include "rv/assembler.hpp"
#include "rv/encode.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"
#include "soc/hmac_mmio.hpp"
#include "soc/mailbox.hpp"
#include "soc/plic.hpp"
#include "titancfi/log_writer.hpp"
#include "titancfi/queue_controller.hpp"
#include "titancfi/rot_subsystem.hpp"

namespace titan {
namespace {

using rv::Reg;

// ---- Read-only ROM ----------------------------------------------------------

TEST(RotRom, StoreIntoRomIsRefusedAndExecutionContinues) {
  rv::Assembler a(rv::Xlen::k32, soc::kRotFlash.base);
  const auto data = a.new_label();
  a.la(Reg::kT0, data);
  a.lw(Reg::kA1, Reg::kT0, 0);
  a.li(Reg::kA0, 0x55);
  a.sw(Reg::kA0, Reg::kT0, 0);
  a.lw(Reg::kA2, Reg::kT0, 0);
  a.li(Reg::kA3, 7);
  a.ecall();
  a.bind(data);
  a.word(0x1234'5678);
  const rv::Image image = a.finish();
  const auto rom = ibex::FirmwareRom::build(image);

  soc::Mailbox mailbox;
  sim::Memory dram;
  cfi::RotSubsystem rot(rom, cfi::RotFabric::kBaseline, mailbox, dram);
  rot.run_until(10'000);
  const ibex::IbexCore& core = rot.core();
  EXPECT_TRUE(core.halted());
  EXPECT_EQ(core.reg(11), 0x1234'5678u);
  EXPECT_EQ(core.reg(12), 0x1234'5678u);  // The store changed nothing...
  EXPECT_EQ(core.reg(13), 7u);            // ...and execution went on.
  EXPECT_EQ(core.instret(), 8u);
  EXPECT_EQ(core.off_rom_instructions(), 0u);

  const soc::Addr word = image.end() - 4;
  EXPECT_TRUE(rot.fabric().write(word, 4, 0).error);
  EXPECT_EQ(rot.fabric().read(word, 4).value, 0x1234'5678u);
  EXPECT_EQ(rom->image().bytes, image.bytes);
}

TEST(RotRom, TableHoldsOneDecodedEntryPerInstructionStart) {
  rv::Assembler a(rv::Xlen::k32, soc::kRotFlash.base);
  a.li(Reg::kA0, 0x1234'5678);  // lui + addi: two 32-bit instructions
  a.ecall();
  const rv::Image image = a.finish();
  const auto rom = ibex::FirmwareRom::build(image);
  ASSERT_EQ(rom->table().size(), image.bytes.size() / 2);
  for (std::size_t slot = 0; slot < rom->table().size(); ++slot) {
    // 32-bit encodings start on even slots; the odd halfwords are their
    // upper halves, which the sweep never starts an instruction at.
    EXPECT_EQ(rom->table()[slot].len, slot % 2 == 0 ? 4 : 0) << slot;
  }
  EXPECT_EQ(rom->table().back().len, 0);
  EXPECT_EQ(rom->table()[4].op, rv::Op::kEcall);
}

// ---- Oracle: the table against an independent fetch-and-decode -------------

/// Forwards to the mailbox and records every write the firmware makes.
class RecordingTarget final : public soc::BusTarget {
 public:
  explicit RecordingTarget(soc::BusTarget& inner) : inner_(inner) {}
  std::uint64_t read(soc::Addr addr, unsigned size) override {
    return inner_.read(addr, size);
  }
  bool write(soc::Addr addr, unsigned size, std::uint64_t value) override {
    writes.emplace_back(addr, size, value);
    return inner_.write(addr, size, value);
  }

  std::vector<std::tuple<soc::Addr, unsigned, std::uint64_t>> writes;

 private:
  soc::BusTarget& inner_;
};

/// A SoC slice with no host core: a CFI queue the script fills, the Log
/// Writer, the mailbox, and a RoT wired the way cfi::RotSubsystem wires it,
/// except for the ROM.  With `use_table` the core runs from the pre-decoded
/// table behind a read-only ROM; without it the same image sits in plain RAM
/// and the core fetches and decodes every instruction over the fabric.
struct OracleRig {
  OracleRig(const api::Scenario& scenario, bool use_table)
      : rom(ibex::FirmwareRom::build(scenario.firmware_image())),
        rom_target(rom->image().base, rom->image().bytes) {
    const cfi::SocConfig& soc = scenario.soc_config();
    axi.map(soc::kCfiMailbox, mailbox, 0, "cfi-mailbox");
    axi.map(soc::kDram, dram_target, 2, "dram");
    cfi::LogWriterConfig config;
    config.burst = soc.drain_burst;
    config.mac_batches = soc.drain_burst > 1 && soc.mac_batches;
    config.device_secret = cfi::kRotDeviceSecret;
    config.mac_key_sel = cfi::kBatchMacKeySlot;
    config.drain_wait = soc.drain_wait;
    config.drain_timeout = soc.drain_timeout;
    config.doorbell_timeout = soc.doorbell_timeout;
    config.doorbell_max_retries = soc.doorbell_max_retries;
    config.mac_rerequest = soc.mac_rerequest;
    config.mac_max_retries = soc.mac_max_retries;
    writer = std::make_unique<cfi::LogWriter>(
        queue, axi, mailbox, [this](const cfi::CommitLog&) { faulted = true; },
        config);

    const rv::Image& image = rom->image();
    if (use_table) {
      tlul.map(soc::kRotFlash, rom_target, 0, "rom");
    } else {
      rom_ram.load(image.base, image.bytes);
      tlul.map(soc::kRotFlash, rom_ram_target, 0, "rom");
    }
    tlul.map(soc::kRotSram, sram_target, 1, "sram");
    tlul.map(soc::kRotPlic, plic, 1, "plic");
    tlul.map(soc::kCfiMailbox, mailbox_port, 8, "bridge-mailbox");
    tlul.map(soc::kDram, dram_target, 8, "bridge-dram");
    ibex::IbexConfig core_config;
    core_config.reset_pc = static_cast<std::uint32_t>(image.base);
    core_config.reset_sp = static_cast<std::uint32_t>(soc::kRotSram.end() - 16);
    core = std::make_unique<ibex::IbexCore>(core_config, tlul,
                                            use_table ? rom.get() : nullptr);
    hmac = std::make_unique<soc::HmacMmio>(tlul, cfi::kRotDeviceSecret,
                                           [this] { return core->cycle(); });
    tlul.map(soc::kRotHmacAccel, *hmac, 1, "hmac");
    plic.enable(cfi::kCfiDoorbellIrq);
    mailbox.set_on_doorbell([this] { plic.raise(cfi::kCfiDoorbellIrq); });
    if (!soc.jump_table.empty()) {
      sram.write32(soc.jump_table_base,
                   static_cast<std::uint32_t>(soc.jump_table.size()));
      for (std::size_t i = 0; i < soc.jump_table.size(); ++i) {
        sram.write32(soc.jump_table_base + 4 + 4 * i, soc.jump_table[i]);
      }
    }
  }

  std::shared_ptr<const ibex::FirmwareRom> rom;
  soc::RomTarget rom_target;
  sim::Memory rom_ram;
  soc::MemoryTarget rom_ram_target{rom_ram};
  sim::Memory sram;
  soc::MemoryTarget sram_target{sram};
  sim::Memory dram;
  soc::MemoryTarget dram_target{dram};
  soc::Mailbox mailbox;
  RecordingTarget mailbox_port{mailbox};
  soc::Plic plic{4};
  soc::Crossbar axi{"axi", 2};
  soc::Crossbar tlul{"tlul", 3};
  cfi::QueueController queue{8};
  std::unique_ptr<cfi::LogWriter> writer;
  std::unique_ptr<soc::HmacMmio> hmac;
  std::unique_ptr<ibex::IbexCore> core;
  bool faulted = false;
};

/// Nested calls deep enough to spill the on-chip shadow stack to DRAM, the
/// matching returns (refilling it), then one return nothing called: the
/// violation that ends the script.
std::vector<cfi::CommitLog> oracle_script() {
  constexpr std::uint64_t kBase = 0x8000'0000;
  constexpr int kDepth = 40;
  std::vector<cfi::CommitLog> logs;
  for (int i = 0; i < kDepth; ++i) {
    cfi::CommitLog call;
    call.pc = kBase + 0x1000 * static_cast<std::uint64_t>(i);
    call.encoding = rv::enc_j(0x6F, 1, 0x100);  // jal ra, +0x100
    call.next = call.pc + 4;
    call.target = call.pc + 0x100;
    logs.push_back(call);
  }
  for (int i = kDepth - 1; i >= 0; --i) {
    cfi::CommitLog ret;
    ret.pc = kBase + 0x1000 * static_cast<std::uint64_t>(i) + 0x140;
    ret.encoding = 0x00008067;  // jalr x0, 0(ra)
    ret.next = ret.pc + 4;
    ret.target = kBase + 0x1000 * static_cast<std::uint64_t>(i) + 4;
    logs.push_back(ret);
  }
  cfi::CommitLog hijack;
  hijack.pc = kBase + 0x9'0000;
  hijack.encoding = 0x00008067;
  hijack.next = hijack.pc + 4;
  hijack.target = 0xDEAD'0000;
  logs.push_back(hijack);
  return logs;
}

void expect_same_step(const OracleRig& table, const OracleRig& ram,
                      std::uint64_t step) {
  ASSERT_EQ(table.core->pc(), ram.core->pc()) << "step " << step;
  ASSERT_EQ(table.core->cycle(), ram.core->cycle()) << "step " << step;
  ASSERT_EQ(table.core->instret(), ram.core->instret()) << "step " << step;
  for (unsigned reg = 0; reg < 32; ++reg) {
    ASSERT_EQ(table.core->reg(reg), ram.core->reg(reg))
        << "step " << step << " x" << reg;
  }
  ASSERT_EQ(table.mailbox_port.writes, ram.mailbox_port.writes)
      << "step " << step;
}

/// Drive both rigs with one script, host cycle by host cycle as the
/// lock-step engine does, stepping the two cores in lock step and comparing
/// them after every step.
void run_oracle(OracleRig& table, OracleRig& ram) {
  const std::vector<cfi::CommitLog> logs = oracle_script();
  constexpr sim::Cycle kRotLead = 200;  // SocTop's RoT init budget.
  std::size_t next = 0;
  std::uint64_t steps = 0;
  for (sim::Cycle host = 0; host < 2'000'000 && !table.faulted; ++host) {
    ASSERT_EQ(table.queue.queue().size(), ram.queue.queue().size());
    if (next < logs.size() && !table.queue.queue().full()) {
      table.queue.queue().push(logs[next]);
      ram.queue.queue().push(logs[next]);
      ++next;
    }
    table.writer->tick(host);
    ram.writer->tick(host);
    ASSERT_EQ(table.faulted, ram.faulted);
    const sim::Cycle target = host + kRotLead;
    while (table.core->cycle() < target && !table.core->halted()) {
      const bool irq = table.plic.irq_asserted();
      ASSERT_EQ(irq, ram.plic.irq_asserted());
      table.core->set_irq_line(irq);
      ram.core->set_irq_line(irq);
      if (table.core->sleeping() && !irq) {
        ASSERT_TRUE(ram.core->sleeping());
        table.core->advance_clock(target - table.core->cycle());
        ram.core->advance_clock(target - ram.core->cycle());
        break;
      }
      table.core->step();
      ram.core->step();
      expect_same_step(table, ram, ++steps);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  // The whole script ran, ending at the planted violation.
  EXPECT_EQ(next, logs.size());
  EXPECT_TRUE(table.faulted);
  EXPECT_TRUE(ram.faulted);
  EXPECT_FALSE(table.core->halted());
  // The two rigs really took different fetch paths.
  EXPECT_EQ(table.core->off_rom_instructions(), 0u);
  EXPECT_EQ(ram.core->off_rom_instructions(), ram.core->instret());
  EXPECT_GT(ram.core->instret(), 2000u);
}

std::string firmware_key(const fw::FirmwareConfig& config) {
  std::ostringstream key;
  key << static_cast<int>(config.variant) << '/' << config.ss_capacity << '/'
      << config.spill_block << '/' << config.enable_jump_table << '/'
      << config.batch_capacity << '/' << config.batch_mac << '/'
      << config.retry_handshake << '/' << config.mac_rerequest;
  return key.str();
}

TEST(RotRomOracle, TableMatchesRamFetchForEveryRegistryFirmware) {
  std::set<std::string> seen;
  const api::ScenarioRegistry& registry = api::ScenarioRegistry::global();
  for (const std::string_view name : registry.names()) {
    const api::Scenario& scenario = *registry.find(name);
    if (!seen.insert(firmware_key(scenario.firmware_config())).second) {
      continue;
    }
    SCOPED_TRACE("scenario: " + scenario.serialize());
    OracleRig table(scenario, /*use_table=*/true);
    OracleRig ram(scenario, /*use_table=*/false);
    run_oracle(table, ram);
    if (HasFatalFailure()) {
      return;
    }
  }
  // Both variants, single-log and burst, MAC, jump table, retry and
  // re-request handshakes.
  EXPECT_GE(seen.size(), 10u);
}

// ---- Concurrent runs share one ROM -------------------------------------------

TEST(RotRomConcurrency, SweepWorkersShareOneScenariosRom) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find("irq/baseline/burst1");
  ASSERT_NE(scenario, nullptr);
  const api::RunReport serial = api::run_scenario(*scenario);
  sim::SweepRunner runner(sim::SweepOptions{.threads = 4});
  const std::vector<api::RunReport> reports =
      runner.run<api::RunReport>(8, [scenario](std::size_t index) {
        return api::run_scenario(
            index % 2 == 0 ? *scenario
                           : scenario->with_engine(api::Engine::kLockStep));
      });
  for (const api::RunReport& report : reports) {
    EXPECT_EQ(report, serial);
  }
}

// ---- One ROM per distinct firmware config ----------------------------------

void expect_same_table(const ibex::FirmwareRom& shared,
                       const ibex::FirmwareRom& fresh) {
  EXPECT_EQ(shared.image().base, fresh.image().base);
  EXPECT_EQ(shared.image().bytes, fresh.image().bytes);
  ASSERT_EQ(shared.table().size(), fresh.table().size());
  for (std::size_t slot = 0; slot < fresh.table().size(); ++slot) {
    const rv::Inst& a = shared.table()[slot];
    const rv::Inst& b = fresh.table()[slot];
    ASSERT_EQ(std::tie(a.op, a.rd, a.rs1, a.rs2, a.imm, a.raw, a.expanded,
                       a.len),
              std::tie(b.op, b.rd, b.rs1, b.rs2, b.imm, b.raw, b.expanded,
                       b.len))
        << "slot " << slot;
  }
}

TEST(RotRomSharing, EqualConfigsShareOneRomWithUnchangedTable) {
  fw::FirmwareConfig config;
  config.variant = fw::FwVariant::kPolling;
  config.batch_capacity = 8;
  fw::FirmwareConfig equal = config;
  // A geometry no registry scenario uses, so nothing else holds its ROM.
  fw::FirmwareConfig other = config;
  other.ss_capacity = 27;
  other.spill_block = 9;

  const auto first = fw::shared_rom(config);
  const auto second = fw::shared_rom(equal);
  auto distinct = fw::shared_rom(other);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_NE(first.get(), distinct.get());
  expect_same_table(*first,
                    *ibex::FirmwareRom::build(fw::build_firmware(config)));
  expect_same_table(*distinct,
                    *ibex::FirmwareRom::build(fw::build_firmware(other)));

  // The cache keeps no ROM alive by itself.
  const std::weak_ptr<const ibex::FirmwareRom> watch = distinct;
  distinct.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(RotRomSharing, ScenariosWithEqualFirmwareShareOneRom) {
  const auto build = [](const std::string& name, api::Workload workload) {
    return api::ScenarioBuilder()
        .name(name)
        .workload(std::move(workload))
        .firmware(api::Firmware::kIrq)
        .drain_burst(8)
        .build();
  };
  const api::Scenario a = build("share/a", api::Workload::fib(6));
  const api::Scenario b = build("share/b", api::Workload::stats(16));
  EXPECT_EQ(&a.firmware_image(), &b.firmware_image());
  const api::Scenario c = api::ScenarioBuilder()
                              .name("share/c")
                              .workload(api::Workload::fib(6))
                              .firmware(api::Firmware::kPolling)
                              .build();
  EXPECT_NE(&a.firmware_image(), &c.firmware_image());
}

TEST(RotRomConcurrency, ThreadsAskingForOneConfigShareOneRom) {
  fw::FirmwareConfig config;
  config.ss_capacity = 24;
  std::vector<std::shared_ptr<const ibex::FirmwareRom>> roms(4);
  std::vector<std::thread> threads;
  for (auto& rom : roms) {
    threads.emplace_back([&rom, &config] { rom = fw::shared_rom(config); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const auto& rom : roms) {
    EXPECT_EQ(rom.get(), roms.front().get());
  }
}

// ---- PLIC interrupt flag ----------------------------------------------------

TEST(PlicFlagProperty, FlagEqualsSourceScanAfterEveryOperation) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    auto plic = std::make_unique<soc::Plic>(4);
    for (int op = 0; op < 500; ++op) {
      // Source ids include 0 and out-of-range ids, which must be no-ops.
      const auto source = static_cast<unsigned>(rng.uniform(0, 6));
      switch (rng.uniform(0, 8)) {
        case 0: plic->raise(source); break;
        case 1: plic->lower(source); break;
        case 2: plic->enable(source, rng.uniform(0, 1) == 1); break;
        case 3: (void)plic->claim(); break;
        case 4: plic->complete(source); break;
        case 5:
          plic->write(soc::Plic::kEnableOffset, 4, rng.uniform(0, 0x3F));
          break;
        case 6: plic->write(soc::Plic::kClaimOffset, 4, source); break;
        case 7: (void)plic->read(soc::Plic::kClaimOffset, 4); break;
        default: {
          sim::SnapshotWriter writer;
          plic->save_state(writer);
          const std::vector<std::uint8_t> bytes = writer.take();
          plic = std::make_unique<soc::Plic>(4);
          sim::SnapshotReader reader(bytes);
          plic->load_state(reader);
          break;
        }
      }
      ASSERT_EQ(plic->irq_asserted(), plic->pending_source() != 0)
          << "after operation " << op;
    }
  }
}

}  // namespace
}  // namespace titan
