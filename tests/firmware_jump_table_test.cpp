// Forward-edge enforcement in the RV32 firmware: the jump-table variant of
// the policy, provisioned through RoT SRAM, end-to-end on the Ibex model and
// through full co-simulation.
#include <gtest/gtest.h>

#include <memory>

#include "firmware/builder.hpp"
#include "rv/encode.hpp"
#include "soc/mailbox.hpp"
#include "titancfi/rot_subsystem.hpp"
#include "titancfi/soc_top.hpp"
#include "workloads/programs.hpp"

namespace titan::fw {
namespace {

struct JtHarness {
  soc::Mailbox mailbox;
  sim::Memory soc_memory;
  std::unique_ptr<cfi::RotSubsystem> rot;

  JtHarness() {
    FirmwareConfig config;
    config.variant = FwVariant::kPolling;
    config.enable_jump_table = true;
    rot = std::make_unique<cfi::RotSubsystem>(
        ibex::FirmwareRom::build(build_firmware(config)),
        cfi::RotFabric::kBaseline, mailbox, soc_memory);
    for (int i = 0; i < 10000; ++i) {
      if (rot->section_of(rot->core().pc()) == "main") {
        break;
      }
      rot->step();
    }
  }

  void provision(const std::vector<std::uint32_t>& targets) {
    rot->sram().write32(FwLayout::kJumpTable,
                        static_cast<std::uint32_t>(targets.size()));
    for (std::size_t i = 0; i < targets.size(); ++i) {
      rot->sram().write32(FwLayout::kJumpTable + 4 + 4 * i, targets[i]);
    }
  }

  std::uint64_t check(const cfi::CommitLog& log) {
    const auto beats = log.pack();
    for (unsigned i = 0; i < beats.size(); ++i) {
      mailbox.set_data(i, beats[i]);
    }
    mailbox.ring_doorbell();
    for (int guard = 0; guard < 1'000'000; ++guard) {
      if (mailbox.completion_pending() &&
          rot->section_of(rot->core().pc()) == "main") {
        break;
      }
      rot->step();
    }
    EXPECT_TRUE(mailbox.completion_pending());
    const std::uint64_t verdict = mailbox.data(0) & 1;
    mailbox.clear_completion();
    mailbox.set_data(0, 0);
    return verdict;
  }
};

cfi::CommitLog ijump(std::uint64_t target) {
  cfi::CommitLog log;
  log.pc = 0x8000'0000;
  log.encoding = rv::enc_i(0x67, 0, 0, 10, 0);  // jr a0
  log.next = log.pc + 4;
  log.target = target;
  return log;
}

cfi::CommitLog indirect_call(std::uint64_t target) {
  cfi::CommitLog log;
  log.pc = 0x8000'0100;
  log.encoding = rv::enc_i(0x67, 0, 1, 10, 0);  // jalr ra, 0(a0)
  log.next = log.pc + 4;
  log.target = target;
  return log;
}

TEST(FirmwareJumpTable, EmptyTableIsInert) {
  JtHarness harness;
  EXPECT_EQ(harness.check(ijump(0x8000'5000)), 0u);
  EXPECT_EQ(harness.check(indirect_call(0x8000'6000)), 0u);
}

TEST(FirmwareJumpTable, RegisteredTargetsAccepted) {
  JtHarness harness;
  harness.provision({0x8000'5000, 0x8000'6000, 0x8000'7000});
  EXPECT_EQ(harness.check(ijump(0x8000'5000)), 0u);
  EXPECT_EQ(harness.check(ijump(0x8000'7000)), 0u);
  EXPECT_EQ(harness.check(indirect_call(0x8000'6000)), 0u);
}

TEST(FirmwareJumpTable, UnregisteredTargetsRejected) {
  JtHarness harness;
  harness.provision({0x8000'5000});
  EXPECT_EQ(harness.check(ijump(0x8000'5004)), 1u);
  EXPECT_EQ(harness.check(indirect_call(0xDEAD'BEE0)), 1u);
}

TEST(FirmwareJumpTable, DirectCallsUnaffected) {
  JtHarness harness;
  harness.provision({0x8000'5000});  // tiny table
  cfi::CommitLog call;
  call.pc = 0x8000'0000;
  call.encoding = rv::enc_j(0x6F, 1, 0x100);  // jal ra (direct): no jt check
  call.next = call.pc + 4;
  call.target = call.pc + 0x100;  // NOT in the table — still fine
  EXPECT_EQ(harness.check(call), 0u);
  // And the matching return works (shadow stack still active).
  cfi::CommitLog ret;
  ret.pc = 0x8000'0200;
  ret.encoding = 0x00008067;
  ret.next = ret.pc + 4;
  ret.target = call.next;
  EXPECT_EQ(harness.check(ret), 0u);
}

TEST(FirmwareJumpTable, CoSimCatchesCorruptedFunctionPointer) {
  // indirect_dispatch jumps through a function-pointer table in DRAM.
  // Provision the RoT jump table with the four legitimate handlers, then
  // corrupt one DRAM table slot: the CFI fault must fire at the indirect
  // call that consumes it.
  const rv::Image program = workloads::indirect_dispatch(8);

  FirmwareConfig fw_config;
  fw_config.variant = FwVariant::kPolling;
  fw_config.enable_jump_table = true;
  const auto firmware = ibex::FirmwareRom::build(build_firmware(fw_config));

  // Discover the legitimate handler addresses from a bare run.
  std::vector<std::uint32_t> handlers;
  {
    sim::Memory memory;
    memory.load(program.base, program.bytes);
    cva6::Cva6Config config;
    config.reset_pc = program.base;
    cva6::Cva6Core core(config, memory);
    core.run_baseline();
    for (const auto& record : core.trace()) {
      if (record.kind == rv::CfKind::kCall &&
          (record.encoding & 0x7F) == 0x67) {
        handlers.push_back(static_cast<std::uint32_t>(record.target));
      }
    }
    ASSERT_FALSE(handlers.empty());
  }

  const auto run_once = [&](bool corrupt) {
    cfi::SocConfig config;
    config.queue_depth = 8;
    cfi::SocTop soc(config, program, firmware);
    // Provision the RoT-side table.
    soc.rot().sram().write32(FwLayout::kJumpTable,
                             static_cast<std::uint32_t>(handlers.size()));
    for (std::size_t i = 0; i < handlers.size(); ++i) {
      soc.rot().sram().write32(FwLayout::kJumpTable + 4 + 4 * i, handlers[i]);
    }
    if (corrupt) {
      // The guest's function-pointer table lives right after its handlers;
      // find it by scanning DRAM for the first handler's address.
      const std::uint64_t handler0 = handlers[0];
      for (std::uint64_t addr = program.base;
           addr < program.base + program.bytes.size(); addr += 8) {
        if (soc.host_memory().read64(addr) == handler0) {
          soc.host_memory().write64(addr, handler0 + 2);  // skew the pointer
          break;
        }
      }
    }
    return soc.run();
  };

  const auto clean = run_once(false);
  EXPECT_FALSE(clean.cfi_fault);
  EXPECT_EQ(clean.violations, 0u);

  const auto attacked = run_once(true);
  EXPECT_TRUE(attacked.cfi_fault);
  EXPECT_EQ(attacked.fault_log.classify(), rv::CfKind::kCall);
}

}  // namespace
}  // namespace titan::fw
