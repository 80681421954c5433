// Firmware-on-Ibex tests: the generated RV32 shadow-stack firmware processes
// commit logs through the real mailbox/PLIC/bus models, and its verdicts
// agree with the golden C++ policy (differential testing).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "firmware/builder.hpp"
#include "firmware/policy.hpp"
#include "firmware/table1.hpp"
#include "rv/encode.hpp"
#include "sim/rng.hpp"
#include "soc/mailbox.hpp"
#include "titancfi/commit_log.hpp"
#include "titancfi/rot_subsystem.hpp"

namespace titan::fw {
namespace {

/// Drives the RoT standalone: host side emulated by direct mailbox pokes.
struct RotHarness {
  soc::Mailbox mailbox;
  sim::Memory soc_memory;
  std::unique_ptr<cfi::RotSubsystem> rot;
  FwVariant variant;

  explicit RotHarness(FwVariant fw_variant,
                      cfi::RotFabric fabric = cfi::RotFabric::kBaseline,
                      unsigned capacity = 32, unsigned block = 16)
      : variant(fw_variant) {
    FirmwareConfig config;
    config.variant = fw_variant;
    config.ss_capacity = capacity;
    config.spill_block = block;
    rot = std::make_unique<cfi::RotSubsystem>(
        ibex::FirmwareRom::build(build_firmware(config)), fabric,
                                              mailbox, soc_memory);
    for (int i = 0; i < 10000 && !idle(); ++i) {
      rot->step();
    }
    EXPECT_TRUE(idle());
  }

  [[nodiscard]] bool idle() {
    return variant == FwVariant::kIrq
               ? rot->core().sleeping()
               : rot->section_of(rot->core().pc()) == "main";
  }

  /// Returns the verdict (0 = safe, 1 = violation).
  std::uint64_t check(const cfi::CommitLog& log) {
    const auto beats = log.pack();
    for (unsigned i = 0; i < beats.size(); ++i) {
      mailbox.set_data(i, beats[i]);
    }
    mailbox.ring_doorbell();
    for (int guard = 0; guard < 5'000'000; ++guard) {
      if (mailbox.completion_pending() && idle()) {
        break;
      }
      rot->step();
    }
    EXPECT_TRUE(mailbox.completion_pending()) << "firmware never completed";
    const std::uint64_t verdict = mailbox.data(0) & 1;
    mailbox.clear_completion();
    mailbox.set_data(0, 0);
    return verdict;
  }
};

cfi::CommitLog call_log(std::uint64_t pc, std::int32_t offset = 0x100) {
  cfi::CommitLog log;
  log.pc = pc;
  log.encoding = rv::enc_j(0x6F, 1, offset);
  log.next = pc + 4;
  log.target = pc + static_cast<std::uint64_t>(offset);
  return log;
}

cfi::CommitLog return_log(std::uint64_t pc, std::uint64_t target) {
  cfi::CommitLog log;
  log.pc = pc;
  log.encoding = 0x00008067;
  log.next = pc + 4;
  log.target = target;
  return log;
}

class FirmwareVariantTest : public ::testing::TestWithParam<FwVariant> {};

TEST_P(FirmwareVariantTest, MatchedCallReturnIsSafe) {
  RotHarness harness(GetParam());
  EXPECT_EQ(harness.check(call_log(0x8000'0000)), 0u);
  EXPECT_EQ(harness.check(return_log(0x8000'0200, 0x8000'0004)), 0u);
}

TEST_P(FirmwareVariantTest, MismatchedReturnIsViolation) {
  RotHarness harness(GetParam());
  EXPECT_EQ(harness.check(call_log(0x8000'0000)), 0u);
  EXPECT_EQ(harness.check(return_log(0x8000'0200, 0xDEAD'BEE0)), 1u);
}

TEST_P(FirmwareVariantTest, UnderflowIsViolation) {
  RotHarness harness(GetParam());
  EXPECT_EQ(harness.check(return_log(0x8000'0200, 0x8000'0004)), 1u);
}

TEST_P(FirmwareVariantTest, IndirectJumpIsAllowed) {
  RotHarness harness(GetParam());
  cfi::CommitLog log;
  log.pc = 0x8000'0000;
  log.encoding = rv::enc_i(0x67, 0, 0, 10, 0);  // jr a0
  log.next = log.pc + 4;
  log.target = 0x8000'5000;
  EXPECT_EQ(harness.check(log), 0u);
}

TEST_P(FirmwareVariantTest, NestedCallsLifoOrder) {
  RotHarness harness(GetParam());
  std::vector<std::uint64_t> return_sites;
  for (int depth = 0; depth < 10; ++depth) {
    const std::uint64_t pc = 0x8000'0000 + 0x40u * depth;
    EXPECT_EQ(harness.check(call_log(pc)), 0u);
    return_sites.push_back(pc + 4);
  }
  for (int depth = 10; depth-- > 0;) {
    EXPECT_EQ(harness.check(return_log(0x8001'0000, return_sites[depth])), 0u);
  }
}

TEST_P(FirmwareVariantTest, SpillAndFillThroughHmacArena) {
  // Depth 20 with capacity 8 / block 4: multiple spills, then unwinding
  // exercises authenticated fills.
  RotHarness harness(GetParam(), cfi::RotFabric::kBaseline, 8, 4);
  std::vector<std::uint64_t> return_sites;
  for (int depth = 0; depth < 20; ++depth) {
    const std::uint64_t pc = 0x8000'0000 + 0x40u * depth;
    EXPECT_EQ(harness.check(call_log(pc)), 0u);
    return_sites.push_back(pc + 4);
  }
  EXPECT_GT(harness.rot->hmac().starts(), 0u);
  for (int depth = 20; depth-- > 0;) {
    ASSERT_EQ(harness.check(return_log(0x8001'0000, return_sites[depth])), 0u)
        << "depth=" << depth;
  }
  // And an extra return underflows.
  EXPECT_EQ(harness.check(return_log(0x8001'0000, 0x8000'0004)), 1u);
}

TEST_P(FirmwareVariantTest, TamperedSpillArenaDetected) {
  RotHarness harness(GetParam(), cfi::RotFabric::kBaseline, 8, 4);
  std::vector<std::uint64_t> return_sites;
  for (int depth = 0; depth < 14; ++depth) {
    const std::uint64_t pc = 0x8000'0000 + 0x40u * depth;
    EXPECT_EQ(harness.check(call_log(pc)), 0u);
    return_sites.push_back(pc + 4);
  }
  // Attacker flips a bit in the first spilled segment's payload (in DRAM).
  const sim::Addr segment = soc::kSpillArena.base;
  harness.soc_memory.write8(segment + 32,
                            harness.soc_memory.read8(segment + 32) ^ 1);
  // Unwind: pops served from on-chip entries stay safe; the fill of the
  // tampered segment must be flagged.
  bool tamper_flagged = false;
  for (int depth = 14; depth-- > 0;) {
    if (harness.check(return_log(0x8001'0000, return_sites[depth])) == 1u) {
      tamper_flagged = true;
      break;
    }
  }
  EXPECT_TRUE(tamper_flagged);
}

INSTANTIATE_TEST_SUITE_P(Variants, FirmwareVariantTest,
                         ::testing::Values(FwVariant::kIrq, FwVariant::kPolling),
                         [](const ::testing::TestParamInfo<FwVariant>& info) {
                           return info.param == FwVariant::kIrq ? "irq"
                                                                : "polling";
                         });

// ---- Differential test: firmware vs golden policy ---------------------------

TEST(FirmwareDifferential, AgreesWithGoldenPolicyOnRandomStreams) {
  RotHarness harness(FwVariant::kPolling, cfi::RotFabric::kBaseline, 8, 4);
  sim::Memory golden_memory;
  ShadowStackConfig golden_config;
  golden_config.capacity = 8;
  golden_config.spill_block = 4;
  ShadowStackPolicy golden(golden_config, golden_memory, {'k'});

  sim::Rng rng(2025);
  std::vector<std::uint64_t> stack;  // oracle of live return sites
  int checked = 0;
  for (int step = 0; step < 300; ++step) {
    cfi::CommitLog log;
    const bool do_call = stack.empty() || rng.chance(0.55);
    if (do_call) {
      const std::uint64_t pc = 0x8000'0000 + rng.uniform(0, 1 << 16) * 4;
      log = call_log(pc);
      stack.push_back(pc + 4);
    } else {
      const bool corrupt = rng.chance(0.1);
      std::uint64_t target = stack.back();
      stack.pop_back();
      if (corrupt) {
        target ^= 0x40;
        stack.clear();  // after a violation both models' stacks diverge;
                        // restart the scenario stack
      }
      log = return_log(0x8002'0000, target);
    }
    const std::uint64_t fw_verdict = harness.check(log);
    const Verdict golden_verdict = golden.check(log);
    ASSERT_EQ(fw_verdict, golden_verdict.ok ? 0u : 1u)
        << "step " << step << " (call=" << do_call << ")";
    ++checked;
    if (fw_verdict == 1u) {
      break;  // policies may legitimately diverge after a violation
    }
  }
  EXPECT_GT(checked, 10);
}

// ---- Table I sanity ------------------------------------------------------------

TEST(Table1, VariantOrderingAndMagnitudes) {
  const auto irq_call = measure_policy_cost(RotVariant::kIrq, OpCase::kCall);
  const auto irq_ret = measure_policy_cost(RotVariant::kIrq, OpCase::kReturn);
  const auto poll_call = measure_policy_cost(RotVariant::kPolling, OpCase::kCall);
  const auto poll_ret = measure_policy_cost(RotVariant::kPolling, OpCase::kReturn);
  const auto opt_call = measure_policy_cost(RotVariant::kOptimized, OpCase::kCall);
  const auto opt_ret = measure_policy_cost(RotVariant::kOptimized, OpCase::kReturn);

  // Paper Table I totals: IRQ 258/276, Polling 103/121, Optimized 64/82.
  EXPECT_NEAR(irq_call.total().cycles, 258, 258 * 0.30);
  EXPECT_NEAR(irq_ret.total().cycles, 276, 276 * 0.30);
  EXPECT_NEAR(poll_call.total().cycles, 103, 103 * 0.35);
  EXPECT_NEAR(poll_ret.total().cycles, 121, 121 * 0.35);
  EXPECT_NEAR(opt_call.total().cycles, 64, 64 * 0.40);
  EXPECT_NEAR(opt_ret.total().cycles, 82, 82 * 0.40);

  // Orderings that must hold regardless of calibration.
  EXPECT_GT(irq_call.total().cycles, poll_call.total().cycles);
  EXPECT_GT(poll_call.total().cycles, opt_call.total().cycles);
  EXPECT_GT(irq_ret.total().cycles, poll_ret.total().cycles);
  EXPECT_GT(poll_ret.total().cycles, opt_ret.total().cycles);

  // Polling/Optimized pay no IRQ entry/exit cost.
  EXPECT_EQ(poll_call.irq_total().instructions, 0u);
  EXPECT_EQ(opt_call.irq_total().instructions, 0u);
  EXPECT_GT(irq_call.irq_total().cycles, 100u);  // dominated by wake-up+spill

  // Instruction counts ~ paper (CALL: 24 IRQ + ~24 CFI; RET: ~34 CFI).
  EXPECT_NEAR(irq_call.irq_total().instructions, 24, 6);
  EXPECT_NEAR(irq_call.cfi_total().instructions, 24, 8);
  EXPECT_NEAR(irq_ret.cfi_total().instructions, 34, 9);

  // Returns cost more than calls (longer decode + compare path).
  EXPECT_GT(irq_ret.cfi_total().instructions,
            irq_call.cfi_total().instructions);
}

TEST(Table1, MemorySplitFollowsAddressMap) {
  const auto breakdown = measure_policy_cost(RotVariant::kIrq, OpCase::kCall);
  // CFI part touches the mailbox (SoC) and the shadow stack (RoT).
  EXPECT_GT(breakdown.cfi_mem_soc.instructions, 0u);
  EXPECT_GT(breakdown.cfi_mem_rot.instructions, 0u);
  // SoC accesses are ~12 cycles, RoT ~5+1 (paper Sec. V-B).
  const double soc_per_access =
      static_cast<double>(breakdown.cfi_mem_soc.cycles) /
      static_cast<double>(breakdown.cfi_mem_soc.instructions);
  const double rot_per_access =
      static_cast<double>(breakdown.cfi_mem_rot.cycles) /
      static_cast<double>(breakdown.cfi_mem_rot.instructions);
  EXPECT_NEAR(soc_per_access, 12.0, 2.0);
  EXPECT_NEAR(rot_per_access, 5.0, 1.5);
}

TEST(Table1, OptimizedFabricSingleCycleScratchpad) {
  const auto breakdown = measure_policy_cost(RotVariant::kOptimized, OpCase::kCall);
  const double rot_per_access =
      static_cast<double>(breakdown.cfi_mem_rot.cycles) /
      static_cast<double>(breakdown.cfi_mem_rot.instructions);
  const double soc_per_access =
      static_cast<double>(breakdown.cfi_mem_soc.cycles) /
      static_cast<double>(breakdown.cfi_mem_soc.instructions);
  EXPECT_NEAR(rot_per_access, 1.0, 0.5);
  EXPECT_NEAR(soc_per_access, 8.0, 1.5);
}

}  // namespace
}  // namespace titan::fw
