// Full-system co-simulation tests: CVA6 + CFI stage + mailbox + Ibex firmware
// end-to-end, including ROP detection and trace-model cross-validation.
#include "titancfi/soc_top.hpp"

#include <gtest/gtest.h>

#include "firmware/builder.hpp"
#include "titancfi/overhead_model.hpp"
#include "workloads/programs.hpp"

namespace titan::cfi {
namespace {

SocConfig make_config(std::size_t queue_depth = 8,
                      RotFabric fabric = RotFabric::kBaseline) {
  SocConfig config;
  config.queue_depth = queue_depth;
  config.fabric = fabric;
  return config;
}

std::shared_ptr<const ibex::FirmwareRom> default_firmware() {
  fw::FirmwareConfig config;
  config.variant = fw::FwVariant::kIrq;
  return ibex::FirmwareRom::build(fw::build_firmware(config));
}

class SocVariantTest : public ::testing::TestWithParam<fw::FwVariant> {
 protected:
  std::shared_ptr<const ibex::FirmwareRom> firmware() const {
    fw::FirmwareConfig config;
    config.variant = GetParam();
    return ibex::FirmwareRom::build(fw::build_firmware(config));
  }
};

TEST_P(SocVariantTest, FibRunsCleanlyUnderCfi) {
  SocTop soc(make_config(), workloads::fib_recursive(8), firmware());
  const SocRunResult result = soc.run();
  EXPECT_FALSE(result.cfi_fault);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_EQ(result.exit_code, 21u);  // fib(8)
  EXPECT_GT(result.cf_logs, 100u);   // every call+return checked
  EXPECT_EQ(result.cf_logs, result.doorbells);
}

TEST_P(SocVariantTest, RopAttackIsCaught) {
  SocTop soc(make_config(), workloads::rop_victim(), firmware());
  const SocRunResult result = soc.run();
  EXPECT_TRUE(result.cfi_fault);
  EXPECT_EQ(result.violations, 1u);
  // The faulting log is the victim's hijacked return.
  EXPECT_EQ(result.fault_log.classify(), rv::CfKind::kReturn);
  // The host trapped before (or instead of) finishing with the attacker's
  // exit code path having produced a normal completion.
  EXPECT_EQ(result.exit_code, 0xCF1u);
}

TEST_P(SocVariantTest, IndirectDispatchRunsCleanly) {
  SocTop soc(make_config(), workloads::indirect_dispatch(12), firmware());
  const SocRunResult result = soc.run();
  EXPECT_FALSE(result.cfi_fault);
  EXPECT_GE(result.cf_logs, 24u);  // 12 indirect calls + 12 returns
}

INSTANTIATE_TEST_SUITE_P(Variants, SocVariantTest,
                         ::testing::Values(fw::FwVariant::kIrq,
                                           fw::FwVariant::kPolling),
                         [](const ::testing::TestParamInfo<fw::FwVariant>& info) {
                           return info.param == fw::FwVariant::kIrq ? "irq"
                                                                    : "polling";
                         });

TEST(SocTop, DeepRecursionSpillsAndStaysClean) {
  // Depth 100 >> on-chip capacity 32: firmware spills to DRAM (HMAC) and
  // fills back during unwinding, all while the host keeps committing.
  SocTop soc(make_config(), workloads::call_chain(100), default_firmware());
  const SocRunResult result = soc.run();
  EXPECT_FALSE(result.cfi_fault);
  EXPECT_EQ(result.exit_code, 100u);
  EXPECT_GT(soc.rot().hmac().starts(), 0u);  // spill path exercised
}

TEST(SocTop, QueueDepthReducesStalls) {
  const auto run_depth = [](std::size_t depth) {
    SocTop soc(make_config(depth), workloads::fib_recursive(9),
               default_firmware());
    return soc.run();
  };
  const SocRunResult deep = run_depth(8);
  const SocRunResult shallow = run_depth(1);
  EXPECT_EQ(deep.violations, 0u);
  EXPECT_EQ(shallow.violations, 0u);
  // Same checks either way, but the shallow queue stalls the commit stage
  // more and the program takes at least as long.
  EXPECT_EQ(deep.cf_logs, shallow.cf_logs);
  EXPECT_GE(shallow.cycles, deep.cycles);
  EXPECT_GE(shallow.queue_full_stalls, deep.queue_full_stalls);
}

TEST(SocTop, OptimizedFabricIsFaster) {
  const auto run_fabric = [](RotFabric fabric) {
    fw::FirmwareConfig fw_config;
    fw_config.variant = fw::FwVariant::kPolling;
    SocTop soc(make_config(4, fabric), workloads::fib_recursive(9),
               ibex::FirmwareRom::build(fw::build_firmware(fw_config)));
    return soc.run();
  };
  const SocRunResult baseline = run_fabric(RotFabric::kBaseline);
  const SocRunResult optimized = run_fabric(RotFabric::kOptimized);
  EXPECT_FALSE(baseline.cfi_fault);
  EXPECT_FALSE(optimized.cfi_fault);
  EXPECT_LT(optimized.cycles, baseline.cycles);
}

TEST(SocTop, CleanProgramsAcrossWorkloads) {
  for (const auto& [image, expected] :
       {std::pair{workloads::quicksort(24), std::uint64_t{1}},
        std::pair{workloads::crc32(16), std::uint64_t{0}},
        std::pair{workloads::matmul(4), std::uint64_t{0}},
        std::pair{workloads::stats(48), std::uint64_t{0}}}) {
    SocTop soc(make_config(), image, default_firmware());
    const SocRunResult result = soc.run();
    EXPECT_FALSE(result.cfi_fault);
    if (expected != 0) {
      EXPECT_EQ(result.exit_code, expected);
    }
  }
}

TEST(SocTop, TraceModelMatchesCoSimulation) {
  // The paper's methodology (Sec. V-C) replaces co-simulation with a
  // trace-driven model.  Validate: slowdown predicted from the baseline
  // commit trace must be close to the measured co-sim slowdown.
  const rv::Image program = workloads::fib_recursive(9);

  // Baseline run (no CFI): trace + cycles.
  sim::Memory memory;
  memory.load(program.base, program.bytes);
  cva6::Cva6Config host_config;
  host_config.reset_pc = program.base;
  cva6::Cva6Core baseline(host_config, memory);
  const sim::Cycle baseline_cycles = baseline.run_baseline();

  // Co-sim run with the polling firmware at queue depth 8.
  fw::FirmwareConfig fw_config;
  fw_config.variant = fw::FwVariant::kPolling;
  SocConfig soc_config = make_config(8);
  SocTop soc(soc_config, program,
             ibex::FirmwareRom::build(fw::build_firmware(fw_config)));
  const SocRunResult cosim = soc.run();
  const double cosim_slowdown =
      100.0 * (static_cast<double>(cosim.cycles) - baseline_cycles) /
      baseline_cycles;

  // Trace model with the measured per-op service time: polling firmware
  // takes ~103-121 cycles (Table I), transport adds the mailbox beats.
  OverheadConfig model_config;
  model_config.queue_depth = 8;
  model_config.check_latency = 112;
  model_config.transport_cycles = 13;
  const OverheadResult predicted =
      simulate_trace(baseline.trace(), baseline_cycles, model_config);

  EXPECT_GT(cosim_slowdown, 0.0);
  EXPECT_NEAR(predicted.slowdown_percent(), cosim_slowdown,
              std::max(10.0, cosim_slowdown * 0.35));
}

}  // namespace
}  // namespace titan::cfi
