// Fuzz-style end-to-end validation of the whole TitanCFI stack:
//  * any well-formed random program must complete with ZERO violations and
//    the same exit code as a bare (no-CFI) run — no false positives;
//  * any random program with an injected return-address overwrite must be
//    caught at a return — no false negatives;
//  * both properties survive randomized benign fault plans (drops,
//    duplicates, stalls, corrupt MACs, forced overflows) when every
//    degradation mechanism is armed — on both co-simulation engines;
// across random call graphs, both firmware variants, and queue depths.
#include <gtest/gtest.h>

#include "api/api.hpp"
#include "attacks/attack.hpp"
#include "cva6/core.hpp"
#include "firmware/builder.hpp"
#include "sim/fault.hpp"
#include "titancfi/soc_top.hpp"
#include "workloads/programs.hpp"

namespace titan::cfi {
namespace {

std::uint64_t bare_exit(const rv::Image& image) {
  sim::Memory memory;
  memory.load(image.base, image.bytes);
  // Strict mode: a wild read of unmapped memory (which the permissive mode
  // silently satisfies with zero) aborts the run instead of being masked.
  // Well-formed generated programs never read memory they did not write.
  memory.set_strict_unmapped(true);
  cva6::Cva6Config config;
  config.reset_pc = image.base;
  cva6::Cva6Core core(config, memory);
  core.set_trace_enabled(false);
  core.run_baseline();
  EXPECT_EQ(memory.unmapped_reads(), 0u);
  return core.exit_code();
}

struct FuzzCase {
  std::uint64_t seed;
  fw::FwVariant variant;
  std::size_t queue_depth;
};

class CosimFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(CosimFuzzTest, CleanProgramsHaveNoFalsePositives) {
  const FuzzCase fuzz = GetParam();
  const rv::Image program =
      workloads::random_callgraph(fuzz.seed, 10, /*inject_rop=*/false);
  fw::FirmwareConfig fw_config;
  fw_config.variant = fuzz.variant;
  SocConfig config;
  config.queue_depth = fuzz.queue_depth;
  SocTop soc(config, program,
             ibex::FirmwareRom::build(fw::build_firmware(fw_config)));
  const SocRunResult result = soc.run();
  EXPECT_FALSE(result.cfi_fault);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_EQ(result.exit_code, bare_exit(program));
  EXPECT_GT(result.cf_logs, 0u);
  // No component of the CFI machinery may have issued stray host-memory
  // reads: the counter that used to be silently masked by read8's zero
  // return must stay at zero for clean runs.
  EXPECT_EQ(soc.host_memory().unmapped_reads(), 0u);
}

TEST_P(CosimFuzzTest, InjectedRopIsAlwaysCaught) {
  const FuzzCase fuzz = GetParam();
  const rv::Image program =
      workloads::random_callgraph(fuzz.seed, 10, /*inject_rop=*/true);
  // Sanity: architecturally, the hijack "succeeds" without CFI.
  ASSERT_EQ(bare_exit(program), 66u) << "seed " << fuzz.seed;

  fw::FirmwareConfig fw_config;
  fw_config.variant = fuzz.variant;
  SocConfig config;
  config.queue_depth = fuzz.queue_depth;
  SocTop soc(config, program,
             ibex::FirmwareRom::build(fw::build_firmware(fw_config)));
  const SocRunResult result = soc.run();
  EXPECT_TRUE(result.cfi_fault) << "seed " << fuzz.seed;
  EXPECT_EQ(result.fault_log.classify(), rv::CfKind::kReturn);
  EXPECT_EQ(result.exit_code, 0xCF1u);  // trapped, not the attacker's 66
}

// ---- Fault-plan fuzz --------------------------------------------------------
//
// A benign-ized random fault plan: every site may appear, but parameters are
// clamped so that an armed degradation stack can always recover.  At most one
// spec per site (stacked MAC corruptions on consecutive ordinals could
// legitimately exhaust the re-request budget, which is a halt, not a recovery)
// and mem-flip syndromes are forced even (single-bit, SECDED-correctable).
sim::FaultPlan benign_plan(std::uint64_t seed) {
  const sim::FaultPlan raw = sim::FaultPlan::random(seed, 6);
  sim::FaultPlan plan;
  bool seen[sim::kFaultSiteCount] = {};
  for (sim::FaultSpec spec : raw.faults) {
    const auto site = static_cast<std::size_t>(spec.site);
    if (seen[site]) {
      continue;
    }
    seen[site] = true;
    if (spec.site == sim::FaultSite::kMemBitFlip) {
      spec.param &= ~std::uint64_t{1};
    }
    plan.faults.push_back(spec);
  }
  return plan;
}

api::Scenario faulted_scenario(const FuzzCase& fuzz, bool inject_rop) {
  return api::ScenarioBuilder()
      .name("cosim_fault_fuzz")
      .workload(api::Workload::random_callgraph(fuzz.seed, 10, inject_rop))
      .firmware(fuzz.variant == fw::FwVariant::kIrq ? api::Firmware::kIrq
                                                    : api::Firmware::kPolling)
      .queue_depth(fuzz.queue_depth)
      .drain_burst(4)
      .batch_mac(true)
      .mac_rerequest(true)
      // Watchdog window above the ~600-cycle healthy round trip, so retries
      // happen only for genuinely dropped doorbells.
      .doorbell_retry(2048, 4)
      .overflow_policy(api::OverflowPolicy::kBackPressure)
      .faults(benign_plan(fuzz.seed * 0x9E37'79B9'7F4A'7C15ull + 1))
      .build();
}

TEST_P(CosimFuzzTest, BenignFaultsNeverCauseFalsePositives) {
  const FuzzCase fuzz = GetParam();
  const rv::Image program =
      workloads::random_callgraph(fuzz.seed, 10, /*inject_rop=*/false);
  const api::Scenario scenario = faulted_scenario(fuzz, /*inject_rop=*/false);
  const api::RunReport lock =
      api::run_scenario(scenario.with_engine(api::Engine::kLockStep));
  const api::RunReport event =
      api::run_scenario(scenario.with_engine(api::Engine::kEventDriven));
  // Degradation must be transparent: same exit code as a bare run, zero
  // violations, no CFI fault — the plan is absorbed, not surfaced.
  EXPECT_FALSE(lock.cfi_fault) << scenario.serialize();
  EXPECT_EQ(lock.violations, 0u);
  EXPECT_EQ(lock.exit_code, bare_exit(program));
  // Whatever the plan actually hit must have been detected or harmless:
  // a benign plan never produces false negatives.
  EXPECT_EQ(lock.resilience.false_negatives, 0u);
  // And both engines must agree on the whole report, resilience included.
  EXPECT_EQ(lock, event) << scenario.serialize();
}

TEST_P(CosimFuzzTest, RopIsStillCaughtUnderBenignFaults) {
  const FuzzCase fuzz = GetParam();
  const rv::Image program =
      workloads::random_callgraph(fuzz.seed, 10, /*inject_rop=*/true);
  ASSERT_EQ(bare_exit(program), 66u) << "seed " << fuzz.seed;
  const api::Scenario scenario = faulted_scenario(fuzz, /*inject_rop=*/true);
  const api::RunReport lock =
      api::run_scenario(scenario.with_engine(api::Engine::kLockStep));
  const api::RunReport event =
      api::run_scenario(scenario.with_engine(api::Engine::kEventDriven));
  // Dropped doorbells, duplicate pulses, RoT stalls, corrupt MACs, forced
  // back-pressure bursts: none of it may mask the hijacked return.
  EXPECT_TRUE(lock.cfi_fault) << scenario.serialize();
  EXPECT_EQ(lock.fault_log.classify(), rv::CfKind::kReturn);
  EXPECT_EQ(lock.exit_code, 0xCF1u);
  EXPECT_EQ(lock, event) << scenario.serialize();
}

// ---- Attack-corpus fuzz -----------------------------------------------------

TEST_P(CosimFuzzTest, RandomAttackPlansAreCaughtWithFullPolicy) {
  const FuzzCase fuzz = GetParam();
  const attacks::AttackPlan plan = attacks::AttackPlan::random(fuzz.seed);
  // Architecturally the attack must succeed on a bare core — otherwise the
  // scenario below would not be testing detection of anything.
  ASSERT_EQ(bare_exit(attacks::generate(plan).image), 66u) << plan.serialize();
  const api::Scenario scenario =
      api::ScenarioBuilder()
          .name("cosim_attack_fuzz")
          .attack(plan)
          .firmware(fuzz.variant == fw::FwVariant::kIrq
                        ? api::Firmware::kIrq
                        : api::Firmware::kPolling)
          .queue_depth(fuzz.queue_depth)
          // Both policy halves armed: the shadow stack covers the backward-
          // edge kinds, the jump table the forward-edge ones — so under the
          // lossless back-pressure policy EVERY random plan must be caught.
          .jump_table(true)
          .build();
  const api::RunReport lock =
      api::run_scenario(scenario.with_engine(api::Engine::kLockStep));
  const api::RunReport event =
      api::run_scenario(scenario.with_engine(api::Engine::kEventDriven));
  EXPECT_TRUE(lock.cfi_fault) << scenario.serialize();
  EXPECT_TRUE(lock.attack.detected) << scenario.serialize();
  EXPECT_EQ(lock.attack.false_negatives, 0u) << scenario.serialize();
  EXPECT_GT(lock.attack.detection_latency, 0u);
  EXPECT_EQ(lock.exit_code, 0xCF1u);  // trapped, not the attacker's 66
  EXPECT_EQ(lock, event) << scenario.serialize();
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({seed, fw::FwVariant::kIrq, 8});
    cases.push_back({seed, fw::FwVariant::kPolling, seed % 2 ? 1u : 4u});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CosimFuzzTest, ::testing::ValuesIn(fuzz_cases()),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.variant == fw::FwVariant::kIrq ? "_irq" : "_poll") +
             "_q" + std::to_string(info.param.queue_depth);
    });

}  // namespace
}  // namespace titan::cfi
