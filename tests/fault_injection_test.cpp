// Deterministic fault injection and graceful degradation.
//
// Covers the sim::FaultPlan value type (serialize/parse round trip, seeded
// generation), every injection site end to end through a scenario run, each
// overflow policy's loss semantics, the builder's rejection matrix for
// degenerate degradation configs, and the two replay guarantees the ISSUE
// demands: the same plan reproduces a byte-identical RunReport, and the
// fail-closed policy never produces a false negative.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/api.hpp"
#include "sim/fault.hpp"

namespace titan {
namespace {

using sim::FaultPlan;
using sim::FaultSite;
using sim::FaultSpec;

// ---- FaultPlan value type ---------------------------------------------------

TEST(FaultPlanTest, SerializeRoundTrip) {
  FaultPlan plan;
  plan.faults.push_back({FaultSite::kDoorbellDrop, 3, 0});
  plan.faults.push_back({FaultSite::kMacCorrupt, 0, 201});
  plan.faults.push_back({FaultSite::kQueueOverflow, 17, 6});
  plan.faults.push_back({FaultSite::kMemBitFlip, 2, 42});
  plan.faults.push_back({FaultSite::kRotStall, 1, 400});
  plan.faults.push_back({FaultSite::kDoorbellDuplicate, 5, 0});

  const std::string text = plan.serialize();
  EXPECT_EQ(FaultPlan::parse(text), plan);
  // Parameterless specs omit the #param suffix.
  EXPECT_NE(text.find("doorbell_drop@3"), std::string::npos);
  EXPECT_EQ(text.find("doorbell_drop@3#"), std::string::npos);
  EXPECT_NE(text.find("mac_corrupt@0#201"), std::string::npos);
}

TEST(FaultPlanTest, EmptyPlanIsEmptyString) {
  EXPECT_EQ(FaultPlan{}.serialize(), "");
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanTest, ParseRejectsJunk) {
  EXPECT_THROW((void)FaultPlan::parse("not_a_site@0"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("mac_corrupt"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("mac_corrupt@"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("mac_corrupt@x"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("mac_corrupt@1#"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("mac_corrupt@1#2z"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("mac_corrupt@1+"), std::invalid_argument);
}

TEST(FaultPlanTest, SiteNamesRoundTrip) {
  for (std::size_t i = 0; i < sim::kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    const auto back = sim::fault_site_from_name(sim::fault_site_name(site));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(sim::fault_site_from_name("voltage_glitch").has_value());
}

TEST(FaultPlanTest, RandomPlanIsSeedDeterministic) {
  const FaultPlan a = FaultPlan::random(0xFEED, 8);
  const FaultPlan b = FaultPlan::random(0xFEED, 8);
  const FaultPlan c = FaultPlan::random(0xBEEF, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.faults.size(), 8u);
  EXPECT_EQ(FaultPlan::parse(a.serialize()), a);
}

TEST(FaultPlanTest, LatencyBucketsAreLog2) {
  EXPECT_EQ(sim::latency_bucket(0), 0u);
  EXPECT_EQ(sim::latency_bucket(1), 1u);
  EXPECT_EQ(sim::latency_bucket(2), 2u);
  EXPECT_EQ(sim::latency_bucket(3), 2u);
  EXPECT_EQ(sim::latency_bucket(4), 3u);
  EXPECT_EQ(sim::latency_bucket(63), 6u);
  EXPECT_EQ(sim::latency_bucket(64), 7u);
  EXPECT_EQ(sim::latency_bucket(1'000'000), sim::kLatencyBuckets - 1);
}

// ---- Scenario-level helpers -------------------------------------------------

constexpr std::size_t index_of(FaultSite site) {
  return static_cast<std::size_t>(site);
}

api::ScenarioBuilder burst4(const char* name) {
  return api::ScenarioBuilder()
      .name(name)
      .workload(api::Workload::fib(8))
      .drain_burst(4);
}

api::RunReport run(const api::Scenario& scenario) {
  return api::run_scenario(scenario);
}

// ---- Each site, end to end --------------------------------------------------

TEST(FaultSiteTest, DoorbellDropRecoversViaWatchdog) {
  const api::RunReport clean = run(burst4("clean").build());
  const api::RunReport faulted =
      run(burst4("drop")
              .doorbell_retry(2048, 3)
              .faults(FaultPlan::parse("doorbell_drop@1"))
              .build());
  EXPECT_FALSE(faulted.cfi_fault);
  EXPECT_EQ(faulted.exit_code, clean.exit_code);
  EXPECT_EQ(faulted.cf_logs, clean.cf_logs);
  EXPECT_EQ(faulted.resilience.injected[index_of(FaultSite::kDoorbellDrop)],
            1u);
  EXPECT_EQ(faulted.resilience.detected[index_of(FaultSite::kDoorbellDrop)],
            1u);
  EXPECT_EQ(faulted.resilience.doorbell_retries, 1u);
  // The lost pulse costs one full watchdog window of degraded operation.
  EXPECT_GE(faulted.resilience.degraded_cycles, 2048u);
  EXPECT_EQ(faulted.resilience.false_negatives, 0u);
}

TEST(FaultSiteTest, DuplicateDoorbellIsAbsorbed) {
  const api::RunReport clean = run(burst4("clean").build());
  const api::RunReport faulted =
      run(burst4("dup").faults(FaultPlan::parse("doorbell_dup@2")).build());
  EXPECT_FALSE(faulted.cfi_fault);
  EXPECT_EQ(faulted.exit_code, clean.exit_code);
  EXPECT_EQ(faulted.cf_logs, clean.cf_logs);
  // The duplicate pulse reaches the mailbox (one extra ring) but collapses
  // into the already-pending flag.
  EXPECT_EQ(faulted.doorbells, clean.doorbells + 1);
  EXPECT_EQ(
      faulted.resilience.detected[index_of(FaultSite::kDoorbellDuplicate)],
      1u);
  EXPECT_EQ(faulted.violations, 0u);
}

TEST(FaultSiteTest, MacCorruptionFailsClosedWithoutRerequest) {
  const api::RunReport faulted =
      run(api::ScenarioBuilder()
              .name("mac_halt")
              .workload(api::Workload::fib(8))
              .drain_burst(8)
              .batch_mac(true)
              .faults(FaultPlan::parse("mac_corrupt@1#13"))
              .build());
  EXPECT_TRUE(faulted.cfi_fault);
  EXPECT_EQ(faulted.resilience.injected[index_of(FaultSite::kMacCorrupt)], 1u);
  EXPECT_EQ(faulted.resilience.detected[index_of(FaultSite::kMacCorrupt)], 1u);
  EXPECT_EQ(faulted.resilience.false_negatives, 0u);
}

TEST(FaultSiteTest, MacCorruptionRecoversViaRerequest) {
  const api::RunReport clean = run(api::ScenarioBuilder()
                                       .name("clean")
                                       .workload(api::Workload::fib(8))
                                       .drain_burst(8)
                                       .batch_mac(true)
                                       .build());
  const api::RunReport faulted =
      run(api::ScenarioBuilder()
              .name("mac_retry")
              .workload(api::Workload::fib(8))
              .drain_burst(8)
              .batch_mac(true)
              .mac_rerequest(true)
              .faults(FaultPlan::parse("mac_corrupt@1#200"))
              .build());
  EXPECT_FALSE(faulted.cfi_fault);
  EXPECT_EQ(faulted.exit_code, clean.exit_code);
  EXPECT_EQ(faulted.cf_logs, clean.cf_logs);
  EXPECT_EQ(faulted.resilience.mac_retries, 1u);
  EXPECT_EQ(faulted.resilience.detected[index_of(FaultSite::kMacCorrupt)], 1u);
  // The retransmitted burst is one extra mailbox transfer, not extra logs.
  EXPECT_EQ(faulted.batches, clean.batches + 1);
}

TEST(FaultSiteTest, MemFlipSingleBitIsCorrected) {
  const api::RunReport clean =
      run(api::ScenarioBuilder()
              .name("clean")
              .workload(api::Workload::fib(8))
              .build());
  const api::RunReport faulted =
      run(api::ScenarioBuilder()
              .name("flip1")
              .workload(api::Workload::fib(8))
              .faults(FaultPlan::parse("mem_flip@3#42"))
              .build());
  EXPECT_FALSE(faulted.cfi_fault);
  EXPECT_EQ(faulted.exit_code, clean.exit_code);
  EXPECT_EQ(faulted.cf_logs, clean.cf_logs);
  EXPECT_EQ(faulted.resilience.detected[index_of(FaultSite::kMemBitFlip)], 1u);
  EXPECT_EQ(faulted.resilience.dropped_logs, 0u);
}

TEST(FaultSiteTest, MemFlipDoubleBitFailsClosed) {
  const api::RunReport faulted =
      run(api::ScenarioBuilder()
              .name("flip2")
              .workload(api::Workload::fib(8))
              .faults(FaultPlan::parse("mem_flip@3#43"))  // odd = double flip
              .build());
  EXPECT_TRUE(faulted.cfi_fault);
  EXPECT_EQ(faulted.resilience.detected[index_of(FaultSite::kMemBitFlip)], 1u);
  EXPECT_EQ(faulted.resilience.false_negatives, 0u);
}

TEST(FaultSiteTest, RotStallShowsAsDegradedCycles) {
  const api::RunReport clean = run(burst4("clean").build());
  const api::RunReport faulted =
      run(burst4("stall")
              .doorbell_retry(2048, 4)
              .faults(FaultPlan::parse("rot_stall@0#400"))
              .build());
  EXPECT_FALSE(faulted.cfi_fault);
  EXPECT_EQ(faulted.exit_code, clean.exit_code);
  EXPECT_EQ(faulted.resilience.detected[index_of(FaultSite::kRotStall)], 1u);
  EXPECT_EQ(faulted.resilience.degraded_cycles, 400u);
  // Stall (400) < watchdog window (2048): the late service needs no retry.
  EXPECT_EQ(faulted.resilience.doorbell_retries, 0u);
}

// ---- Overflow policies ------------------------------------------------------

api::ScenarioBuilder overflow_scenario(const char* name,
                                       api::OverflowPolicy policy,
                                       std::size_t depth) {
  return api::ScenarioBuilder()
      .name(name)
      .workload(api::Workload::fib(8))
      .queue_depth(depth)
      .overflow_policy(policy)
      .faults(FaultPlan::parse("queue_overflow@5#6"));
}

TEST(OverflowPolicyTest, BackPressureIsLossless) {
  const api::RunReport report = run(
      overflow_scenario("bp", api::OverflowPolicy::kBackPressure, 2).build());
  EXPECT_FALSE(report.cfi_fault);
  EXPECT_EQ(report.resilience.dropped_logs, 0u);
  EXPECT_EQ(report.resilience.false_negatives, 0u);
  EXPECT_EQ(report.resilience.detected[index_of(FaultSite::kQueueOverflow)],
            1u);
  // The forced-full burst stalls commit for (at least) its width.
  EXPECT_GE(report.resilience.degraded_cycles, 6u);
}

TEST(OverflowPolicyTest, FailClosedHaltsWithoutLoss) {
  // Depth 8: the queue still has room at push ordinal 5, so the halt is
  // attributable to the forced burst alone.
  const api::RunReport report = run(
      overflow_scenario("fc", api::OverflowPolicy::kFailClosed, 8).build());
  EXPECT_TRUE(report.cfi_fault);
  EXPECT_EQ(report.resilience.dropped_logs, 0u);
  EXPECT_EQ(report.resilience.false_negatives, 0u);
  EXPECT_EQ(report.resilience.detected[index_of(FaultSite::kQueueOverflow)],
            1u);
}

TEST(OverflowPolicyTest, FailOpenDropsAndCounts) {
  const api::RunReport report = run(
      overflow_scenario("fo", api::OverflowPolicy::kFailOpen, 2).build());
  EXPECT_GT(report.resilience.dropped_logs, 0u);
  EXPECT_GT(report.resilience.false_negatives, 0u);
  // Fail-open is the false-negative window: the forced overflow is
  // deliberately NOT counted as detected.
  EXPECT_EQ(report.resilience.detected[index_of(FaultSite::kQueueOverflow)],
            0u);
}

TEST(OverflowPolicyTest, FailOpenCanMissARealAttack) {
  // Force every push attempt to see a full queue under fail-open: all logs
  // (including the ROP's violating return) retire unchecked.  The attack
  // escapes — and the report says so via false_negatives.
  const api::RunReport report =
      run(api::ScenarioBuilder()
              .name("escape")
              .workload(api::Workload::rop_victim())
              .overflow_policy(api::OverflowPolicy::kFailOpen)
              .faults(FaultPlan::parse("queue_overflow@0#4096"))
              .build());
  EXPECT_FALSE(report.cfi_fault);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_GT(report.resilience.false_negatives, 0u);
}

// ---- ISSUE acceptance: all sites, fail closed, zero false negatives ---------

TEST(ResilienceTest, AllSitesFailClosedHasZeroFalseNegatives) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find("faults/all_sites_closed");
  ASSERT_NE(scenario, nullptr);
  const api::RunReport report = run(*scenario);
  for (std::size_t site = 0; site < sim::kFaultSiteCount; ++site) {
    EXPECT_EQ(report.resilience.injected[site], 1u)
        << "site " << sim::fault_site_name(static_cast<FaultSite>(site));
  }
  EXPECT_EQ(report.resilience.dropped_logs, 0u);
  EXPECT_EQ(report.resilience.false_negatives, 0u);
}

// ---- Replay determinism -----------------------------------------------------

TEST(ResilienceTest, ReplayedPlanIsByteIdentical) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find("faults/all_sites_open");
  ASSERT_NE(scenario, nullptr);
  const api::RunReport first = run(*scenario);
  const api::RunReport second = run(*scenario);
  EXPECT_EQ(first, second);

  sim::JsonWriter json_a, json_b;
  json_a.begin_object();
  first.emit_json_fields(json_a);
  json_a.end_object();
  json_b.begin_object();
  second.emit_json_fields(json_b);
  json_b.end_object();
  EXPECT_EQ(json_a.str(), json_b.str());
}

TEST(ResilienceTest, ParsedPlanReproducesTheOriginalRun) {
  const api::ScenarioBuilder original =
      burst4("replay")
          .doorbell_retry(2048, 3)
          .faults(FaultPlan::parse("doorbell_drop@1+mem_flip@7#42"));
  const api::Scenario built = original.build();
  // Round-trip the plan through the scenario's own serialized identity.
  const std::string serialized = built.serialize();
  const std::size_t at = serialized.find(";faults=");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = serialized.find(';', at + 8);
  const FaultPlan replay = FaultPlan::parse(
      serialized.substr(at + 8, end == std::string::npos
                                    ? serialized.size() - 1 - (at + 8)
                                    : end - (at + 8)));
  const api::Scenario rebuilt = burst4("replay")
                                    .doorbell_retry(2048, 3)
                                    .faults(replay)
                                    .build();
  EXPECT_EQ(built.serialize(), rebuilt.serialize());
  EXPECT_EQ(run(built), run(rebuilt));
}

TEST(ResilienceTest, FaultFreeFingerprintIsUnchanged) {
  // Fault knobs at their defaults must not perturb existing scenario
  // fingerprints (report identity stays stable for fault-free grids).
  const std::string serialized =
      burst4("baseline").build().serialize();
  EXPECT_EQ(serialized.find("faults="), std::string::npos);
  EXPECT_EQ(serialized.find("ofp="), std::string::npos);
  EXPECT_EQ(serialized.find("dbretry="), std::string::npos);
  EXPECT_EQ(serialized.find("macrr="), std::string::npos);

  const std::string faulted = burst4("baseline")
                                  .faults(FaultPlan::parse("mem_flip@1#2"))
                                  .build()
                                  .serialize();
  EXPECT_NE(faulted.find("faults=mem_flip@1#2"), std::string::npos);
  EXPECT_NE(faulted, serialized);
}

// ---- Builder rejection matrix -----------------------------------------------

TEST(FaultBuilderTest, DoorbellDropRequiresWatchdog) {
  EXPECT_THROW(
      (void)burst4("x").faults(FaultPlan::parse("doorbell_drop@0")).build(),
      api::ScenarioError);
}

TEST(FaultBuilderTest, WatchdogRequiresBatchedDrain) {
  EXPECT_THROW((void)api::ScenarioBuilder()
                   .name("x")
                   .workload(api::Workload::fib(8))
                   .drain_burst(1)
                   .doorbell_retry(512, 3)
                   .build(),
               api::ScenarioError);
}

TEST(FaultBuilderTest, WatchdogBoundsEnforced) {
  EXPECT_THROW((void)burst4("x").doorbell_retry(200'000, 3).build(),
               api::ScenarioError);
  EXPECT_THROW((void)burst4("x").doorbell_retry(512, 0).build(),
               api::ScenarioError);
  EXPECT_THROW((void)burst4("x").doorbell_retry(512, 9).build(),
               api::ScenarioError);
}

TEST(FaultBuilderTest, MacRerequestRequiresBatchMac) {
  EXPECT_THROW((void)burst4("x").mac_rerequest(true).build(),
               api::ScenarioError);
}

TEST(FaultBuilderTest, FaultParamBoundsEnforced) {
  EXPECT_THROW(
      (void)burst4("x").faults(FaultPlan::parse("rot_stall@0#200000")).build(),
      api::ScenarioError);
  EXPECT_THROW(
      (void)burst4("x")
          .faults(FaultPlan::parse("queue_overflow@0#5000"))
          .build(),
      api::ScenarioError);
}

}  // namespace
}  // namespace titan
