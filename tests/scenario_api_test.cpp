// Scenario API tests: skew-proof construction, build()-time validation,
// deterministic serialization == fingerprint stability, registry queries,
// the unified RunReport, and thread-count byte-identity of the typed sweep
// surface's documents.  Tests are the one place outside src/ allowed to touch the raw
// SocConfig/FirmwareConfig layer (to prove the facade matches it).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/api.hpp"
#include "firmware/builder.hpp"
#include "soc/mailbox.hpp"
#include "titancfi/soc_top.hpp"
#include "workloads/programs.hpp"

namespace titan {
namespace {

api::ScenarioBuilder valid_builder() {
  return api::ScenarioBuilder()
      .name("test")
      .workload(api::Workload::fib(6));
}

TEST(ScenarioBuilder, OneKnobConfiguresBothSides) {
  const api::Scenario scenario =
      valid_builder().drain_burst(8).batch_mac(true).build();
  // The co-designed values exist once in the builder and are derived into
  // both halves — skew is unrepresentable.
  EXPECT_EQ(scenario.soc_config().drain_burst, 8u);
  EXPECT_EQ(scenario.firmware_config().batch_capacity, 8u);
  EXPECT_TRUE(scenario.soc_config().mac_batches);
  EXPECT_TRUE(scenario.firmware_config().batch_mac);

  const api::Scenario single = valid_builder().build();
  EXPECT_EQ(single.soc_config().drain_burst, 1u);
  EXPECT_EQ(single.firmware_config().batch_capacity, 1u);
}

TEST(ScenarioBuilder, BuiltScenarioConstructsWithoutSkewThrow) {
  // SocTop's constructor is the seed's last-resort skew check; a built
  // Scenario must never trip it, for any burst/MAC combination.
  for (const unsigned burst : {1u, 2u, 8u, 16u}) {
    for (const bool mac : {false, true}) {
      if (mac && burst == 1) continue;  // rejected at build(), tested below
      const api::Scenario scenario = valid_builder()
                                         .drain_burst(burst)
                                         .batch_mac(mac)
                                         .build();
      EXPECT_NO_THROW({ auto soc = scenario.make_soc(); })
          << "burst=" << burst << " mac=" << mac;
    }
  }
}

TEST(ScenarioBuilder, RejectsInvalidCombinationsAtBuild) {
  EXPECT_THROW((void)api::ScenarioBuilder()
                   .workload(api::Workload::fib(6))
                   .build(),
               api::ScenarioError);  // no name
  EXPECT_THROW((void)api::ScenarioBuilder().name("x").build(),
               api::ScenarioError);  // no workload
  EXPECT_THROW((void)valid_builder().queue_depth(0).build(),
               api::ScenarioError);
  EXPECT_THROW((void)valid_builder().drain_burst(0).build(),
               api::ScenarioError);
  EXPECT_THROW(
      (void)valid_builder().drain_burst(soc::Mailbox::kBatchSlots + 1).build(),
      api::ScenarioError);
  // MAC without a batch to authenticate.
  EXPECT_THROW((void)valid_builder().drain_burst(1).batch_mac(true).build(),
               api::ScenarioError);
  // Degenerate shadow-stack geometries.
  EXPECT_THROW((void)valid_builder().shadow_stack(0, 0).build(),
               api::ScenarioError);
  EXPECT_THROW((void)valid_builder().shadow_stack(16, 0).build(),
               api::ScenarioError);
  EXPECT_THROW((void)valid_builder().shadow_stack(8, 16).build(),
               api::ScenarioError);
  EXPECT_THROW((void)valid_builder().max_cycles(0).build(),
               api::ScenarioError);
}

TEST(Scenario, SerializationIsDeterministicAndDiscriminating) {
  const auto build = [] {
    return valid_builder()
        .firmware(api::Firmware::kPolling)
        .fabric(api::Fabric::kOptimized)
        .queue_depth(4)
        .drain_burst(8)
        .batch_mac(true)
        .build();
  };
  // Round trip: two independent builds of the same parameters serialize
  // identically (this is what makes the fingerprint stable across
  // processes).
  EXPECT_EQ(build().serialize(), build().serialize());
  // Every knob shows up in the identity.
  const std::string base = build().serialize();
  EXPECT_NE(base, valid_builder().build().serialize());
  EXPECT_NE(valid_builder().build().serialize(),
            valid_builder().drain_burst(2).build().serialize());
  EXPECT_NE(valid_builder().build().serialize(),
            valid_builder().firmware(api::Firmware::kPolling).build()
                .serialize());
  EXPECT_NE(valid_builder().build().serialize(),
            valid_builder().workload(api::Workload::fib(7)).build()
                .serialize());
}

TEST(Scenario, ImageWorkloadFingerprintsBytes) {
  rv::Image image_a = workloads::fib_recursive(5);
  rv::Image image_b = workloads::fib_recursive(6);
  const auto wl_a = api::Workload::image("prog", std::move(image_a));
  const auto wl_b = api::Workload::image("prog", std::move(image_b));
  // Same label, different program -> different identity.
  EXPECT_NE(wl_a.serialized(), wl_b.serialized());
}

TEST(Scenario, RunMatchesRawConstructionPath) {
  const api::Scenario scenario = valid_builder().drain_burst(4).build();
  const api::RunReport report = api::run_scenario(scenario);

  // Raw path (allowed in tests): identical configs wired by hand.
  fw::FirmwareConfig fw_config;
  fw_config.batch_capacity = 4;
  fw_config.batch_mac = false;
  cfi::SocConfig soc_config;
  soc_config.queue_depth = 8;
  soc_config.drain_burst = 4;
  soc_config.mac_batches = false;
  cfi::SocTop soc(soc_config, workloads::fib_recursive(6),
                  fw::build_firmware(fw_config));
  const cfi::SocRunResult raw = soc.run();

  EXPECT_EQ(report.cycles, static_cast<std::uint64_t>(raw.cycles));
  EXPECT_EQ(report.instructions, raw.instructions);
  EXPECT_EQ(report.cf_logs, raw.cf_logs);
  EXPECT_EQ(report.doorbells, raw.doorbells);
  EXPECT_EQ(report.violations, raw.violations);
  EXPECT_EQ(report.exit_code, raw.exit_code);
}

TEST(RunReport, CarriesPerfStatsSuperset) {
  const api::RunReport report = api::run_scenario(valid_builder().build());
  EXPECT_GT(report.cf_logs, 0u);
  EXPECT_GT(report.doorbells, 0u);
  // The stats beyond SocRunResult: memory system, decode cache, RoT side.
  EXPECT_GT(report.host_memory.reads, 0u);
  EXPECT_GT(report.host_memory.writes, 0u);
  EXPECT_GT(report.decode_hits + report.decode_misses, 0u);
  EXPECT_GT(report.rot_instructions, 0u);
  EXPECT_NEAR(report.doorbells_per_log(),
              static_cast<double>(report.doorbells) /
                  static_cast<double>(report.cf_logs),
              1e-12);

  // A spill-heavy scenario surfaces the RoT's authenticated-spill MACs.
  const api::RunReport spilling =
      api::run_scenario(api::ScenarioBuilder()
                            .name("spill")
                            .workload(api::Workload::call_chain(40))
                            .shadow_stack(8, 4)
                            .build());
  EXPECT_GT(spilling.rot_hmac_starts, 0u);
  EXPECT_EQ(spilling.violations, 0u);
}

TEST(RunReport, HooksObserveLogsAndSoc) {
  std::size_t captured = 0;
  bool configured = false;
  api::RunHooks hooks;
  hooks.log_capture = [&captured](const cfi::CommitLog&) { ++captured; };
  hooks.configure = [&configured](cfi::SocTop& soc) {
    configured = true;
    EXPECT_EQ(soc.config().queue_depth, 8u);
  };
  const api::RunReport report =
      api::run_scenario(valid_builder().build(), hooks);
  EXPECT_TRUE(configured);
  EXPECT_EQ(captured, report.cf_logs);
}

TEST(ScenarioRegistry, GlobalNamedScenariosAndQueries) {
  const api::ScenarioRegistry& registry = api::ScenarioRegistry::global();
  EXPECT_NE(registry.find("rop_attack"), nullptr);
  EXPECT_NE(registry.find("drain/burst8_mac"), nullptr);
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);

  const api::ScenarioSet fig1 = registry.query("fig1_liveness", "fig1");
  EXPECT_EQ(fig1.size(), 8u);
  EXPECT_EQ(fig1.bench(), "fig1");
  const api::ScenarioSet drain = registry.query("drain_study", "drain");
  EXPECT_EQ(drain.size(), 3u);

  // Header determinism: two queries produce byte-identical identity.
  const sim::SweepDocHeader a = fig1.header();
  const sim::SweepDocHeader b = registry.query("fig1_liveness", "fig1").header();
  EXPECT_EQ(a.grid_hash, b.grid_hash);
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.total_points, 8u);

  // The fingerprint is derived from the scenario serializations.
  std::ostringstream config;
  for (const api::Scenario& scenario : fig1) {
    config << scenario.serialize() << ';';
  }
  EXPECT_EQ(a.config_fingerprint, sim::fingerprint_hex(config.str()));
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  api::ScenarioRegistry registry;
  registry.add(valid_builder().build());
  EXPECT_THROW(registry.add(valid_builder().build()), api::ScenarioError);
}

TEST(OverheadGrid, NamedGridsMatchLiveConfiguration) {
  const api::OverheadGrid table2 = api::OverheadGrid::table2();
  const api::OverheadGrid table3 = api::OverheadGrid::table3();
  EXPECT_GT(table2.size(), 0u);
  EXPECT_GT(table3.size(), table2.size());
  EXPECT_EQ(table2.base_config().queue_depth, 1u);
  EXPECT_EQ(table3.base_config().queue_depth, 8u);
  for (std::size_t i = 0; i < table2.size(); ++i) {
    EXPECT_TRUE(table2.row(i).in_table2());
  }

  // Identity is stable and distinguishes the grids.
  EXPECT_EQ(table2.header().grid_hash, api::OverheadGrid::table2().header().grid_hash);
  EXPECT_NE(table2.header().grid_hash, table3.header().grid_hash);
  EXPECT_NE(table2.header().config_fingerprint,
            table3.header().config_fingerprint);
}

/// End-to-end: the typed sweep surface writes the same --json document,
/// byte for byte, at every thread count.
TEST(ScenarioSweep, JsonDocumentByteIdenticalAcrossThreadCounts) {
  std::vector<api::Scenario> scenarios;
  for (const unsigned n : {4u, 5u, 6u}) {
    scenarios.push_back(api::ScenarioBuilder()
                            .name("fib" + std::to_string(n))
                            .workload(api::Workload::fib(n))
                            .build());
  }
  const api::ScenarioSet set("sweep_test", std::move(scenarios));
  const api::SweepPlan<api::RunReport> plan = api::scenario_sweep_plan(set);

  std::vector<std::string> documents;
  for (const unsigned threads : {1u, 2u, 3u}) {
    sim::SweepCli cli;
    cli.threads = threads;
    cli.json_path = "scenario_sweep_t" + std::to_string(threads) + ".json";
    api::SweepOutcome<api::RunReport> outcome;
    ASSERT_EQ(api::run_sweep(plan, cli, &outcome), 0);
    ASSERT_EQ(outcome.rows.size(), set.size());
    EXPECT_EQ(outcome.threads, threads);

    std::ifstream stream(cli.json_path);
    std::ostringstream document;
    document << stream.rdbuf();
    documents.push_back(document.str());
    std::remove(cli.json_path.c_str());
  }
  ASSERT_NE(documents[0].find("\"scenario\": \"fib6\""), std::string::npos)
      << documents[0];
  EXPECT_EQ(documents[1], documents[0]) << "threads=2 document differs";
  EXPECT_EQ(documents[2], documents[0]) << "threads=3 document differs";
}

}  // namespace
}  // namespace titan
