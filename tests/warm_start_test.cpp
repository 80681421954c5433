// Warm-start correctness: a run forked from a checkpoint must be bit-exact
// versus a from-scratch run — every RunReport field, the ordered commit
// trace, the popped log stream (prefix replay included), the per-component
// statistics, and the whole resilience block — on BOTH co-simulation
// engines, across the entire ScenarioRegistry grid and a randomized fuzz
// set forking at arbitrary cycles (mid-batch, mid-fault-plan).  Also covers
// the checkpoint cache, identity validation, and engine-invariant blobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "sim/cancel.hpp"
#include "sim/rng.hpp"
#include "titancfi/soc_top.hpp"

namespace titan {
namespace {

/// Everything a run exposes, cold or warm (mirrors engine_equivalence_test).
struct Observed {
  cfi::SocRunResult result;
  std::vector<cfi::CommitLog> stream;     ///< Logs popped by the Log Writer.
  std::vector<cva6::CommitRecord> trace;  ///< Host trace, retirement order.
  std::uint64_t filter_scanned[2] = {0, 0};
  std::uint64_t filter_selected[2] = {0, 0};
  std::uint64_t writer_wait_cycles = 0;
  sim::FifoStats queue_stats;
  std::uint64_t host_stall_cycles = 0;
  std::uint64_t rot_instret = 0;
  sim::Cycle rot_cycle = 0;
  std::uint64_t plic_claims = 0;
  std::uint64_t completion_count = 0;
  std::uint64_t hmac_starts = 0;
  sim::MemStats host_memory;
};

void collect(cfi::SocTop& soc, Observed& o) {
  o.trace = soc.host().ordered_trace();
  for (unsigned port = 0; port < 2; ++port) {
    o.filter_scanned[port] = soc.queue_controller().filter(port).scanned();
    o.filter_selected[port] = soc.queue_controller().filter(port).selected();
  }
  o.writer_wait_cycles = soc.log_writer().wait_cycles();
  o.queue_stats = soc.queue_controller().queue().stats();
  o.host_stall_cycles = soc.host().stall_cycles();
  o.rot_instret = soc.rot().core().instret();
  o.rot_cycle = soc.rot().core().cycle();
  o.plic_claims = soc.rot().plic().claims();
  o.completion_count = soc.mailbox().completion_count();
  o.hmac_starts = soc.rot().hmac().starts();
  o.host_memory = soc.host_memory().stats();
}

Observed run_cold(const api::Scenario& scenario, api::Engine engine) {
  const auto soc = scenario.with_engine(engine).make_soc();
  Observed o;
  soc->log_writer().set_log_capture(
      [&o](const cfi::CommitLog& log) { o.stream.push_back(log); });
  soc->host().set_trace_enabled(true);
  o.result = soc->run();
  collect(*soc, o);
  return o;
}

/// Capture with the same configuration the observed runs use (trace on), so
/// the checkpointed trace-ring state matches.
std::shared_ptr<const sim::Snapshot> checkpoint_at(
    const api::Scenario& scenario, sim::Cycle at) {
  api::RunHooks hooks;
  hooks.configure = [](cfi::SocTop& soc) {
    soc.host().set_trace_enabled(true);
  };
  return api::capture_checkpoint(scenario, at, hooks);
}

/// The warm path at SoC level (what run_scenario does for warm scenarios,
/// opened up so the trace and component statistics are observable too):
/// replay the prefix log stream, restore, continue.
Observed run_warm(const api::Scenario& scenario, api::Engine engine,
                  const sim::Snapshot& snapshot) {
  const auto soc = scenario.with_engine(engine).make_soc();
  Observed o;
  std::array<std::uint64_t, cfi::CommitLog::kBeats> beats{};
  for (std::size_t word = 0;
       word + cfi::CommitLog::kBeats <= snapshot.log_words.size();
       word += cfi::CommitLog::kBeats) {
    for (std::size_t i = 0; i < cfi::CommitLog::kBeats; ++i) {
      beats[i] = snapshot.log_words[word + i];
    }
    o.stream.push_back(cfi::CommitLog::unpack(beats));
  }
  soc->log_writer().set_log_capture(
      [&o](const cfi::CommitLog& log) { o.stream.push_back(log); });
  soc->host().set_trace_enabled(true);
  soc->restore(snapshot);
  o.result = soc->run();
  collect(*soc, o);
  return o;
}

void expect_bit_exact(const Observed& cold, const Observed& warm,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(cold.result.cycles, warm.result.cycles);
  EXPECT_EQ(cold.result.instructions, warm.result.instructions);
  EXPECT_EQ(cold.result.cf_logs, warm.result.cf_logs);
  EXPECT_EQ(cold.result.violations, warm.result.violations);
  EXPECT_EQ(cold.result.cfi_fault, warm.result.cfi_fault);
  EXPECT_EQ(cold.result.exit_code, warm.result.exit_code);
  EXPECT_EQ(cold.result.queue_full_stalls, warm.result.queue_full_stalls);
  EXPECT_EQ(cold.result.dual_cf_stalls, warm.result.dual_cf_stalls);
  EXPECT_EQ(cold.result.doorbells, warm.result.doorbells);
  EXPECT_EQ(cold.result.batches, warm.result.batches);
  EXPECT_EQ(cold.result.max_batch, warm.result.max_batch);
  EXPECT_EQ(cold.result.mean_queue_occupancy, warm.result.mean_queue_occupancy);
  EXPECT_EQ(cold.result.fault_log, warm.result.fault_log);
  EXPECT_EQ(cold.result.resilience, warm.result.resilience);

  EXPECT_EQ(cold.stream, warm.stream);

  ASSERT_EQ(cold.trace.size(), warm.trace.size());
  for (std::size_t i = 0; i < cold.trace.size(); ++i) {
    const cva6::CommitRecord& a = cold.trace[i];
    const cva6::CommitRecord& b = warm.trace[i];
    const bool same = a.cycle == b.cycle && a.pc == b.pc &&
                      a.encoding == b.encoding && a.kind == b.kind &&
                      a.next_pc == b.next_pc && a.target == b.target;
    EXPECT_TRUE(same) << "trace diverges at record " << i;
    if (!same) {
      break;
    }
  }

  for (unsigned port = 0; port < 2; ++port) {
    EXPECT_EQ(cold.filter_scanned[port], warm.filter_scanned[port]);
    EXPECT_EQ(cold.filter_selected[port], warm.filter_selected[port]);
  }
  EXPECT_EQ(cold.writer_wait_cycles, warm.writer_wait_cycles);
  EXPECT_EQ(cold.queue_stats, warm.queue_stats);
  EXPECT_EQ(cold.host_stall_cycles, warm.host_stall_cycles);
  EXPECT_EQ(cold.rot_instret, warm.rot_instret);
  EXPECT_EQ(cold.rot_cycle, warm.rot_cycle);
  EXPECT_EQ(cold.plic_claims, warm.plic_claims);
  EXPECT_EQ(cold.completion_count, warm.completion_count);
  EXPECT_EQ(cold.hmac_starts, warm.hmac_starts);
  EXPECT_EQ(cold.host_memory, warm.host_memory);
}

// ---- The full registry grid -------------------------------------------------

class WarmStartRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmStartRegistry, ForkedRunIsBitExactOnBothEngines) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find(GetParam());
  ASSERT_NE(scenario, nullptr);
  SCOPED_TRACE("scenario: " + scenario->serialize());
  // Fork halfway through: deep enough that every component carries state.
  const Observed cold = run_cold(*scenario, api::Engine::kLockStep);
  const sim::Cycle at = std::max<sim::Cycle>(1, cold.result.cycles / 2);
  const auto snapshot = checkpoint_at(*scenario, at);
  expect_bit_exact(cold,
                   run_warm(*scenario, api::Engine::kLockStep, *snapshot),
                   "lockstep fork @" + std::to_string(at));
  expect_bit_exact(cold,
                   run_warm(*scenario, api::Engine::kEventDriven, *snapshot),
                   "event fork @" + std::to_string(at));
}

std::vector<std::string> registry_scenario_names() {
  std::vector<std::string> names;
  for (const auto name : api::ScenarioRegistry::global().names()) {
    names.emplace_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, WarmStartRegistry,
    ::testing::ValuesIn(registry_scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

// ---- run_scenario()-level warm start (the public API path) ------------------

TEST(WarmStartTest, RunScenarioWarmReportAndStreamMatchCold) {
  const api::Scenario scenario = api::ScenarioBuilder()
                                     .name("warm_public")
                                     .workload(api::Workload::quicksort(24))
                                     .drain_burst(4)
                                     .batch_mac(true)
                                     .build();
  std::vector<cfi::CommitLog> cold_stream;
  api::RunHooks cold_hooks;
  cold_hooks.log_capture = [&](const cfi::CommitLog& log) {
    cold_stream.push_back(log);
  };
  const api::RunReport cold = api::run_scenario(scenario, cold_hooks);

  const auto snapshot = api::capture_checkpoint(scenario, cold.cycles / 2);
  for (const api::Engine engine :
       {api::Engine::kLockStep, api::Engine::kEventDriven}) {
    std::vector<cfi::CommitLog> warm_stream;
    api::RunHooks warm_hooks;
    warm_hooks.log_capture = [&](const cfi::CommitLog& log) {
      warm_stream.push_back(log);
    };
    const api::RunReport warm = api::run_scenario(
        scenario.with_engine(engine).with_warm_start(snapshot), warm_hooks);
    EXPECT_EQ(warm, cold);
    // run_scenario replays the prefix through the same observer, so the
    // warm stream is the full cold stream.
    EXPECT_EQ(warm_stream, cold_stream);
  }
}

TEST(WarmStartTest, BuilderWarmStartMatchesWithWarmStart) {
  const api::Scenario base = api::ScenarioBuilder()
                                 .name("warm_builder")
                                 .workload(api::Workload::fib(8))
                                 .build();
  const auto snapshot = api::capture_checkpoint(base, 400);
  const api::Scenario via_builder = api::ScenarioBuilder()
                                        .name("warm_builder")
                                        .workload(api::Workload::fib(8))
                                        .warm_start(snapshot)
                                        .build();
  ASSERT_EQ(via_builder.warm_start(), snapshot);
  // Warm start is an execution strategy: identity must not change.
  EXPECT_EQ(via_builder.serialize(), base.serialize());
  EXPECT_EQ(api::run_scenario(via_builder), api::run_scenario(base));
}

// ---- Cancellation does not poison shared snapshots ---------------------------
//
// titand forks every request from shared warm checkpoints and cancels runs
// freely (deadlines, disconnects, drain).  That is only sound if a stopped
// warm run cannot leave stale state behind: the snapshot is immutable, so a
// later unlimited fork from the same checkpoint must still reproduce the
// cold report bit for bit.

TEST(WarmStartTest, StoppedWarmRunLeavesSnapshotPristine) {
  const api::Scenario scenario = api::ScenarioBuilder()
                                     .name("warm_cancel")
                                     .workload(api::Workload::fib(12))
                                     .drain_burst(4)
                                     .build();
  const api::RunReport cold = api::run_scenario(scenario);
  const sim::Cycle fork_at = cold.cycles / 2;
  ASSERT_GT(fork_at, 0u);
  const auto snapshot = api::capture_checkpoint(scenario, fork_at);

  for (const api::Engine engine :
       {api::Engine::kLockStep, api::Engine::kEventDriven}) {
    SCOPED_TRACE(engine == api::Engine::kLockStep ? "lockstep" : "event");
    const api::Scenario warm =
        scenario.with_engine(engine).with_warm_start(snapshot);

    // Budget-stop a warm fork three quarters of the way through the run.
    api::RunControl budget;
    budget.cancel = std::make_shared<sim::CancelToken>();
    budget.max_cycles = fork_at + (cold.cycles - fork_at) / 2;
    const api::RunReport stopped = api::run_scenario(warm, {}, budget);
    EXPECT_EQ(stopped.stop, api::RunStop::kBudgetExceeded);
    EXPECT_EQ(stopped.cycles, budget.max_cycles);

    // A fork whose client is already gone stops before simulating at all.
    api::RunControl fired;
    auto token = std::make_shared<sim::CancelToken>();
    token->cancel(sim::CancelToken::Reason::kDisconnect);
    fired.cancel = token;
    const api::RunReport dropped = api::run_scenario(warm, {}, fired);
    EXPECT_EQ(dropped.stop, api::RunStop::kCancelled);

    // The shared checkpoint is untouched: a fresh unlimited fork still
    // matches the cold run exactly.
    EXPECT_EQ(api::run_scenario(warm), cold);
  }
}

// ---- Validation and caching -------------------------------------------------

TEST(WarmStartTest, MismatchedScenarioIsRejected) {
  const api::Scenario captured = api::ScenarioBuilder()
                                     .name("warm_a")
                                     .workload(api::Workload::fib(7))
                                     .build();
  const api::Scenario other = api::ScenarioBuilder()
                                  .name("warm_b")
                                  .workload(api::Workload::fib(8))
                                  .build();
  const auto snapshot = api::capture_checkpoint(captured, 300);
  EXPECT_THROW((void)api::run_scenario(other.with_warm_start(snapshot)),
               api::ScenarioError);
  // The matching scenario still works, whatever the engine.
  EXPECT_NO_THROW((void)api::run_scenario(
      captured.with_engine(api::Engine::kEventDriven)
          .with_warm_start(snapshot)));
}

TEST(WarmStartTest, CheckpointCacheBuildsOnePrefixPerScenario) {
  const api::Scenario a = api::ScenarioBuilder()
                              .name("cache_a")
                              .workload(api::Workload::fib(7))
                              .build();
  const api::Scenario b = api::ScenarioBuilder()
                              .name("cache_b")
                              .workload(api::Workload::crc32(32))
                              .build();
  api::CheckpointCache cache;
  const auto first = cache.warmed(a, 300);
  const auto again = cache.warmed(a, 300);
  EXPECT_EQ(first, again);  // same object, no second prefix simulation
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.warmed(b, 300), first);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(a), first);
  // Engine is excluded from the identity: one checkpoint serves both.
  EXPECT_EQ(cache.find(a.with_engine(api::Engine::kEventDriven)), first);
  cache.clear();
  EXPECT_EQ(cache.find(a), nullptr);
}

TEST(WarmStartTest, CheckpointBlobIsEngineInvariant) {
  // host_now_ and every other engine-local scratch value is excluded from
  // the snapshot, so capturing the same scenario at the same cycle on the
  // two engines must produce byte-identical blobs.
  const api::Scenario scenario = api::ScenarioBuilder()
                                     .name("engine_invariant")
                                     .workload(api::Workload::call_chain(60))
                                     .drain_burst(2)
                                     .build();
  for (const sim::Cycle at : {sim::Cycle{1}, sim::Cycle{777}}) {
    const auto lock =
        checkpoint_at(scenario.with_engine(api::Engine::kLockStep), at);
    const auto event =
        checkpoint_at(scenario.with_engine(api::Engine::kEventDriven), at);
    EXPECT_EQ(lock->fingerprint, event->fingerprint) << "at cycle " << at;
    EXPECT_EQ(lock->to_blob(), event->to_blob()) << "at cycle " << at;
  }
}

TEST(WarmStartTest, CheckpointPastProgramEndForceFires) {
  // `at` beyond the program's natural end: the checkpoint force-fires at
  // main-loop exit and the warm run replays only the drain, still bit-exact.
  const api::Scenario scenario = api::ScenarioBuilder()
                                     .name("late_checkpoint")
                                     .workload(api::Workload::fib(7))
                                     .build();
  const Observed cold = run_cold(scenario, api::Engine::kLockStep);
  const auto snapshot = checkpoint_at(scenario, cold.result.cycles + 100'000);
  EXPECT_LE(snapshot->cycle, cold.result.cycles);
  expect_bit_exact(cold,
                   run_warm(scenario, api::Engine::kLockStep, *snapshot),
                   "lockstep forced fork");
  expect_bit_exact(cold,
                   run_warm(scenario, api::Engine::kEventDriven, *snapshot),
                   "event forced fork");
}

// ---- Randomized fork-ordinal fuzz -------------------------------------------
//
// Seeded random scenarios — batched drains, MAC batching, fault plans, every
// overflow policy — forked at arbitrary cycles so the checkpoint lands
// mid-batch, mid-burst, and mid-fault-plan.  Whatever the seam cuts
// through, the continuation must be indistinguishable from never stopping.

struct FuzzForkCase {
  std::uint64_t seed;
};

class WarmStartFuzz : public ::testing::TestWithParam<FuzzForkCase> {};

TEST_P(WarmStartFuzz, ForkAtArbitraryCyclesIsBitExact) {
  sim::Rng rng(GetParam().seed);
  constexpr api::OverflowPolicy kPolicies[] = {
      api::OverflowPolicy::kBackPressure, api::OverflowPolicy::kFailClosed,
      api::OverflowPolicy::kFailOpen};
  api::ScenarioBuilder builder;
  builder.name("warm_fuzz_" + std::to_string(GetParam().seed))
      .workload(rng.next() % 2 == 0
                    ? api::Workload::call_chain(30 + rng.next() % 60)
                    : api::Workload::random_callgraph(rng.next(),
                                                      4 + rng.next() % 5,
                                                      rng.next() % 2 == 0))
      .firmware(rng.next() % 2 == 0 ? api::Firmware::kIrq
                                    : api::Firmware::kPolling)
      .queue_depth(2 + rng.next() % 15)
      .drain_burst(4)
      .batch_mac(true)
      .mac_rerequest(rng.next() % 2 == 0)
      .doorbell_retry(1024 + rng.next() % 2048, 2 + rng.next() % 4)
      .overflow_policy(kPolicies[rng.next() % 3]);
  if (rng.next() % 2 == 0) {
    builder.faults(sim::FaultPlan::random(rng.next(), 1 + rng.next() % 4));
  }
  const api::Scenario scenario = builder.build();

  const Observed cold = run_cold(scenario, api::Engine::kLockStep);
  ASSERT_GT(cold.result.cycles, 0u);
  // Three arbitrary ordinals over the run, odd offsets included so forks
  // land mid-batch and mid-fault-plan, plus the cycle-0 edge.
  const sim::Cycle span = cold.result.cycles;
  const sim::Cycle ats[] = {0, 1 + rng.next() % span, 1 + rng.next() % span};
  for (const sim::Cycle at : ats) {
    const auto snapshot = checkpoint_at(scenario, at);
    expect_bit_exact(cold,
                     run_warm(scenario, api::Engine::kLockStep, *snapshot),
                     "lockstep fork @" + std::to_string(at));
    expect_bit_exact(cold,
                     run_warm(scenario, api::Engine::kEventDriven, *snapshot),
                     "event fork @" + std::to_string(at));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, WarmStartFuzz,
    ::testing::Values(FuzzForkCase{0x6B65'7973ull}, FuzzForkCase{0xC0'FFEEull},
                      FuzzForkCase{0x5EED'0001ull}, FuzzForkCase{0x5EED'0002ull},
                      FuzzForkCase{0x5EED'0003ull}, FuzzForkCase{0xF0'F0F0ull}),
    [](const ::testing::TestParamInfo<FuzzForkCase>& info) {
      return "seed_" + std::to_string(info.param.seed);
    });

// ---- Grid helpers -----------------------------------------------------------

TEST(WarmStartTest, WarmStartedGridKeepsIdentityAndRejectsGaps) {
  const api::ScenarioSet grid =
      api::ScenarioRegistry::global().query("fig1_liveness", "warm_grid");
  ASSERT_GE(grid.size(), 2u);

  api::CheckpointCache cache;
  for (const api::Scenario& scenario : grid) {
    (void)cache.warmed(scenario, api::kDefaultWarmupCycle);
  }
  const api::ScenarioSet warm = api::warm_started(grid, cache);
  ASSERT_EQ(warm.size(), grid.size());
  // Identity (header / config fingerprint) unchanged: a warm document must
  // be byte-identical to a cold one.
  EXPECT_EQ(warm.header().grid_hash, grid.header().grid_hash);
  EXPECT_EQ(warm.header().config_fingerprint,
            grid.header().config_fingerprint);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_NE(warm[i].warm_start(), nullptr);
    EXPECT_EQ(warm[i].serialize(), grid[i].serialize());
  }

  // A bundle missing one scenario must fail loudly, not silently run cold.
  api::CheckpointCache partial;
  (void)partial.warmed(grid[0], api::kDefaultWarmupCycle);
  EXPECT_THROW((void)api::warm_started(grid, partial), api::ScenarioError);
}

}  // namespace
}  // namespace titan
