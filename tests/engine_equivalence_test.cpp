// Cross-engine equivalence: the event-driven co-simulation scheduler must be
// bit-exact against the lock-step loop — every SocRunResult field, the
// ordered commit trace, the authenticated log stream the writer pops, and
// the per-component statistics the fast-forward path replays (queue
// occupancy samples, filter scan counters, writer wait cycles, RoT
// instruction/clock counts) — across the entire ScenarioRegistry grid and a
// randomized burst/depth/fabric fuzz set, including fault scenarios where
// the fault cycle must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "sim/cancel.hpp"
#include "sim/rng.hpp"
#include "titancfi/soc_top.hpp"

namespace titan {
namespace {

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
  /// How the engine got there (never compared across engines).
  sim::Cycle stepped_cycles = 0;
  sim::Cycle stepped_drain_cycles = 0;
  /// The run stopped at a loop-top cycle inside a back-pressure window.
  bool stopped_in_window = false;
};

/// Applied to the constructed SoC before run() (limits, warm restore, ...).
using Setup = std::function<void(cfi::SocTop&, Observed&)>;

Observed run_with_engine(const api::Scenario& scenario, api::Engine engine,
                         const Setup& setup = {}) {
  const api::Scenario variant = scenario.with_engine(engine);
  const auto soc = variant.make_soc();
  Observed o;
  soc->log_writer().set_log_capture(
      [&o](const cfi::CommitLog& log) { o.stream.push_back(log); });
  soc->host().set_trace_enabled(true);
  if (setup) {
    setup(*soc, o);
  }
  o.result = soc->run();
  o.stepped_cycles = soc->stepped_cycles();
  o.stepped_drain_cycles = soc->stepped_drain_cycles();
  o.stopped_in_window = soc->stalled_on_rot(soc->host().cycle());
  o.trace = soc->host().trace();
  for (unsigned port = 0; port < 2; ++port) {
    o.filter_scanned[port] = soc->queue_controller().filter(port).scanned();
    o.filter_selected[port] = soc->queue_controller().filter(port).selected();
  }
  o.writer_wait_cycles = soc->log_writer().wait_cycles();
  o.queue_stats = soc->queue_controller().queue().stats();
  o.host_stall_cycles = soc->host().stall_cycles();
  o.rot_instret = soc->rot().core().instret();
  o.rot_cycle = soc->rot().core().cycle();
  o.plic_claims = soc->rot().plic().claims();
  o.completion_count = soc->mailbox().completion_count();
  o.hmac_starts = soc->rot().hmac().starts();
  return o;
}

void expect_same(const Observed& lock, const Observed& event) {
  // Every RunResult field, including the fault log and cycle counts (the
  // fault cycle is part of result.cycles for attack scenarios).
  EXPECT_EQ(lock.result.stop, event.result.stop);
  EXPECT_EQ(lock.result.cycles, event.result.cycles);
  EXPECT_EQ(lock.result.instructions, event.result.instructions);
  EXPECT_EQ(lock.result.cf_logs, event.result.cf_logs);
  EXPECT_EQ(lock.result.violations, event.result.violations);
  EXPECT_EQ(lock.result.cfi_fault, event.result.cfi_fault);
  EXPECT_EQ(lock.result.exit_code, event.result.exit_code);
  EXPECT_EQ(lock.result.queue_full_stalls, event.result.queue_full_stalls);
  EXPECT_EQ(lock.result.dual_cf_stalls, event.result.dual_cf_stalls);
  EXPECT_EQ(lock.result.doorbells, event.result.doorbells);
  EXPECT_EQ(lock.result.batches, event.result.batches);
  EXPECT_EQ(lock.result.max_batch, event.result.max_batch);
  EXPECT_EQ(lock.result.mean_queue_occupancy, event.result.mean_queue_occupancy);
  EXPECT_EQ(lock.result.fault_log, event.result.fault_log);
  // The whole resilience block: per-site injection/detection counts, the
  // detection-latency histogram, and every degradation counter.  Faults are
  // ordinal-indexed, so a plan must perturb both engines identically.
  EXPECT_EQ(lock.result.resilience, event.result.resilience);

  // The authenticated log stream, byte for byte and in pop order.
  EXPECT_EQ(lock.stream, event.stream);

  // The full ordered commit trace (cycle stamps included).
  ASSERT_EQ(lock.trace.size(), event.trace.size());
  for (std::size_t i = 0; i < lock.trace.size(); ++i) {
    const cva6::CommitRecord& a = lock.trace[i];
    const cva6::CommitRecord& b = event.trace[i];
    const bool same = a.cycle == b.cycle && a.pc == b.pc &&
                      a.encoding == b.encoding && a.kind == b.kind &&
                      a.next_pc == b.next_pc && a.target == b.target;
    EXPECT_TRUE(same) << "trace diverges at record " << i << " (lock-step pc 0x"
                      << std::hex << a.pc << " cycle " << std::dec << a.cycle
                      << ", event-driven pc 0x" << std::hex << b.pc
                      << " cycle " << std::dec << b.cycle << ")";
    if (!same) {
      break;
    }
  }

  // Component statistics the fast-forward path replays arithmetically.
  for (unsigned port = 0; port < 2; ++port) {
    EXPECT_EQ(lock.filter_scanned[port], event.filter_scanned[port])
        << "port " << port;
    EXPECT_EQ(lock.filter_selected[port], event.filter_selected[port])
        << "port " << port;
  }
  EXPECT_EQ(lock.writer_wait_cycles, event.writer_wait_cycles);
  EXPECT_EQ(lock.queue_stats, event.queue_stats);
  EXPECT_EQ(lock.host_stall_cycles, event.host_stall_cycles);
  EXPECT_EQ(lock.rot_instret, event.rot_instret);
  EXPECT_EQ(lock.rot_cycle, event.rot_cycle);
  EXPECT_EQ(lock.plic_claims, event.plic_claims);
  EXPECT_EQ(lock.completion_count, event.completion_count);
  EXPECT_EQ(lock.hmac_starts, event.hmac_starts);
}

void expect_equivalent(const api::Scenario& scenario, const Setup& setup = {}) {
  SCOPED_TRACE("scenario: " + scenario.serialize());
  expect_same(run_with_engine(scenario, api::Engine::kLockStep, setup),
              run_with_engine(scenario, api::Engine::kEventDriven, setup));
}

// ---- The full registry grid -------------------------------------------------

class RegistryEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryEquivalence, BitExactAcrossEngines) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find(GetParam());
  ASSERT_NE(scenario, nullptr);
  expect_equivalent(*scenario);
}

std::vector<std::string> registry_scenario_names() {
  std::vector<std::string> names;
  for (const auto name : api::ScenarioRegistry::global().names()) {
    names.emplace_back(name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryEquivalence,
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

// ---- Randomized burst/depth/fabric/policy fuzz ------------------------------

api::Workload fuzz_workload(sim::Rng& rng) {
  switch (rng.next() % 8) {
    case 0:
      return api::Workload::fib(6 + rng.next() % 4);
    case 1:
      return api::Workload::call_chain(10 + rng.next() % 100);
    case 2:
      return api::Workload::quicksort(8 + rng.next() % 48);
    case 3:
      return api::Workload::crc32(16 + rng.next() % 100);
    case 4:
      return api::Workload::matmul(3 + rng.next() % 5);
    case 5:
      return api::Workload::indirect_dispatch(4 + rng.next() % 30);
    case 6:
      return api::Workload::stats(16 + rng.next() % 200);
    default:
      // One in seven scenarios injects a ROP, so fault-cycle equality is
      // fuzzed too, over random call graphs.
      return api::Workload::random_callgraph(rng.next(), 4 + rng.next() % 6,
                                             rng.next() % 2 == 0);
  }
}

TEST(EngineEquivalenceFuzz, RandomScenarioGrid) {
  sim::Rng rng(0x7175'616E'74756Dull);
  constexpr unsigned kQueueDepths[] = {1, 2, 4, 8, 16};
  constexpr unsigned kBursts[] = {1, 2, 4, 8};
  for (unsigned i = 0; i < 18; ++i) {
    const unsigned queue_depth = kQueueDepths[rng.next() % 5];
    unsigned burst = kBursts[rng.next() % 4];
    api::ScenarioBuilder builder;
    builder.name("fuzz" + std::to_string(i))
        .workload(fuzz_workload(rng))
        .firmware(rng.next() % 2 == 0 ? api::Firmware::kIrq
                                      : api::Firmware::kPolling)
        .fabric(rng.next() % 2 == 0 ? api::Fabric::kBaseline
                                    : api::Fabric::kOptimized)
        .queue_depth(queue_depth)
        .drain_burst(burst);
    if (burst > 1) {
      builder.batch_mac(rng.next() % 2 == 0);
      // Sometimes fuzz the hysteresis policy too (threshold must be
      // reachable: <= burst and <= queue depth).
      if (rng.next() % 3 == 0) {
        const unsigned wait = 2 + rng.next() % std::min(burst, queue_depth);
        if (wait <= burst && wait <= queue_depth) {
          builder.drain_wait(wait, 64 + rng.next() % 512);
        }
      }
    }
    expect_equivalent(builder.build());
  }
}

// ---- Randomized fault-plan fuzz ---------------------------------------------
//
// Seeded random fault plans over a degradation-capable scenario: whatever a
// plan does to the pipeline — drops, duplicates, stalls, corrupt MACs,
// forced overflows under any policy — both engines must tell the identical
// story, down to the detection-latency histogram.

TEST(EngineEquivalenceFuzz, RandomFaultPlans) {
  sim::Rng rng(0x6661'756C'7421ull);
  constexpr api::OverflowPolicy kPolicies[] = {
      api::OverflowPolicy::kBackPressure, api::OverflowPolicy::kFailClosed,
      api::OverflowPolicy::kFailOpen};
  for (unsigned i = 0; i < 10; ++i) {
    sim::FaultPlan plan = sim::FaultPlan::random(rng.next(), 1 + i % 4);
    api::ScenarioBuilder builder;
    builder.name("fault_fuzz" + std::to_string(i))
        .workload(i % 2 == 0 ? api::Workload::fib(7)
                             : api::Workload::call_chain(40 + i))
        .queue_depth(2 + rng.next() % 15)
        .drain_burst(4)
        .batch_mac(true)
        .mac_rerequest(rng.next() % 2 == 0)
        // Always armed: random plans may contain doorbell_drop, which the
        // builder (correctly) refuses without the watchdog.
        .doorbell_retry(1024 + rng.next() % 2048, 2 + rng.next() % 4)
        .overflow_policy(kPolicies[rng.next() % 3])
        .faults(plan);
    expect_equivalent(builder.build());
  }
}

// ---- Back-pressure windows ---------------------------------------------------
//
// Engine equivalence cannot tell a fast path that never fires from one that
// is exact, so first prove the windows are taken: the event engine steps
// only a small share of a stall-bound run's cycles, and lock-step steps
// every one.  The same holds for the post-program drain, where the event
// engine skips the writer's verdict waits.

TEST(BackPressureWindow, EventEngineStepsFewStallBoundCycles) {
  for (const char* name :
       {"irq/baseline/burst1", "drain/burst1", "faults/doorbell_drop"}) {
    SCOPED_TRACE(name);
    const api::Scenario* scenario = api::ScenarioRegistry::global().find(name);
    ASSERT_NE(scenario, nullptr);
    const Observed lock = run_with_engine(*scenario, api::Engine::kLockStep);
    const Observed event =
        run_with_engine(*scenario, api::Engine::kEventDriven);
    EXPECT_EQ(lock.stepped_cycles, lock.result.cycles);
    EXPECT_LE(event.stepped_cycles * 100, event.result.cycles * 15)
        << event.stepped_cycles << " of " << event.result.cycles
        << " cycles stepped";
    EXPECT_GT(lock.stepped_drain_cycles, 0u);
    EXPECT_LE(event.stepped_drain_cycles * 100,
              lock.stepped_drain_cycles * 15)
        << event.stepped_drain_cycles << " of " << lock.stepped_drain_cycles
        << " drain iterations stepped";
  }
}

// Clamp boundaries: every limit the window honours (budget, checkpoint,
// cancel stride, watchdog deadline, scheduled overflow fault) is placed
// inside a back-pressure window of a stall-bound run, and both engines must
// still agree on the full observed state.

api::ScenarioBuilder stall_bound_fib12() {
  return api::ScenarioBuilder()
      .name("stall_bound_fib12")
      .workload(api::Workload::fib(12))
      .queue_depth(8)
      .drain_burst(1);
}

/// Arms a cancel token that never fires, a budget, and a quantum stride.
Setup run_limits(sim::Cycle budget, sim::Cycle stride) {
  auto token = std::make_shared<sim::CancelToken>();
  return [token, budget, stride](cfi::SocTop& soc, Observed&) {
    soc.set_run_limits(token.get(), budget, stride);
  };
}

TEST(BackPressureWindow, BudgetSweepStopsIdenticallyInsideWindows) {
  const api::Scenario scenario = stall_bound_fib12().build();
  unsigned in_window = 0;
  constexpr unsigned kBudgets = 24;
  for (unsigned i = 0; i < kBudgets; ++i) {
    const sim::Cycle budget = 3001 + 7919 * sim::Cycle{i};
    SCOPED_TRACE("budget " + std::to_string(budget));
    const Observed lock = run_with_engine(scenario, api::Engine::kLockStep,
                                          run_limits(budget, 0));
    const Observed event = run_with_engine(scenario, api::Engine::kEventDriven,
                                           run_limits(budget, 0));
    EXPECT_EQ(lock.result.stop, cfi::StopCause::kBudget);
    EXPECT_EQ(lock.result.cycles, budget);
    expect_same(lock, event);
    EXPECT_EQ(lock.stopped_in_window, event.stopped_in_window);
    in_window += lock.stopped_in_window ? 1 : 0;
  }
  // The run is stall-bound, so nearly every budget lands mid-window.
  EXPECT_GE(in_window * 4, kBudgets * 3) << in_window << " of " << kBudgets;
}

TEST(BackPressureWindow, OddCancelStrideSplitsWindowsExactly) {
  const api::Scenario scenario = stall_bound_fib12().build();
  for (const sim::Cycle stride : {sim::Cycle{1}, sim::Cycle{37},
                                  sim::Cycle{257}}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    expect_equivalent(scenario, run_limits(0, stride));
  }
}

TEST(BackPressureWindow, CheckpointInsideWindowForksBitExact) {
  const api::Scenario scenario = stall_bound_fib12().build();
  // The first budget stop that lands inside a window is the checkpoint.
  sim::Cycle at = 0;
  for (sim::Cycle probe = 4001; at == 0; probe += 613) {
    ASSERT_LT(probe, 40'000u) << "no back-pressure window found";
    if (run_with_engine(scenario, api::Engine::kLockStep,
                        run_limits(probe, 0))
            .stopped_in_window) {
      at = probe;
    }
  }
  SCOPED_TRACE("checkpoint at " + std::to_string(at));
  api::RunHooks hooks;
  hooks.configure = [](cfi::SocTop& soc) {
    soc.host().set_trace_enabled(true);
  };
  const auto lock_capture = api::capture_checkpoint(
      scenario.with_engine(api::Engine::kLockStep), at, hooks);
  const auto event_capture = api::capture_checkpoint(
      scenario.with_engine(api::Engine::kEventDriven), at, hooks);
  ASSERT_EQ(event_capture->cycle, at);
  EXPECT_EQ(lock_capture->to_blob(), event_capture->to_blob());

  // Fork the event engine's capture on both engines; each warm run (prefix
  // stream replayed) must match the cold lock-step run.
  const auto warm = [&](cfi::SocTop& soc, Observed& o) {
    const std::vector<std::uint64_t>& words = event_capture->log_words;
    std::array<std::uint64_t, cfi::CommitLog::kBeats> beats{};
    for (std::size_t word = 0; word + beats.size() <= words.size();
         word += beats.size()) {
      std::copy_n(words.begin() + static_cast<std::ptrdiff_t>(word),
                  beats.size(), beats.begin());
      o.stream.push_back(cfi::CommitLog::unpack(beats));
    }
    soc.restore(*event_capture);
  };
  const Observed cold = run_with_engine(scenario, api::Engine::kLockStep);
  expect_same(cold, run_with_engine(scenario, api::Engine::kEventDriven, warm));
  expect_same(cold, run_with_engine(scenario, api::Engine::kLockStep, warm));
}

TEST(BackPressureWindow, WatchdogDeadlineEndsWindowsExactly) {
  // 2048 only re-rings the dropped doorbells; 300 is below the healthy round
  // trip, so spurious re-rings land inside ordinary waits too.
  for (const sim::Cycle timeout : {sim::Cycle{2048}, sim::Cycle{300}}) {
    SCOPED_TRACE("doorbell timeout " + std::to_string(timeout));
    const auto build = [timeout](const std::string& plan) {
      return stall_bound_fib12()
          .drain_burst(4)
          .doorbell_retry(timeout, 3)
          .faults(sim::FaultPlan::parse(plan))
          .build();
    };
    // Also drop the run's last ring, which belongs to the final batch: it is
    // rung in the post-program drain, so the watchdog re-rings there too.
    // Ring ordinals count dropped rings; nothing before the last one moves.
    const std::string early = "doorbell_drop@1+doorbell_drop@9";
    const Observed probe =
        run_with_engine(build(early), api::Engine::kLockStep);
    const std::uint64_t rings = probe.result.doorbells + 2;
    const api::Scenario scenario = build(
        early + "+doorbell_drop@" + std::to_string(rings - 1));

    // The retry count when the host program ends (the checkpoint hook fires
    // at main-loop exit, just before the drain).
    std::uint64_t retries_at_exit = 0;
    const auto note_exit = [&retries_at_exit](cfi::SocTop& soc, Observed&) {
      soc.set_checkpoint(
          std::numeric_limits<sim::Cycle>::max(),
          [&retries_at_exit, &soc](const sim::Snapshot&) {
            retries_at_exit = soc.log_writer().doorbell_retries();
          });
    };
    const Observed lock =
        run_with_engine(scenario, api::Engine::kLockStep, note_exit);
    EXPECT_GT(lock.result.resilience.doorbell_retries, retries_at_exit);
    EXPECT_EQ(lock.result.resilience.injected[static_cast<std::size_t>(
                  sim::FaultSite::kDoorbellDrop)],
              3u);
    const Observed event =
        run_with_engine(scenario, api::Engine::kEventDriven, note_exit);
    expect_same(lock, event);
    EXPECT_LT(event.stepped_drain_cycles, lock.stepped_drain_cycles);
  }
}

TEST(BackPressureWindow, OverflowFaultOrdinalInsideWindowFiresExactly) {
  // Push attempts outnumber pushes ~20:1 in this run, so these ordinals fall
  // on stalled cycles in the middle of back-pressure windows.
  for (const char* plan : {"queue_overflow@5000#3", "queue_overflow@20011#1",
                           "queue_overflow@777#2+queue_overflow@60013#5"}) {
    SCOPED_TRACE(plan);
    const api::Scenario scenario =
        stall_bound_fib12().faults(sim::FaultPlan::parse(plan)).build();
    const Observed lock = run_with_engine(scenario, api::Engine::kLockStep);
    const Observed event = run_with_engine(scenario, api::Engine::kEventDriven);
    EXPECT_GT(lock.result.resilience.degraded_cycles, 0u);
    expect_same(lock, event);
  }
}

// ---- Guard behaviour --------------------------------------------------------

TEST(EngineEquivalence, CycleGuardFiresOnBothEngines) {
  const auto build = [](api::Engine engine) {
    return api::ScenarioBuilder()
        .name("guard")
        .workload(api::Workload::fib(10))
        .max_cycles(64)
        .engine(engine)
        .build();
  };
  EXPECT_THROW(
      (void)api::run_scenario(build(api::Engine::kLockStep)),
      std::runtime_error);
  EXPECT_THROW(
      (void)api::run_scenario(build(api::Engine::kEventDriven)),
      std::runtime_error);
}

// ---- Cooperative run limits (deadline / budget cancellation) ----------------
//
// The serving layer's contract rests on two sim-level facts proved here:
// a budget-stopped run halts at the same cycle with the same partial state
// on both engines, and a budget generous enough to let the run finish is
// observationally invisible (the report compares equal field-wise).

TEST(EngineEquivalence, BudgetStopIsIdenticalAcrossEngines) {
  const api::Scenario scenario = api::ScenarioBuilder()
                                     .name("budget_stop")
                                     .workload(api::Workload::fib(12))
                                     .queue_depth(8)
                                     .drain_burst(8)
                                     .build();
  const auto run_budgeted = [&](api::Engine engine) {
    api::RunControl control;
    control.cancel = std::make_shared<sim::CancelToken>();
    control.max_cycles = 4096;
    // A prime stride forces the event engine to split quanta at awkward
    // boundaries; the stop cycle must not depend on it.
    control.cancel_check_stride = 257;
    return api::run_scenario(scenario.with_engine(engine), {}, control);
  };
  const api::RunReport lock = run_budgeted(api::Engine::kLockStep);
  const api::RunReport event = run_budgeted(api::Engine::kEventDriven);
  EXPECT_EQ(lock.stop, api::RunStop::kBudgetExceeded);
  EXPECT_EQ(event.stop, api::RunStop::kBudgetExceeded);
  EXPECT_EQ(lock.cycles, 4096u);
  EXPECT_EQ(event.cycles, 4096u);
  EXPECT_EQ(lock, event);
}

TEST(EngineEquivalence, PreCancelledTokenStopsBeforeCycleOneOnBothEngines) {
  const api::Scenario scenario = api::ScenarioBuilder()
                                     .name("precancel")
                                     .workload(api::Workload::fib(12))
                                     .build();
  for (const api::Engine engine :
       {api::Engine::kLockStep, api::Engine::kEventDriven}) {
    api::RunControl control;
    auto token = std::make_shared<sim::CancelToken>();
    token->cancel(sim::CancelToken::Reason::kDeadline);
    control.cancel = token;
    const api::RunReport report =
        api::run_scenario(scenario.with_engine(engine), {}, control);
    EXPECT_EQ(report.stop, api::RunStop::kDeadlineExceeded);
    EXPECT_EQ(report.cycles, 0u);
  }
}

// Registry-wide budget-identity gate: for every registered scenario, on both
// engines, running under an armed cancel token and a budget one cycle past
// the natural stopping point yields a report field-wise equal to the
// unlimited run — arming the machinery must never perturb the simulation.
class RegistryBudgetIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryBudgetIdentity, ArmedBudgetWithinLimitIsInvisible) {
  const api::Scenario* scenario =
      api::ScenarioRegistry::global().find(GetParam());
  ASSERT_NE(scenario, nullptr);
  SCOPED_TRACE("scenario: " + scenario->serialize());
  for (const api::Engine engine :
       {api::Engine::kLockStep, api::Engine::kEventDriven}) {
    const api::Scenario variant = scenario->with_engine(engine);
    const api::RunReport plain = api::run_scenario(variant);
    api::RunControl control;
    control.cancel = std::make_shared<sim::CancelToken>();
    control.max_cycles = plain.cycles + 1;
    control.cancel_check_stride = 509;
    const api::RunReport limited = api::run_scenario(variant, {}, control);
    EXPECT_EQ(limited.stop, api::RunStop::kCompleted);
    EXPECT_EQ(limited, plain);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryBudgetIdentity,
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

}  // namespace
}  // namespace titan
