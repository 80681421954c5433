// Trace-driven overhead model tests: closed-form checks in the saturated
// regime (where the paper's own Table III numbers pin the answer), stall-free
// regimes, monotonicity properties in latency and queue depth, and the
// incremental ServiceChain against a reference std::deque replay.
#include "titancfi/overhead_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/rng.hpp"
#include "workloads/embench.hpp"

namespace titan::cfi {
namespace {

OverheadConfig config_for(std::uint32_t latency, std::size_t depth) {
  OverheadConfig config;
  config.check_latency = latency;
  config.queue_depth = depth;
  config.transport_cycles = 0;
  return config;
}

std::vector<Cycle> uniform_cfs(std::uint64_t count, Cycle gap, Cycle start = 0) {
  std::vector<Cycle> cycles(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    cycles[i] = start + i * gap;
  }
  return cycles;
}

TEST(OverheadModel, NoCfNoSlowdown) {
  const auto result = simulate_cf_cycles({}, 1000, config_for(267, 8));
  EXPECT_EQ(result.cfi_cycles, 1000u);
  EXPECT_DOUBLE_EQ(result.slowdown_percent(), 0.0);
}

TEST(OverheadModel, SparseCfsNeverStall) {
  // Gap far above the check latency: the queue never backs up.
  const auto cfs = uniform_cfs(100, 10'000);
  const auto result = simulate_cf_cycles(cfs, 1'000'000, config_for(267, 8));
  EXPECT_EQ(result.stall_cycles, 0u);
  EXPECT_DOUBLE_EQ(result.slowdown_percent(), 0.0);
}

TEST(OverheadModel, SaturatedRegimeMatchesClosedForm) {
  // When CF gaps are far below the service time, total time approaches
  // N * L regardless of queue depth: slowdown -> 100 * (N*L/C - 1).
  const std::uint64_t n = 10'000;
  const Cycle gap = 6;
  const Cycle baseline = n * gap;
  const auto cfs = uniform_cfs(n, gap);
  for (const std::size_t depth : {1u, 8u, 64u}) {
    const auto result = simulate_cf_cycles(cfs, baseline, config_for(267, depth));
    const double expected = 100.0 * (267.0 / gap - 1.0);
    EXPECT_NEAR(result.slowdown_percent(), expected, expected * 0.02)
        << "depth=" << depth;
  }
}

TEST(OverheadModel, ReproducesPaperMmRow) {
  // Table III, mm: 1.41e6 cycles, 2.33e5 CF -> 1108/1752/4311 % at depth 8.
  const auto* mm = workloads::find_benchmark("mm");
  ASSERT_NE(mm, nullptr);
  const auto n = static_cast<std::uint64_t>(mm->cf_count);
  const auto baseline = static_cast<Cycle>(mm->cycles);
  const Cycle gap = baseline / n;  // mm is CF-saturated throughout
  const auto cfs = uniform_cfs(n, gap);

  const double irq =
      simulate_cf_cycles(cfs, baseline, config_for(267, 8)).slowdown_percent();
  const double poll =
      simulate_cf_cycles(cfs, baseline, config_for(112, 8)).slowdown_percent();
  const double opt =
      simulate_cf_cycles(cfs, baseline, config_for(73, 8)).slowdown_percent();
  EXPECT_NEAR(irq, 4311, 4311 * 0.05);
  EXPECT_NEAR(poll, 1752, 1752 * 0.05);
  EXPECT_NEAR(opt, 1108, 1108 * 0.05);
}

TEST(OverheadModel, ReproducesPaperDhrystoneRow) {
  const auto* dhry = workloads::find_benchmark("dhrystone");
  ASSERT_NE(dhry, nullptr);
  const auto n = static_cast<std::uint64_t>(dhry->cf_count);
  const auto baseline = static_cast<Cycle>(dhry->cycles);
  const auto cfs = uniform_cfs(n, baseline / n);
  const double irq =
      simulate_cf_cycles(cfs, baseline, config_for(267, 8)).slowdown_percent();
  EXPECT_NEAR(irq, 1215, 1215 * 0.06);
}

TEST(OverheadModel, MonotoneInCheckLatency) {
  const auto cfs = uniform_cfs(1000, 50);
  double previous = -1;
  for (const std::uint32_t latency : {10u, 40u, 73u, 112u, 267u, 500u}) {
    const double slowdown =
        simulate_cf_cycles(cfs, 50'000, config_for(latency, 8))
            .slowdown_percent();
    EXPECT_GE(slowdown, previous);
    previous = slowdown;
  }
}

TEST(OverheadModel, NonIncreasingInQueueDepth) {
  // Bursty arrivals: deeper queues absorb bursts, never hurt.
  std::vector<Cycle> cfs;
  for (int burst = 0; burst < 50; ++burst) {
    for (int j = 0; j < 6; ++j) {
      cfs.push_back(burst * 4000 + j * 8);
    }
  }
  double previous = 1e18;
  for (const std::size_t depth : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const double slowdown =
        simulate_cf_cycles(cfs, 200'000, config_for(267, depth))
            .slowdown_percent();
    EXPECT_LE(slowdown, previous + 1e-9) << "depth=" << depth;
    previous = slowdown;
  }
}

TEST(OverheadModel, DeepQueueAbsorbsShortBursts) {
  // A single burst of 8 with long quiet time after: depth 8 absorbs it.
  std::vector<Cycle> cfs;
  for (int j = 0; j < 8; ++j) {
    cfs.push_back(100 + j);
  }
  const auto result = simulate_cf_cycles(cfs, 100'000, config_for(267, 8));
  // Only the single-write-port constraint applies (1 extra cycle per CF
  // beyond the first when they'd land in the same shifted cycle).
  EXPECT_LE(result.stall_cycles, 8u);
}

TEST(OverheadModel, Depth1SerialisesBursts) {
  std::vector<Cycle> cfs;
  for (int j = 0; j < 8; ++j) {
    cfs.push_back(100 + j * 2);
  }
  const auto result = simulate_cf_cycles(cfs, 100'000, config_for(267, 1));
  // With depth 1, one log can wait while one is in service: every CF beyond
  // the second stalls behind a full check, ~6 * 267 minus the arrival gaps.
  EXPECT_GT(result.stall_cycles, 6u * 267u - 30u);
}

TEST(OverheadModel, DualCommitSameCycleSlips) {
  // Two CFs at the same cycle: the second must slip >= 1 (single push port).
  const std::vector<Cycle> cfs = {1000, 1000};
  const auto result = simulate_cf_cycles(cfs, 10'000, config_for(10, 8));
  EXPECT_GE(result.stall_cycles, 1u);
  EXPECT_GE(result.stall_events, 1u);
}

TEST(OverheadModel, DrainModeExtendsRun) {
  const std::vector<Cycle> cfs = {990};
  OverheadConfig config = config_for(267, 8);
  const auto no_drain = simulate_cf_cycles(cfs, 1000, config);
  config.drain_at_end = true;
  const auto drained = simulate_cf_cycles(cfs, 1000, config);
  EXPECT_EQ(no_drain.cfi_cycles, 1000u);
  EXPECT_GE(drained.cfi_cycles, 990u + 267u);
}

TEST(OverheadModel, TransportAddsToServiceTime) {
  const auto cfs = uniform_cfs(1000, 50);
  OverheadConfig with_transport = config_for(100, 1);
  with_transport.transport_cycles = 20;
  const auto base =
      simulate_cf_cycles(cfs, 50'000, config_for(100, 1)).slowdown_percent();
  const auto heavier =
      simulate_cf_cycles(cfs, 50'000, with_transport).slowdown_percent();
  EXPECT_GT(heavier, base);
}

TEST(OverheadModel, StallShiftsDownstreamUniformly) {
  // Two far-apart saturated phases: the delay accumulated in phase one
  // persists (commit-stage stalls shift the whole program).
  std::vector<Cycle> cfs;
  for (int j = 0; j < 100; ++j) cfs.push_back(j * 5);
  cfs.push_back(50'000);  // lone CF far later: no further stall
  const auto result = simulate_cf_cycles(cfs, 60'000, config_for(267, 1));
  const auto phase1 = simulate_cf_cycles(
      std::vector<Cycle>(cfs.begin(), cfs.end() - 1), 60'000,
      config_for(267, 1));
  EXPECT_EQ(result.stall_cycles, phase1.stall_cycles);
}

TEST(OverheadModel, RejectsZeroQueueDepth) {
  const std::vector<Cycle> cfs = {10, 20};
  EXPECT_THROW((void)simulate_cf_cycles(cfs, 1000, config_for(267, 0)),
               std::invalid_argument);
  EXPECT_THROW(ServiceChain{config_for(267, 0)}, std::invalid_argument);
}

// The replay as it was first written: a std::deque of the last
// `queue_depth` pop times.
OverheadResult deque_replay(const std::vector<Cycle>& cfs, Cycle baseline,
                            const OverheadConfig& config) {
  OverheadResult result;
  result.baseline_cycles = baseline;
  result.cf_count = cfs.size();
  const std::uint64_t service = config.transport_cycles + config.check_latency;
  Cycle delay = 0;
  Cycle server_free = 0;
  Cycle prev_arrival = 0;
  std::deque<Cycle> pop_times;
  for (std::size_t i = 0; i < cfs.size(); ++i) {
    Cycle arrival = cfs[i] + delay;
    if (i > 0 && arrival <= prev_arrival) {
      arrival = prev_arrival + 1;
    }
    if (pop_times.size() == config.queue_depth) {
      arrival = std::max(arrival, pop_times.front());
      pop_times.pop_front();
    }
    if (arrival > cfs[i] + delay) {
      ++result.stall_events;
    }
    delay = arrival - cfs[i];
    const Cycle pop_at = std::max(arrival, server_free);
    server_free = pop_at + service;
    pop_times.push_back(pop_at);
    prev_arrival = arrival;
  }
  result.stall_cycles = delay;
  result.cfi_cycles = baseline + delay;
  if (config.drain_at_end) {
    result.cfi_cycles = std::max(result.cfi_cycles, server_free);
  }
  return result;
}

// Sorted commit cycles mixing dual commits, tight bursts and quiet gaps.
std::vector<Cycle> random_trace(sim::Rng& rng, std::size_t count) {
  std::vector<Cycle> cfs(count);
  Cycle at = rng.uniform(0, 50);
  for (Cycle& cycle : cfs) {
    const std::uint64_t kind = rng.uniform(0, 9);
    at += kind == 0 ? 0 : kind < 7 ? rng.uniform(1, 12) : rng.uniform(50, 900);
    cycle = at;
  }
  return cfs;
}

TEST(ServiceChain, MatchesDequeReplayOnRandomTraces) {
  sim::Rng rng(0x5eed);
  for (std::size_t depth = 1; depth <= 64; ++depth) {
    for (const std::uint32_t transport : {0u, 7u}) {
      for (const bool drain : {false, true}) {
        OverheadConfig config = config_for(
            static_cast<std::uint32_t>(rng.uniform(1, 300)), depth);
        config.transport_cycles = transport;
        config.drain_at_end = drain;
        const auto cfs = random_trace(rng, rng.uniform(0, 600));
        const Cycle baseline = (cfs.empty() ? 0 : cfs.back()) + 100;
        const OverheadResult want = deque_replay(cfs, baseline, config);
        const OverheadResult got = simulate_cf_cycles(cfs, baseline, config);
        SCOPED_TRACE(::testing::Message()
                     << "depth=" << depth << " transport=" << transport
                     << " drain=" << drain << " n=" << cfs.size());
        EXPECT_EQ(got.baseline_cycles, want.baseline_cycles);
        EXPECT_EQ(got.cfi_cycles, want.cfi_cycles);
        EXPECT_EQ(got.cf_count, want.cf_count);
        EXPECT_EQ(got.stall_events, want.stall_events);
        EXPECT_EQ(got.stall_cycles, want.stall_cycles);
      }
    }
  }
}

TEST(ServiceChain, DelayFloorBoundsTheFinalDelay) {
  sim::Rng rng(0xf100);
  for (int trial = 0; trial < 200; ++trial) {
    const auto depth = static_cast<std::size_t>(rng.uniform(1, 16));
    OverheadConfig config =
        config_for(static_cast<std::uint32_t>(rng.uniform(1, 300)), depth);
    config.transport_cycles = static_cast<std::uint32_t>(rng.uniform(0, 7));
    const auto cfs = random_trace(rng, rng.uniform(1, 400));
    const Cycle final_delay =
        simulate_cf_cycles(cfs, cfs.back() + 1, config).stall_cycles;
    ServiceChain chain(config);
    Cycle previous = 0;
    for (std::size_t i = 0; i < cfs.size(); ++i) {
      chain.push(cfs[i]);
      ASSERT_GE(chain.delay(), previous);
      previous = chain.delay();
      ASSERT_LE(chain.delay_floor(cfs.size() - i - 1, cfs.back()), final_delay)
          << "trial=" << trial << " log=" << i;
    }
    EXPECT_EQ(chain.delay_floor(0, cfs.back()), final_delay);
  }
}

TEST(ServiceChain, ExceedingDelayIsTheSmallestDelayPastTheTarget) {
  const auto slowdown = [](Cycle baseline, Cycle delay) {
    OverheadResult result;
    result.baseline_cycles = baseline;
    result.cfi_cycles = baseline + delay;
    return result.slowdown_percent();
  };
  for (const Cycle baseline : {Cycle{1}, Cycle{3}, Cycle{20'100},
                               Cycle{1'410'000}, Cycle{5'240'000}}) {
    for (const double target : {-1.0, 0.0, 1e-9, 0.5, 1.0, 2.0, 43.0, 390.0,
                                1215.0, 4311.0, 1e6}) {
      const Cycle limit = exceeding_delay(baseline, target);
      EXPECT_GT(slowdown(baseline, limit), target)
          << baseline << " " << target;
      if (limit > 0) {
        EXPECT_LE(slowdown(baseline, limit - 1), target)
            << baseline << " " << target;
      }
    }
  }
  constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
  EXPECT_EQ(exceeding_delay(0, 0.0), kNever);  // slowdown_percent() is 0.
  EXPECT_EQ(exceeding_delay(0, -1.0), 0u);
  EXPECT_EQ(exceeding_delay(1000, std::nan("")), kNever);
  EXPECT_EQ(exceeding_delay(1000, HUGE_VAL), kNever);
}

}  // namespace
}  // namespace titan::cfi
