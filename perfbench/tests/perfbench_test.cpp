// Tests of the benchmark's own logic: normalisation arithmetic, the tail
// rule, failure accounting against goldens, and seed determinism of the
// serve_mixed request stream.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "golden.hpp"
#include "loop.hpp"
#include "serve_stream.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Normalise, DividesByTheMeanKernelTime) {
  EXPECT_DOUBLE_EQ(normalise(200.0, kNominalKernelUs), 200.0);
  // A machine running at half speed reads twice the time for both.
  EXPECT_DOUBLE_EQ(normalise(400.0, 2 * kNominalKernelUs), 200.0);
  EXPECT_THROW((void)normalise(1.0, 0.0), std::invalid_argument);
}

TEST(Normalise, KernelMeanWeighsEveryObservedRunOnce) {
  // Bracketing only: the mean of the runs before and after.
  EXPECT_DOUBLE_EQ(kernel_mean(100.0, 200.0, 0.0, 0), 150.0);
  // A long op sampled five times inside: seven runs in all.
  EXPECT_DOUBLE_EQ(kernel_mean(100.0, 100.0, 5 * 240.0, 5), 1400.0 / 7.0);
}

void busy_for(std::chrono::milliseconds span) {
  const auto until = Clock::now() + span;
  while (Clock::now() < until) {
  }
}

TEST(Normalise, SamplerTakesKernelSamplesInsideAnOp) {
  KernelSampler sampler(kSamplePeriodUs);
  sampler.arm();
  busy_for(std::chrono::milliseconds(60));
  const KernelSampler::Window window = sampler.disarm();
  EXPECT_GE(window.samples, 6u);  // ≈12 at one per 5 ms
  EXPECT_GT(window.kernel_sum_us, 0.0);
  EXPECT_GT(window.handler_us, 0.0);
}

TEST(Normalise, PacerTakesHandlerTimeOutOfTheOp) {
  Pacer pacer;
  double inside_us = 0.0;
  const auto [raw, factor] = pacer.time([&inside_us] {
    const auto start = Clock::now();
    busy_for(std::chrono::milliseconds(60));
    inside_us = since_us(start);
  });
  EXPECT_LT(raw, inside_us);
  EXPECT_GT(raw, 0.5 * inside_us);
  EXPECT_GT(factor, 0.0);
}

TEST(Normalise, BracketOnlyPacerRunsItsKernelOnlyBetweenOps) {
  int kernel_runs = 0;
  Pacer pacer([&kernel_runs] {
    ++kernel_runs;
    return kNominalKernelUs;
  });
  EXPECT_EQ(kernel_runs, 2);  // warm-up, then the run before the first op
  int runs_during_op = -1;
  const auto [raw, factor] =
      pacer.time([&] { runs_during_op = kernel_runs - 2; });
  EXPECT_EQ(runs_during_op, 0);
  EXPECT_EQ(kernel_runs, 3);
  EXPECT_DOUBLE_EQ(factor, 1.0);
  EXPECT_GE(raw, 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  std::vector<double> hundred_and_one;
  for (int i = 0; i <= 100; ++i) {
    hundred_and_one.push_back(i);
  }
  EXPECT_DOUBLE_EQ(quantile(hundred_and_one, 0.99), 99.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0.0);  // p50 leaves 9.5 beyond
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);  // p90 leaves 9.9 beyond
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);  // exactly 10 beyond
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

TEST(MeanOfKindMedians, WeighsEveryKindOnce) {
  EXPECT_DOUBLE_EQ(mean_of_kind_medians({{1, 2, 3}, {10}, {}}), 6.0);
}

TEST(Golden, DigestIsFnv1a64) {
  EXPECT_EQ(digest(""), "cbf29ce484222325");
  EXPECT_EQ(digest("a"), "af63dc4c8601ec8c");
}

TEST(Golden, MismatchAndMissingGoldenFail) {
  GoldenSet goldens;
  goldens.add("s", digest("{\"cycles\":7}"));
  EXPECT_TRUE(goldens.matches("s", "{\"cycles\":7}"));
  EXPECT_FALSE(goldens.matches("s", "{\"cycles\":8}"));
  EXPECT_FALSE(goldens.matches("unknown", "{\"cycles\":7}"));
}

TEST(Golden, MismatchCountsAsFailedOp) {
  GoldenSet goldens;
  goldens.add("k0", digest("good"));
  goldens.add("k1", digest("good"));
  goldens.add("k2", digest("good"));
  const char* outputs[] = {"good", "bad", "good"};
  Pacer pacer;
  std::uint32_t next_op = 0;
  const PassRun run = run_passes(
      3, 1, 0.0, 0.0, pacer, nullptr, next_op,
      [](std::size_t kind, std::uint32_t, std::uint32_t) {
        if (kind == 2) {
          throw std::runtime_error("op threw");
        }
      },
      [&](std::size_t kind) {
        return goldens.matches("k" + std::to_string(kind), outputs[kind]);
      });
  EXPECT_EQ(run.passes, 1u);
  EXPECT_EQ(run.attempted, 3u);
  EXPECT_EQ(run.failed, 2u);  // k1 differs, k2 threw
  ASSERT_EQ(run.samples.size(), 3u);
  for (const OpSample& s : run.samples) {
    EXPECT_GT(s.norm_us, 0.0);
  }
}

TEST(Golden, ServedResponseIsUnescapedBeforeTheCheck) {
  const std::string report = "{\"scenario\":\"s\",\"cycles\":42}";
  GoldenSet goldens;
  goldens.add("s", digest(report));
  const std::string ok_line =
      "{\"schema_version\":1,\"id\":\"1\",\"ok\":true,\"op\":\"run\","
      "\"scenario\":\"s\",\"warm_start\":true,\"report\":"
      "\"{\\\"scenario\\\":\\\"s\\\",\\\"cycles\\\":42}\"}";
  double cycles = 0;
  EXPECT_TRUE(served_output_matches(ok_line, "s", goldens, &cycles));
  EXPECT_EQ(cycles, 42.0);

  std::string altered = ok_line;
  altered.replace(altered.find("42"), 2, "43");
  EXPECT_FALSE(served_output_matches(altered, "s", goldens, &cycles));
  EXPECT_FALSE(served_output_matches(
      "{\"schema_version\":1,\"id\":\"1\",\"ok\":false,\"error\":{\"code\":"
      "\"overloaded\",\"message\":\"x\"}}",
      "s", goldens, &cycles));
  EXPECT_FALSE(served_output_matches("not json", "s", goldens, &cycles));
}

ServeMix test_mix() {
  ServeMix mix;
  mix.warm = {"w0", "w1", "w2"};
  mix.attack = {"a0", "a1"};
  mix.pool = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  return mix;
}

TEST(ServeStream, SeedFullyDeterminesTheStream) {
  const ServeMix mix = test_mix();
  const auto first = serve_stream(mix, 7, 24);
  EXPECT_EQ(first, serve_stream(mix, 7, 24));
  EXPECT_NE(first, serve_stream(mix, 8, 24));
  // A shorter run is a prefix of a longer one.
  const auto shorter = serve_stream(mix, 7, 10);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), first.begin()));
}

TEST(ServeStream, BlocksHaveFixedCompositionAndSteadyFirstSightings) {
  const ServeMix mix = test_mix();
  const auto stream = serve_stream(mix, 3, 24);
  std::set<std::string> programs;
  for (std::size_t b = 0; b < stream.size(); ++b) {
    ASSERT_EQ(stream[b].size(), kBlockRequests);
    std::size_t warm = 0, attack = 0, spec = 0, new_programs = 0;
    for (const ServeRequest& r : stream[b]) {
      switch (r.kind) {
        case ServeRequest::Kind::kWarm: ++warm; break;
        case ServeRequest::Kind::kAttack: ++attack; break;
        case ServeRequest::Kind::kSpec:
          ++spec;
          EXPECT_FALSE(r.spec.empty());
          if (programs.insert(r.name).second) {
            ++new_programs;
          }
          break;
      }
    }
    EXPECT_EQ(warm, kWarmPerBlock);
    EXPECT_EQ(attack, kAttackPerBlock);
    EXPECT_EQ(spec, kSpecPerBlock);
    EXPECT_EQ(new_programs, b % kNewSpecEvery == 0 ? 1u : 0u) << "block " << b;
  }
}

}  // namespace
}  // namespace perfbench
