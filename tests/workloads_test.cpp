// Workload-layer tests: benchmark table integrity, trace-generator
// properties, the streamed generator and replay against a build-then-sort
// reference, and calibration fidelity against the paper's IRQ columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "titancfi/overhead_model.hpp"
#include "workloads/embench.hpp"

namespace titan::workloads {
namespace {

TEST(BenchmarkTable, HasAllTableIiiRows) {
  EXPECT_EQ(benchmark_table().size(), 32u);  // 19 EmBench + 13 RISC-V-Tests
  int embench = 0;
  int riscv = 0;
  for (const BenchmarkStats& stats : benchmark_table()) {
    if (stats.suite == "embench") ++embench;
    if (stats.suite == "riscv-tests") ++riscv;
    EXPECT_GT(stats.cycles, 0);
    EXPECT_GT(stats.cf_count, 0);
  }
  EXPECT_EQ(embench, 19);
  EXPECT_EQ(riscv, 13);
}

TEST(BenchmarkTable, LookupByName) {
  ASSERT_NE(find_benchmark("dhrystone"), nullptr);
  EXPECT_EQ(find_benchmark("dhrystone")->paper_irq, 1215);
  EXPECT_EQ(find_benchmark("nope"), nullptr);
}

TEST(BenchmarkTable, Table2SubsetFlagged) {
  int in_table2 = 0;
  for (const BenchmarkStats& stats : benchmark_table()) {
    if (stats.in_table2()) ++in_table2;
  }
  EXPECT_EQ(in_table2, 9);  // Table II lists 4 EmBench + 5 RISC-V-Tests rows
}

TEST(TraceGen, ProducesExactCountWithinRun) {
  const BenchmarkStats* stats = find_benchmark("picojpeg");
  ASSERT_NE(stats, nullptr);
  const auto cycles = synthesize_cf_cycles(*stats, TraceParams{});
  EXPECT_EQ(cycles.size(), static_cast<std::size_t>(stats->cf_count));
  EXPECT_TRUE(std::is_sorted(cycles.begin(), cycles.end()));
  EXPECT_LT(cycles.back(), static_cast<sim::Cycle>(stats->cycles));
}

TEST(TraceGen, WindowFractionConcentratesActivity) {
  const BenchmarkStats* stats = find_benchmark("wikisort");
  ASSERT_NE(stats, nullptr);
  TraceParams narrow;
  narrow.window_fraction = 0.1;
  const auto cycles = synthesize_cf_cycles(*stats, narrow);
  const double span =
      static_cast<double>(cycles.back() - cycles.front());
  EXPECT_LT(span, 0.15 * stats->cycles);
}

TEST(TraceGen, ClusterSizeCreatesBackToBackOps) {
  const BenchmarkStats* stats = find_benchmark("ud");
  ASSERT_NE(stats, nullptr);
  TraceParams params;
  params.cluster = 4;
  params.intra_gap = 8;
  const auto cycles = synthesize_cf_cycles(*stats, params);
  // Inside a cluster consecutive gaps equal intra_gap.
  int tight_gaps = 0;
  for (std::size_t i = 1; i < cycles.size(); ++i) {
    if (cycles[i] - cycles[i - 1] == 8) ++tight_gaps;
  }
  EXPECT_GT(tight_gaps, static_cast<int>(cycles.size() / 2));
}

TEST(TraceGen, EmptyBenchmarkYieldsEmptyTrace) {
  BenchmarkStats empty{"x", "embench", 0, 0, -1, -1, -1, -2, -2, -2};
  EXPECT_TRUE(synthesize_cf_cycles(empty, TraceParams{}).empty());
}

// The generator as it was first written: build every burst, then sort.
std::vector<sim::Cycle> sorted_reference(const BenchmarkStats& stats,
                                         const TraceParams& params) {
  const auto total = static_cast<std::uint64_t>(stats.cycles);
  const auto cf_count = static_cast<std::uint64_t>(stats.cf_count);
  std::vector<sim::Cycle> cycles;
  if (cf_count == 0 || total == 0) {
    return cycles;
  }
  const unsigned cluster = std::max(1u, params.cluster);
  const std::uint64_t clusters = (cf_count + cluster - 1) / cluster;
  const double window = std::max(1.0, params.window_fraction * stats.cycles);
  const double spacing = window / static_cast<double>(clusters);
  const double offset = (stats.cycles - window) / 2.0;
  for (std::uint64_t c = 0; c < clusters && cycles.size() < cf_count; ++c) {
    const double base = offset + spacing * static_cast<double>(c);
    for (unsigned j = 0; j < cluster && cycles.size() < cf_count; ++j) {
      const double at = base + static_cast<double>(j) * params.intra_gap;
      cycles.push_back(static_cast<sim::Cycle>(
          std::min(std::max(at, 0.0), stats.cycles - 1.0)));
    }
  }
  std::sort(cycles.begin(), cycles.end());
  return cycles;
}

std::string row_test_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name(benchmark_table()[info.param].name);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

constexpr double kWindowFractions[] = {
    1e-4, 3e-4,      1e-3, 2e-3, 5e-3, 0.01,      0.02, 0.05,
    0.1,  0.15,      0.2,  0.25, 0.3,  1.0 / 3.0, 0.4,  0.5,
    0.6,  2.0 / 3.0, 0.75, 0.8,  0.9,  0.95,      0.99, 1.0};

class StreamedTraceTest : public ::testing::TestWithParam<std::size_t> {};

// Burst sizes cover partial last bursts (7, 200, most grid sizes), and the
// window fractions both overlapping and disjoint bursts.
TEST_P(StreamedTraceTest, EqualsSortedReference) {
  const BenchmarkStats& stats = benchmark_table()[GetParam()];
  for (const unsigned cluster : {1u, 2u, 3u, 4u, 6u, 7u, 8u, 12u, 16u, 24u,
                                 32u, 48u, 64u, 96u, 128u, 200u}) {
    for (const double fraction : kWindowFractions) {
      TraceParams params;
      params.cluster = cluster;
      params.window_fraction = fraction;
      ASSERT_EQ(synthesize_cf_cycles(stats, params),
                sorted_reference(stats, params))
          << "cluster=" << cluster << " phi=" << fraction;
    }
  }
  const TraceParams calibrated = calibrate(stats);
  EXPECT_EQ(synthesize_cf_cycles(stats, calibrated),
            sorted_reference(stats, calibrated));
}

// exceeds() stops early; it must still agree with the full replay for
// targets on both sides of, and exactly at, the replayed value.
TEST_P(StreamedTraceTest, ExceedsAgreesWithFullReplay) {
  const BenchmarkStats& stats = benchmark_table()[GetParam()];
  const TraceParams calibrated = calibrate(stats);
  for (const double fraction : {1e-4, 0.01, 0.3, calibrated.window_fraction}) {
    for (const std::size_t depth : {1u, 8u}) {
      for (const bool drain : {false, true}) {
        TraceParams params = calibrated;
        params.window_fraction = fraction;
        cfi::OverheadConfig config;
        config.queue_depth = depth;
        config.check_latency = kIrqLatency;
        config.transport_cycles = 0;
        config.drain_at_end = drain;
        const double value =
            cfi::simulate_cf_cycles(synthesize_cf_cycles(stats, params),
                                    static_cast<sim::Cycle>(stats.cycles),
                                    config)
                .slowdown_percent();
        EXPECT_EQ(replay(stats, params, config).slowdown_percent(), value);
        for (const double target :
             {-1.0, 0.0, value * 0.5, value - 1.0,
              std::nextafter(value, -HUGE_VAL), value,
              std::nextafter(value, HUGE_VAL), value + 1.0, value * 2.0,
              stats.paper_irq}) {
          EXPECT_EQ(exceeds(stats, params, config, target), value > target)
              << "phi=" << fraction << " depth=" << depth
              << " drain=" << drain << " target=" << target;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRows, StreamedTraceTest,
                         ::testing::Range<std::size_t>(0, 32), row_test_name);

// calibrate() for every Table III row, pinned bit for bit to the values the
// first (build-sort-replay, no early exit) implementation produced.
TEST(Calibration, PinnedForEveryRow) {
  struct Pinned {
    const char* name;
    double window_fraction;
    unsigned cluster;
  };
  const Pinned pinned[] = {
      {"aha-mont64", 0x1p+0, 2u},
      {"crc32", 0x1p+0, 2u},
      {"cubic", 0x1.f46c57c9d7ecp-1, 16u},
      {"edn", 0x1p+0, 8u},
      {"huffbench", 0x1.06db0e967521ep-4, 16u},
      {"matmult-int", 0x1p+0, 8u},
      {"minver", 0x1.fe050ef417a44p-1, 8u},
      {"nbody", 0x1.edbbf5d63d8p-1, 32u},
      {"nettle-aes", 0x1p+0, 2u},
      {"nettle-sha256", 0x1.7f25eb6e4725ap-2, 12u},
      {"nsichneu", 0x1p+0, 2u},
      {"picojpeg", 0x1.23a122639b984p-1, 16u},
      {"qrduino", 0x1p+0, 2u},
      {"sglib-combined", 0x1.f151ffe536c5p-2, 12u},
      {"slre", 0x1.fc4e9754006dep-1, 1u},
      {"st", 0x1.8d5a925e8ad7ep-2, 2u},
      {"statemate", 0x1.faad2d45b213ep-1, 2u},
      {"ud", 0x1p+0, 8u},
      {"wikisort", 0x1.03361da5e4e58p-1, 64u},
      {"dhrystone", 0x1.fd03f06c32ec6p-1, 128u},
      {"median", 0x1p+0, 6u},
      {"memcpy", 0x1p+0, 2u},
      {"mm", 0x1.ffffffffffffp-1, 128u},
      {"mt-matmul", 0x1.ffffffffffffp-1, 24u},
      {"mt-memcpy", 0x1p+0, 2u},
      {"mt-vvadd", 0x1p+0, 2u},
      {"multiply", 0x1p+0, 8u},
      {"pmp", 0x1p+0, 2u},
      {"qsort", 0x1p+0, 6u},
      {"rsort", 0x1p+0, 6u},
      {"spmv", 0x1p+0, 2u},
      {"towers", 0x1p+0, 2u},
  };
  ASSERT_EQ(std::size(pinned), benchmark_table().size());
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    const BenchmarkStats& stats = benchmark_table()[i];
    ASSERT_EQ(stats.name, pinned[i].name);
    const TraceParams params = calibrate(stats);
    EXPECT_EQ(params.window_fraction, pinned[i].window_fraction)
        << stats.name << ": " << std::hexfloat << params.window_fraction;
    EXPECT_EQ(params.cluster, pinned[i].cluster) << stats.name;
    EXPECT_EQ(params.intra_gap, 8u) << stats.name;
  }
}

// Calibration: fitting phi on the IRQ column must reproduce that column; the
// real validation (predicting Poll/Opt) lives in the Table III bench.
class CalibrationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CalibrationTest, ReproducesIrqColumnAtDepth8) {
  const BenchmarkStats* stats = find_benchmark(GetParam());
  ASSERT_NE(stats, nullptr);
  const TraceParams params = calibrate(*stats);
  const auto cf = synthesize_cf_cycles(*stats, params);
  cfi::OverheadConfig config;
  config.queue_depth = 8;
  config.check_latency = kIrqLatency;
  config.transport_cycles = 0;
  const double predicted =
      cfi::simulate_cf_cycles(cf, static_cast<sim::Cycle>(stats->cycles), config)
          .slowdown_percent();
  if (stats->paper_irq <= 0) {
    EXPECT_LT(predicted, 1.0);
  } else {
    // Within 10% relative or 2 points absolute of the published number.
    EXPECT_NEAR(predicted, stats->paper_irq,
                std::max(2.0, 0.10 * stats->paper_irq));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, CalibrationTest,
    ::testing::Values("cubic", "huffbench", "nbody", "picojpeg", "slre",
                      "wikisort", "dhrystone", "mm", "mt-matmul", "statemate",
                      "edn", "crc32", "qsort", "towers"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Calibration, SaturatedBenchmarksInsensitiveToPhi) {
  // mm is CF-saturated: any window gives ~the same slowdown; calibrate()
  // must not produce a degenerate window.
  const BenchmarkStats* mm = find_benchmark("mm");
  ASSERT_NE(mm, nullptr);
  const TraceParams params = calibrate(*mm);
  EXPECT_GT(params.window_fraction, 0.0);
  EXPECT_LE(params.window_fraction, 1.0);
}

TEST(Calibration, QuietBenchmarksGetFullWindow) {
  const BenchmarkStats* edn = find_benchmark("edn");
  ASSERT_NE(edn, nullptr);
  EXPECT_DOUBLE_EQ(calibrate(*edn).window_fraction, 1.0);
}

}  // namespace
}  // namespace titan::workloads
