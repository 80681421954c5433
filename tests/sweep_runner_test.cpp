// SweepRunner: deterministic ordered aggregation (parallel output
// byte-identical to serial at any thread count), job distribution,
// exception propagation, the shared sweep CLI, the JSON emitter, and the
// report fingerprint.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "sim/rng.hpp"
#include "sim/sweep_doc.hpp"
#include "titancfi/overhead_model.hpp"
#include "workloads/embench.hpp"

namespace titan::sim {
namespace {

SweepRunner make_runner(unsigned threads) {
  SweepOptions options;
  options.threads = threads;
  return SweepRunner(options);
}

TEST(SweepRunner, SerialReferenceProducesIndexOrder) {
  SweepRunner runner = make_runner(1);
  const auto results = runner.run<std::size_t>(
      17, [](std::size_t index) { return index * index; });
  ASSERT_EQ(results.size(), 17u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(SweepRunner, ParallelIdenticalToSerialAtAnyThreadCount) {
  // A job with real data dependence on the index (per-index Rng stream) so
  // any cross-index interference or misordering would change the output.
  const auto job = [](std::size_t index) {
    Rng rng(0xC0FFEE + index);
    std::uint64_t acc = 0;
    for (int i = 0; i < 1000; ++i) {
      acc += rng.next();
    }
    return acc;
  };
  const auto serial = make_runner(1).run<std::uint64_t>(64, job);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = make_runner(threads).run<std::uint64_t>(64, job);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(SweepRunner, OverheadModelSweepIsDeterministicAcrossThreads) {
  // The real workload the benches sweep: calibrate + replay a benchmark
  // point through the trace-driven overhead model.
  const auto& table = titan::workloads::benchmark_table();
  const std::size_t count = std::min<std::size_t>(table.size(), 6);
  const auto job = [&table](std::size_t index) {
    const auto& stats = table[index];
    const auto params = titan::workloads::calibrate(stats);
    const auto cf = titan::workloads::synthesize_cf_cycles(stats, params);
    titan::cfi::OverheadConfig config;
    config.queue_depth = 8;
    config.check_latency = titan::workloads::kIrqLatency;
    config.transport_cycles = 0;
    return titan::cfi::simulate_cf_cycles(
               cf, static_cast<Cycle>(stats.cycles), config)
        .slowdown_percent();
  };
  const auto serial = make_runner(1).run<double>(count, job);
  const auto parallel = make_runner(4).run<double>(count, job);
  // Bitwise equality, not approximate: determinism is the contract.
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "index " << i;
  }
}

TEST(SweepRunner, AllIndicesRunExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  SweepRunner runner = make_runner(4);
  runner.run_indexed(hits.size(), [&hits](std::size_t index) {
    hits[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepRunner, FirstFailingIndexWinsLikeSerial) {
  for (const unsigned threads : {1u, 4u}) {
    SweepRunner runner = make_runner(threads);
    try {
      runner.run_indexed(32, [](std::size_t index) {
        if (index == 7 || index == 23) {
          throw std::runtime_error("boom at " + std::to_string(index));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom at 7") << "threads=" << threads;
    }
  }
}

TEST(SweepRunner, ZeroThreadsMeansHardwareConcurrency) {
  SweepRunner runner = make_runner(0);
  EXPECT_GE(runner.threads(), 1u);
  EXPECT_EQ(runner.threads(), SweepRunner::hardware_threads());
}

TEST(SweepRunner, EmptySweepIsANoOp) {
  SweepRunner runner = make_runner(4);
  const auto results =
      runner.run<int>(0, [](std::size_t) -> int { throw std::logic_error("no"); });
  EXPECT_TRUE(results.empty());
}

TEST(SweepCli, ParsesThreadsAndJsonFlags) {
  const char* argv[] = {"bench", "--threads=6", "--json=out.json"};
  const SweepCli cli =
      parse_sweep_cli(3, const_cast<char**>(argv), "default.json");
  EXPECT_TRUE(cli.error.empty()) << cli.error;
  EXPECT_EQ(cli.threads, 6u);
  EXPECT_EQ(cli.json_path, "out.json");

  const char* bare[] = {"bench"};
  const SweepCli defaults =
      parse_sweep_cli(1, const_cast<char**>(bare), "default.json");
  EXPECT_TRUE(defaults.error.empty()) << defaults.error;
  EXPECT_EQ(defaults.threads, 1u);
  EXPECT_EQ(defaults.json_path, "default.json");

  // Unrecognised flags are errors, not silently ignored: a typo, and a flag
  // that no sweep bench accepts any more.
  for (const char* unknown : {"--thredas=4", "--shard=0/2"}) {
    const char* typo[] = {"bench", "--threads=4", unknown};
    const SweepCli rejected = parse_sweep_cli(3, const_cast<char**>(typo));
    EXPECT_NE(rejected.error.find(unknown), std::string::npos)
        << unknown << ": " << rejected.error;
    EXPECT_NE(rejected.error.find("usage:"), std::string::npos)
        << rejected.error;
  }
}

TEST(JsonWriter, EmitsOrderedNestedStructure) {
  JsonWriter json;
  json.begin_object()
      .field("pr", std::uint64_t{2})
      .field("label", std::string_view{"sweep"})
      .begin_object("nested")
      .field("speedup", 3.5)
      .field("ok", true)
      .end_object()
      .begin_array("points")
      .begin_object()
      .field("x", 1)
      .end_object()
      .begin_object()
      .field("x", 2)
      .end_object()
      .end_array()
      .begin_array("hist")
      .element(std::uint64_t{7})
      .element(std::uint64_t{0})
      .end_array()
      .end_object();
  const std::string expected =
      "{\n"
      "  \"pr\": 2,\n"
      "  \"label\": \"sweep\",\n"
      "  \"nested\": {\n"
      "    \"speedup\": 3.5,\n"
      "    \"ok\": true\n"
      "  },\n"
      "  \"points\": [\n"
      "    {\n"
      "      \"x\": 1\n"
      "    },\n"
      "    {\n"
      "      \"x\": 2\n"
      "    }\n"
      "  ],\n"
      "  \"hist\": [\n"
      "    7,\n"
      "    0\n"
      "  ]\n"
      "}";
  EXPECT_EQ(json.str(), expected);
}

TEST(JsonWriter, CStringFieldEmitsStringNotBool) {
  JsonWriter json;
  const char* label = "irq/baseline/burst1";
  json.begin_object().field("config", label).end_object();
  EXPECT_NE(json.str().find("\"config\": \"irq/baseline/burst1\""),
            std::string::npos)
      << json.str();
}

TEST(Fingerprint, StableAndDiscriminating) {
  EXPECT_EQ(fingerprint_hex("grid-a"), fingerprint_hex("grid-a"));
  EXPECT_NE(fingerprint_hex("grid-a"), fingerprint_hex("grid-b"));
  EXPECT_EQ(fingerprint_hex("x").size(), 16u);
  // FNV-1a 64 published reference value for the empty string.
  EXPECT_EQ(fingerprint64(""), 14695981039346656037ull);
}

}  // namespace
}  // namespace titan::sim
