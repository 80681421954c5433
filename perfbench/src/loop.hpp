// The closed op loop shared by the single-threaded workloads: reference-
// kernel pacing around every op, seeded pass order, and failure accounting.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "rng.hpp"
#include "sampler.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Kernel samples inside an op: one every 5 ms (a 10 µs slice, 0.2 %).
inline constexpr long kSamplePeriodUs = 5000;
/// An op shorter than one kernel run is timed again as kShortSlices slices
/// of repeats, each lasting about kSliceUs, and the median slice is kept;
/// the first, single run is discarded.
inline constexpr double kShortOpUs = 100.0;
inline constexpr double kSliceUs = 500.0;
inline constexpr std::size_t kShortSlices = 5;

/// Times operations between reference-kernel runs: every op is bracketed by
/// the kernel run before it and the one after it.  Create and use it on one
/// thread.
class Pacer {
 public:
  /// Brackets with ref_kernel_us on the calling thread, and also samples
  /// inside every op while it runs (see KernelSampler).
  Pacer() : kernel_(ref_kernel_us) {
    sampler_.emplace(kSamplePeriodUs);
    start();
  }

  /// Brackets only, with `kernel` (returns one run's µs); nothing runs
  /// while an op is in flight.
  explicit Pacer(std::function<double()> kernel) : kernel_(std::move(kernel)) {
    start();
  }

  /// Run `op`; returns {raw µs, normalisation factor}.  The raw time
  /// excludes the sampler's handler time.
  template <typename F>
  std::pair<double, double> time(F&& op) {
    if (sampler_) {
      sampler_->arm();
    }
    const auto start = Clock::now();
    op();
    double raw = since_us(start);
    const KernelSampler::Window inside =
        sampler_ ? sampler_->disarm() : KernelSampler::Window{};
    raw -= inside.handler_us;
    const double next = kernel_();
    kernels_.push_back(next);
    const double factor = normalise(
        1.0, kernel_mean(prev_, next, inside.kernel_sum_us, inside.samples));
    prev_ = next;
    return {raw, factor};
  }

  [[nodiscard]] double kernel_median() const { return median(kernels_); }

 private:
  void start() {
    kernel_();  // the first call pays for page faults and cold caches
    prev_ = kernel_();
    kernels_.push_back(prev_);
  }

  std::function<double()> kernel_;
  std::optional<KernelSampler> sampler_;
  double prev_ = 0.0;
  std::vector<double> kernels_;
};

struct OpSample {
  std::size_t kind = 0;
  std::uint32_t op = 0;
  double raw_us = 0.0;
  double norm_us = 0.0;
};

struct PassRun {
  std::vector<OpSample> samples;
  std::size_t passes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Closed loop over `kinds` operations: each pass runs every kind once, in
/// an order the seed shuffles.  Passes continue while another one fits in
/// `seconds` (at least one).  `exec(kind, op, parent_span)` is timed;
/// `check(kind)` compares the op's output and is not.  An op fails when
/// exec throws or check returns false.  An op whose first run is shorter
/// than `warm_below_us` is timed again and the warm run kept.  Sample
/// times are per execution:
/// a slice of repeats is divided by its length, and so is the op factor the
/// tracer applies to its spans.
template <typename Exec, typename Check>
PassRun run_passes(std::size_t kinds, std::uint64_t seed, double seconds,
                   double warm_below_us, Pacer& pacer, Tracer* tracer,
                   std::uint32_t& next_op, Exec&& exec, Check&& check) {
  PassRun run;
  const auto start = Clock::now();
  for (;;) {
    const auto pass_start = Clock::now();
    std::vector<std::size_t> order(kinds);
    for (std::size_t i = 0; i < kinds; ++i) {
      order[i] = i;
    }
    Rng(mix_seed(seed, run.passes)).shuffle(order);
    for (const std::size_t kind : order) {
      bool threw = false;
      const auto timed = [&](std::size_t reps) {
        const std::uint32_t op = ++next_op;
        const auto [raw, factor] = pacer.time([&] {
          const ScopedSpan root(tracer, "bench.op", 0, op);
          for (std::size_t r = 0; r < reps && !threw; ++r) {
            try {
              exec(kind, op, root.id());
            } catch (const std::exception& error) {
              std::printf("perfbench: op %u failed: %s\n", op, error.what());
              threw = true;
            }
          }
        });
        const double per_rep = factor / static_cast<double>(reps);
        if (tracer != nullptr) {
          tracer->set_op_factor(op, per_rep);
        }
        return OpSample{kind, op, raw / static_cast<double>(reps),
                        raw * per_rep};
      };
      OpSample sample = timed(1);
      if (!threw && sample.raw_us < warm_below_us) {
        sample = timed(1);
      }
      if (!threw && sample.raw_us < kShortOpUs) {
        // Too short to time alone: time kShortSlices slices of repeats and
        // keep the median one.
        const auto reps = static_cast<std::size_t>(
            std::ceil(kSliceUs / std::max(sample.raw_us, 1.0)));
        std::vector<OpSample> slices;
        for (std::size_t i = 0; i < kShortSlices; ++i) {
          slices.push_back(timed(reps));
        }
        std::nth_element(slices.begin(), slices.begin() + kShortSlices / 2,
                         slices.end(), [](const OpSample& a, const OpSample& b) {
                           return a.norm_us < b.norm_us;
                         });
        sample = slices[kShortSlices / 2];
      }
      ++run.attempted;
      if (threw || !check(kind)) {
        ++run.failed;
      }
      run.samples.push_back(sample);
    }
    ++run.passes;
    const double pass_us = since_us(pass_start);
    if (since_us(start) + pass_us > seconds * 1e6) {
      break;
    }
  }
  return run;
}

}  // namespace perfbench
