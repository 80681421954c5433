#include "workloads/embench.hpp"

#include <algorithm>
#include <cmath>

#include "titancfi/overhead_model.hpp"

namespace titan::workloads {

namespace {

constexpr double kNa = -1;   // "-" in Table III
constexpr double kAbs = -2;  // not present in Table II

}  // namespace

const std::vector<BenchmarkStats>& benchmark_table() {
  // name, suite, cycles, cf, TableIII{opt,poll,irq}, TableII{opt,poll,irq}
  static const std::vector<BenchmarkStats> rows = {
      {"aha-mont64", "embench", 2.51e6, 1.50e1, kNa, kNa, kNa, kNa, kNa, kNa},
      {"crc32", "embench", 3.49e6, 1.50e1, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"cubic", "embench", 1.10e6, 2.01e4, 46, 107, 390, kAbs, kAbs, kAbs},
      {"edn", "embench", 4.23e6, 3.67e2, kNa, kNa, kNa, 1, 1, 2},
      {"huffbench", "embench", 3.49e6, 2.28e3, 1, 3, 11, kAbs, kAbs, kAbs},
      {"matmult-int", "embench", 4.69e6, 2.05e2, kNa, kNa, kNa, kNa, kNa, 1},
      {"minver", "embench", 4.75e5, 4.50e3, kNa, 7, 153, kAbs, kAbs, kAbs},
      {"nbody", "embench", 1.21e5, 4.29e3, 163, 301, 849, kAbs, kAbs, kAbs},
      {"nettle-aes", "embench", 5.20e6, 7.95e2, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"nettle-sha256", "embench", 4.73e6, 8.57e3, 1, 2, 11, kAbs, kAbs, kAbs},
      {"nsichneu", "embench", 5.24e6, 1.70e1, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"picojpeg", "embench", 4.97e6, 2.14e4, 5, 15, 58, kAbs, kAbs, kAbs},
      {"qrduino", "embench", 4.61e6, 4.35e3, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"sglib-combined", "embench", 3.67e6, 2.62e4, 9, 32, 142, kAbs, kAbs, kAbs},
      {"slre", "embench", 3.57e6, 6.69e4, 38, 110, 401, kAbs, kAbs, kAbs},
      {"st", "embench", 1.47e5, 2.31e2, kNa, kNa, 2, kAbs, kAbs, kAbs},
      {"statemate", "embench", 3.22e6, 2.75e4, kNa, kNa, 129, kAbs, kAbs, kAbs},
      {"ud", "embench", 1.87e6, 2.98e3, kNa, kNa, kNa, 12, 18, 43},
      {"wikisort", "embench", 4.38e5, 7.69e3, 94, 158, 418, kAbs, kAbs, kAbs},
      {"dhrystone", "riscv-tests", 4.57e5, 2.25e4, 260, 452, 1215, 360, 553, 1318},
      {"median", "riscv-tests", 2.53e4, 1.10e1, kNa, kNa, kNa, 3, 5, 12},
      {"memcpy", "riscv-tests", 1.20e5, 1.10e1, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"mm", "riscv-tests", 1.41e6, 2.33e5, 1108, 1752, 4311, kAbs, kAbs, kAbs},
      {"mt-matmul", "riscv-tests", 5.76e4, 2.38e2, 11, 22, 65, kAbs, kAbs, kAbs},
      {"mt-memcpy", "riscv-tests", 4.08e5, 1.80e1, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"mt-vvadd", "riscv-tests", 1.48e5, 3.30e1, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"multiply", "riscv-tests", 3.72e4, 9.00e0, kNa, kNa, kNa, 2, 3, 6},
      {"pmp", "riscv-tests", 9.01e5, 5.90e1, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"qsort", "riscv-tests", 2.68e5, 1.10e1, kNa, kNa, kNa, kNa, kNa, 1},
      {"rsort", "riscv-tests", 3.32e5, 1.10e1, kNa, kNa, kNa, kNa, kNa, 1},
      {"spmv", "riscv-tests", 1.67e5, 1.10e1, kNa, kNa, kNa, kAbs, kAbs, kAbs},
      {"towers", "riscv-tests", 2.01e4, 9.00e0, kNa, kNa, kNa, kAbs, kAbs, kAbs},
  };
  return rows;
}

const BenchmarkStats* find_benchmark(std::string_view name) {
  for (const BenchmarkStats& stats : benchmark_table()) {
    if (stats.name == name) {
      return &stats;
    }
  }
  return nullptr;
}

namespace {

// The commit cycles of synthesize_cf_cycles in ascending order, produced
// without building or sorting them.  Burst c holds value(c, j) for
// j < burst_size(c); each burst ascends in j, and bursts open in ascending
// order of value(c, 0), so a min-heap over the heads of the open bursts
// merges them.  Each step emits the earliest burst's run up to the next
// competing head: another open burst, or the first unopened one.
class CfStream {
 public:
  CfStream(const BenchmarkStats& stats, const TraceParams& params) {
    const auto total = static_cast<std::uint64_t>(stats.cycles);
    const auto cf_count = static_cast<std::uint64_t>(stats.cf_count);
    if (cf_count == 0 || total == 0) {
      return;
    }
    size_ = cf_count;
    cluster_ = std::max(1u, params.cluster);
    bursts_ = (cf_count + cluster_ - 1) / cluster_;
    const double window =
        std::max(1.0, params.window_fraction * stats.cycles);
    spacing_ = window / static_cast<double>(bursts_);
    // Centre the active window in the run.
    offset_ = (stats.cycles - window) / 2.0;
    intra_gap_ = params.intra_gap;
    run_end_ = stats.cycles - 1.0;
    // value() ascends in both arguments, so the largest cycle ends either
    // the last burst or the last full one.
    last_ = value(bursts_ - 1, burst_size(bursts_ - 1) - 1);
    if (bursts_ > 1) {
      last_ = std::max(last_, value(bursts_ - 2, cluster_ - 1));
    }
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// The largest cycle (0 when empty).
  [[nodiscard]] sim::Cycle last() const { return last_; }

  /// Calls emit(cycle) for every cycle in order while emit returns true.
  template <typename Emit>
  void run(Emit emit) const {
    std::vector<Head> open;
    const auto later = [](const Head& a, const Head& b) {
      return a.value > b.value;
    };
    std::uint64_t next = 0;
    sim::Cycle next_value = size_ > 0 ? value(0, 0) : 0;
    for (;;) {
      if (next < bursts_ && (open.empty() || next_value < open.front().value)) {
        open.push_back({next_value, next, 0});
        std::push_heap(open.begin(), open.end(), later);
        if (++next < bursts_) {
          next_value = value(next, 0);
        }
        continue;
      }
      if (open.empty()) {
        return;
      }
      std::pop_heap(open.begin(), open.end(), later);
      Head head = open.back();
      open.pop_back();
      sim::Cycle bound = open.empty() ? ~sim::Cycle{0} : open.front().value;
      if (next < bursts_) {
        bound = std::min(bound, next_value);
      }
      const unsigned size = burst_size(head.burst);
      do {
        if (!emit(head.value)) {
          return;
        }
        if (++head.index == size) {
          break;
        }
        head.value = value(head.burst, head.index);
      } while (head.value <= bound);
      if (head.index < size) {
        open.push_back(head);
        std::push_heap(open.begin(), open.end(), later);
      }
    }
  }

 private:
  struct Head {
    sim::Cycle value;
    std::uint64_t burst;
    unsigned index;
  };

  [[nodiscard]] sim::Cycle value(std::uint64_t burst, unsigned index) const {
    const double base = offset_ + spacing_ * static_cast<double>(burst);
    const double at = base + static_cast<double>(index) * intra_gap_;
    return static_cast<sim::Cycle>(std::min(std::max(at, 0.0), run_end_));
  }

  [[nodiscard]] unsigned burst_size(std::uint64_t burst) const {
    return static_cast<unsigned>(
        std::min<std::uint64_t>(cluster_, size_ - burst * cluster_));
  }

  std::uint64_t size_ = 0;
  unsigned cluster_ = 1;
  std::uint64_t bursts_ = 0;
  double spacing_ = 0;
  double offset_ = 0;
  unsigned intra_gap_ = 0;
  double run_end_ = 0;
  sim::Cycle last_ = 0;
};

}  // namespace

std::vector<sim::Cycle> synthesize_cf_cycles(const BenchmarkStats& stats,
                                             const TraceParams& params) {
  const CfStream stream(stats, params);
  std::vector<sim::Cycle> cycles;
  cycles.reserve(stream.size());
  stream.run([&](sim::Cycle commit) {
    cycles.push_back(commit);
    return true;
  });
  return cycles;
}

namespace {

// Replays the trace through the service chain and stops once the final
// delay is certain to reach `limit`; `reached` tells whether it stopped.
cfi::OverheadResult replay_until(const BenchmarkStats& stats,
                                 const TraceParams& params,
                                 const cfi::OverheadConfig& config,
                                 sim::Cycle limit, bool& reached) {
  const CfStream stream(stats, params);
  cfi::ServiceChain chain(config);
  std::uint64_t remaining = stream.size();
  reached = false;
  stream.run([&](sim::Cycle commit) {
    chain.push(commit);
    reached = chain.delay_floor(--remaining, stream.last()) >= limit;
    return !reached;
  });
  return chain.finish(static_cast<sim::Cycle>(stats.cycles));
}

}  // namespace

cfi::OverheadResult replay(const BenchmarkStats& stats,
                           const TraceParams& params,
                           const cfi::OverheadConfig& config) {
  bool reached = false;
  return replay_until(stats, params, config, ~sim::Cycle{0}, reached);
}

bool exceeds(const BenchmarkStats& stats, const TraceParams& params,
             const cfi::OverheadConfig& config, double target) {
  // The replay exceeds the target exactly when its final delay reaches
  // exceeding_delay().
  const sim::Cycle limit =
      cfi::exceeding_delay(static_cast<sim::Cycle>(stats.cycles), target);
  bool reached = false;
  const cfi::OverheadResult result =
      replay_until(stats, params, config, limit, reached);
  return reached || result.slowdown_percent() > target;
}

namespace {

cfi::OverheadConfig model_config(std::uint32_t latency,
                                 std::size_t queue_depth) {
  cfi::OverheadConfig config;
  config.queue_depth = queue_depth;
  config.check_latency = latency;
  config.transport_cycles = 0;
  return config;
}

double predict_slowdown(const BenchmarkStats& stats, const TraceParams& params,
                        std::uint32_t latency, std::size_t queue_depth) {
  return replay(stats, params, model_config(latency, queue_depth))
      .slowdown_percent();
}

/// Bisect the window fraction so the depth-8 IRQ prediction matches the
/// published Table III IRQ value (monotone non-increasing in phi).
void fit_phi(const BenchmarkStats& stats, TraceParams& params) {
  if (stats.paper_irq <= 0) {
    params.window_fraction = 1.0;
    return;
  }
  const cfi::OverheadConfig config = model_config(kIrqLatency, 8);
  double lo = 1e-4;
  double hi = 1.0;
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = 0.5 * (lo + hi);
    params.window_fraction = mid;
    if (exceeds(stats, params, config, stats.paper_irq)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  params.window_fraction = 0.5 * (lo + hi);
}

}  // namespace

TraceParams calibrate(const BenchmarkStats& stats) {
  TraceParams params;
  params.cluster = 2;
  fit_phi(stats, params);

  // --- Fit the burst size -----------------------------------------------------
  // Preferred target: Table II's IRQ column (queue depth 1) — an entirely
  // separate experiment.  For benchmarks absent from Table II, fall back to
  // the Polling column of Table III, leaving Optimized as the untouched
  // cross-validation column (see EXPERIMENTS.md).
  const bool have_t2 = stats.in_table2() && stats.paper2_irq > 0;
  const bool have_poll = stats.paper_poll > 0;
  if (have_t2 || have_poll) {
    // fit_phi ignores the incoming window fraction, so the opening fit is
    // the grid's k=2 fit and the best trial needs no re-fit.
    const TraceParams opening = params;
    double best_error = 1e18;
    // Bursts longer than the 8-entry CFI Queue are what make the Polling /
    // Optimized firmware visible at depth 8, so the grid extends well past
    // the queue depth (deep call ladders are common in real traces).
    for (const unsigned k : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u,
                             64u, 96u, 128u}) {
      // A Table III "-" entry means the 8-deep queue absorbs every burst, so
      // bursts cannot be longer than the queue for those benchmarks.
      if (stats.paper_irq <= 0 && k > 8) {
        continue;
      }
      TraceParams trial = opening;
      trial.cluster = k;
      if (k != opening.cluster) {
        fit_phi(stats, trial);  // keep the IRQ column matched for every k
      }
      const double predicted =
          have_t2 ? predict_slowdown(stats, trial, kIrqLatency, 1)
                  : predict_slowdown(stats, trial, kPollingLatency, 8);
      const double target = have_t2 ? stats.paper2_irq : stats.paper_poll;
      const double error = std::abs(predicted - target);
      if (error < best_error) {
        best_error = error;
        params = trial;
      }
    }
  }
  return params;
}

}  // namespace titan::workloads
