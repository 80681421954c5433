// The four workloads.  Each calls only public surfaces of the program and
// times every call from outside; see README.md for why each one exists.
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "golden.hpp"
#include "loop.hpp"
#include "serve_client.hpp"
#include "serve_stream.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "api/api.hpp"
#include "firmware/table1.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/json.hpp"
#include "api/enforce.hpp"

namespace perfbench {

namespace {

namespace api = titan::api;

// ---- Fixed workload parameters ----------------------------------------------

/// Stall-bound registry grids run by cosim_stall.
const char* const kStallTags[] = {"fig1_liveness", "drain_study",
                                  "ablation_depth", "ablation_ss",
                                  "fault_matrix"};
/// serve_mixed: warm registry runs by name, and short attack runs.
const char* const kServeWarmTags[] = {"fig1_liveness", "fault_matrix"};
constexpr const char* kServeAttackTag = "attack_matrix";
/// Simulation workers of the served stack (plus poller, reaper, one client)
/// and client connections.  One of each keeps one request in flight, so a
/// single thread is busy at a time: with two of each, a shared host's
/// scheduling delays moved served throughput by a quarter between runs.
constexpr unsigned kServeThreads = 1;
constexpr unsigned kServeConnections = 1;
/// serve_mixed figures are medians over slices of this many blocks; a slice
/// holds 64 × 16 = 1024 requests, so its p99 has ≥ 10 samples beyond it.
constexpr std::size_t kServeSliceBlocks = 64;
/// serve_mixed stream length, not a request rate (the loop is closed):
/// blocks per requested second, chosen so that a run takes about
/// `--seconds` on a 2020s x86 core, rounded up to whole slices.
constexpr double kServeBlocksPerSecond = 120.0;
/// Blocks the traced serve run replays in process, call by call.
constexpr std::size_t kServeReplayBlocks = 100;
/// paper_tables times an op again, warm, when its first run is shorter than
/// this: a 25 µs point that follows a multi-second calibration runs on cold
/// caches, which is noise, not a property of the point.  Co-simulation ops
/// keep their first (cold) run, as a caller running a stream of different
/// scenarios sees it.
constexpr double kPaperWarmBelowUs = 1000.0;
/// One set-up sample lasts at least this long (short set-ups repeat).
constexpr double kSetupSampleUs = 5000.0;
constexpr int kSetupSamples = 21;

// ---- Metric catalogue (must match BENCHMARK.json) --------------------------

const std::vector<std::pair<const char*, const char*>>& e2e_catalogue() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"setup_s", "s"},           {"sim_mcycles_per_s", "Mcycles/s"},
      {"runs_per_s", "1/s"},      {"run_p50_us", "us"},
      {"run_p99_us", "us"},       {"peak_rss_mib", "MiB"},
      {"table1_error_pct", "%"},  {"heldout_error_pct", "%"},
  };
  return names;
}

const std::vector<std::pair<const char*, const char*>>& layer_catalogue() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"api.sim_us", "us"},
      {"api.make_soc_us", "us"},
      {"api.from_serialized_us", "us"},
      {"api.render_us", "us"},
      {"api.capture_us", "us"},
      {"sim.snapshot_bytes", "bytes"},
      {"sim.mem_accesses", "count"},
      {"sim.page_hit_ratio", "ratio"},
      {"titancfi.ns_per_sim_cycle", "ns"},
      {"titancfi.stall_share", "ratio"},
      {"titancfi.cf_logs", "count"},
      {"titancfi.doorbells", "count"},
      {"titancfi.batches", "count"},
      {"titancfi.dual_cf_stalls", "count"},
      {"titancfi.overhead_point_ms", "ms"},
      {"cva6.instructions", "count"},
      {"cva6.ipc", "instr/cycle"},
      {"cva6.ns_per_instruction", "ns"},
      {"cva6.decode_hit_ratio", "ratio"},
      {"ibex.instructions", "count"},
      {"ibex.instr_per_cf_log", "instr/log"},
      {"ibex.policy_us", "us"},
      {"crypto.hmac_starts", "count"},
      {"workloads.calibrate_ms", "ms"},
      {"serve.service_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.warm_hit_ratio", "ratio"},
      {"serve.errors", "count"},
      {"serve.shed", "count"},
      {"serve.attack_make_soc_share", "ratio"},
      {"host.ref_kernel_us", "us"},
      {"host.raw_sim_mcycles_per_s", "Mcycles/s"},
      {"host.raw_runs_per_s", "1/s"},
      {"host.raw_run_p50_us", "us"},
      {"host.trace_overhead_pct", "%"},
      {"host.hw_concurrency", "count"},
      {"host.threads", "count"},
  };
  return names;
}

using Values = std::map<std::string, double>;

std::vector<Metric> to_metrics(
    const std::vector<std::pair<const char*, const char*>>& catalogue,
    const Values& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : catalogue) {
    const auto it = values.find(name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") + name);
    }
    out.push_back({name, it->second, unit});
  }
  return out;
}

// ---- Host-time measurement ---------------------------------------------------

/// Median set-up time in seconds, in wall-clock time: set-up allocates and
/// chases pointers, and does not slow with the core contention the
/// reference kernel tracks, so dividing by the kernel made it no steadier
/// (see README.md).  After one untimed warm-up, each sample repeats the set-up
/// from scratch until it has lasted kSetupSampleUs; each repeat's state is
/// torn down untimed before the next starts, so every repeat sees the same
/// allocator state.  Leaves `state` holding the last set-up.
template <typename State, typename F>
double timed_setup_s(F&& setup, State& state) {
  state = setup();
  std::vector<double> samples;
  std::size_t total_reps = 0;
  for (int s = 0; s < kSetupSamples; ++s) {
    double total_us = 0.0;
    std::size_t reps = 0;
    while (reps == 0 || total_us < kSetupSampleUs) {
      const auto start = Clock::now();
      State fresh = setup();
      total_us += since_us(start);
      ++reps;
      state = std::move(fresh);
    }
    samples.push_back(total_us / static_cast<double>(reps) / 1e6);
    total_reps += reps;
  }
  std::printf("perfbench: set-up: %zu samples of %zu repeat(s) in all; "
              "min %.4g s, median %.4g s, max %.4g s\n",
              samples.size(), total_reps, quantile(samples, 0.0),
              median(samples), quantile(samples, 1.0));
  return median(samples);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
  }
  throw std::runtime_error("cannot read the thread count");
}

/// Binds the calling thread, and every thread it starts from now on, to the
/// highest-numbered hardware thread it may run on.  serve_mixed runs its
/// whole stack (client, poller, worker) and the reference kernel this way:
/// each hand-off is then a context switch on one hardware thread, not a
/// wake-up of an idle one elsewhere, whose delay on a shared VM depends on
/// the neighbours; and the kernel measures the very hardware thread the
/// requests run on.
void pin_to_one_cpu() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    throw std::runtime_error(std::string("sched_getaffinity: ") +
                             std::strerror(errno));
  }
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &mask)) {
    --cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error(std::string("sched_setaffinity: ") +
                             std::strerror(errno));
  }
  std::printf("perfbench: pinned to hardware thread %d\n", cpu);
}

/// Load-budget guard: the threads that can be busy at once, and the open
/// connections, must fit the machine, or the figures measure contention.
void check_load_budget(const std::string& workload, unsigned busy_threads,
                       unsigned connections, Values& layer) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("perfbench: %s load budget: %u busy thread(s), %u "
              "connection(s), hw_concurrency %u\n",
              workload.c_str(), busy_threads, connections, hw);
  if (busy_threads > hw || connections > hw) {
    throw std::runtime_error("load budget exceeded: " +
                             std::to_string(busy_threads) + " threads / " +
                             std::to_string(connections) +
                             " connections on " + std::to_string(hw) +
                             " hardware threads");
  }
  layer["host.hw_concurrency"] = hw;
  layer["host.threads"] = busy_threads;
}

// ---- Op loops -------------------------------------------------------------------

std::vector<std::vector<double>> by_kind(const std::vector<OpSample>& samples,
                                         std::size_t kinds, bool normalised) {
  std::vector<std::vector<double>> out(kinds);
  for (const OpSample& s : samples) {
    out[s.kind].push_back(normalised ? s.norm_us : s.raw_us);
  }
  return out;
}

struct Throughput {
  double mcycles_per_s = 0.0;
  double runs_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Σ simulated cycles over Σ per-kind median time, so the figure weighs each
/// kind once however often it ran.
Throughput pass_throughput(const PassRun& run,
                           const std::vector<double>& cycles_per_kind,
                           bool normalised) {
  const auto kinds = by_kind(run.samples, cycles_per_kind.size(), normalised);
  double time_us = 0.0;
  double cycles = 0.0;
  std::vector<double> all;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    time_us += median(kinds[k]);
    cycles += cycles_per_kind[k];
    all.insert(all.end(), kinds[k].begin(), kinds[k].end());
  }
  Throughput t;
  t.mcycles_per_s = cycles / time_us;
  t.runs_per_s = static_cast<double>(kinds.size()) / time_us * 1e6;
  t.p50_us = quantile(all, 0.50);
  t.p99_us = quantile(all, 0.99);
  return t;
}

void note_tail(const char* what, std::size_t samples) {
  std::printf("perfbench: %s: %zu samples; highest percentile with >=10 "
              "beyond: p%g\n",
              what, samples, tail_percentile(samples));
}

// ---- Paper tables ---------------------------------------------------------------

struct PaperCase {
  const char* name;
  titan::fw::RotVariant variant;
  titan::fw::OpCase op_case;
  double paper_cycles;  ///< Paper Table I total (IRQ + CFI) cycles.
};

constexpr PaperCase kTable1[] = {
    {"irq_call", titan::fw::RotVariant::kIrq, titan::fw::OpCase::kCall, 258},
    {"irq_ret", titan::fw::RotVariant::kIrq, titan::fw::OpCase::kReturn, 276},
    {"polling_call", titan::fw::RotVariant::kPolling,
     titan::fw::OpCase::kCall, 103},
    {"polling_ret", titan::fw::RotVariant::kPolling,
     titan::fw::OpCase::kReturn, 121},
    {"optimized_call", titan::fw::RotVariant::kOptimized,
     titan::fw::OpCase::kCall, 64},
    {"optimized_ret", titan::fw::RotVariant::kOptimized,
     titan::fw::OpCase::kReturn, 82},
};

/// One paper-table operation: a Table I case or a Table II/III point.
struct PaperOp {
  std::string name;
  const PaperCase* table1 = nullptr;
  const api::OverheadGrid* grid = nullptr;
  std::size_t index = 0;
};

struct PaperRow {
  std::string text;  ///< Canonical row, digested for the golden check.
  double sim_cycles = 0.0;
  double opt = 0.0, poll = 0.0, irq = 0.0;  // points
  double cycles = 0.0;                      // Table I total cycles
  double instructions = 0.0;                // Table I total instructions
};

struct PaperGrids {
  api::OverheadGrid table2 = api::OverheadGrid::table2();
  api::OverheadGrid table3 = api::OverheadGrid::table3();
};

std::vector<PaperOp> paper_ops(const PaperGrids& grids) {
  std::vector<PaperOp> ops;
  for (const PaperCase& c : kTable1) {
    ops.push_back({std::string("table1/") + c.name, &c, nullptr, 0});
  }
  for (const api::OverheadGrid* grid : {&grids.table2, &grids.table3}) {
    for (std::size_t i = 0; i < grid->size(); ++i) {
      ops.push_back({grid->bench() + "/" + std::string(grid->row(i).name),
                     nullptr, grid, i});
    }
  }
  return ops;
}

PaperRow exec_paper_op(const PaperOp& op, Tracer* tracer, std::uint32_t parent,
                       std::uint32_t op_id) {
  PaperRow row;
  char buffer[160];
  if (op.table1 != nullptr) {
    titan::fw::CostBreakdown cost;
    {
      const ScopedSpan span(tracer, "ibex.measure_policy_cost", parent, op_id);
      cost = titan::fw::measure_policy_cost(op.table1->variant,
                                            op.table1->op_case);
    }
    std::ostringstream text;
    for (const titan::fw::CostBucket& b :
         {cost.irq_logic, cost.irq_mem_rot, cost.irq_mem_soc, cost.cfi_logic,
          cost.cfi_mem_rot, cost.cfi_mem_soc}) {
      text << b.instructions << '/' << b.cycles << ' ';
    }
    row.text = text.str();
    row.cycles = static_cast<double>(cost.total().cycles);
    row.instructions = static_cast<double>(cost.total().instructions);
    row.sim_cycles = row.cycles;
    return row;
  }
  titan::workloads::TraceParams params;
  {
    const ScopedSpan span(tracer, "workloads.calibrate", parent, op_id);
    params = titan::workloads::calibrate(op.grid->row(op.index));
  }
  double* const columns[] = {&row.opt, &row.poll, &row.irq};
  const std::uint32_t latencies[] = {titan::workloads::kOptimizedLatency,
                                     titan::workloads::kPollingLatency,
                                     titan::workloads::kIrqLatency};
  const double baseline = op.grid->row(op.index).cycles;
  for (int c = 0; c < 3; ++c) {
    const ScopedSpan span(tracer, "titancfi.overhead_point", parent, op_id);
    *columns[c] = op.grid->slowdown(op.index, params, latencies[c]);
    row.sim_cycles += baseline * (1.0 + *columns[c] / 100.0);
  }
  std::snprintf(buffer, sizeof(buffer), "%.17g %.17g %.17g", row.opt, row.poll,
                row.irq);
  row.text = buffer;
  return row;
}

/// Mean relative error (%) of the Table I total cycles against the paper.
double table1_error_pct(const std::map<std::string, PaperRow>& rows) {
  double sum = 0.0;
  for (const PaperCase& c : kTable1) {
    const PaperRow& row = rows.at(std::string("table1/") + c.name);
    sum += std::abs(row.cycles - c.paper_cycles) / c.paper_cycles;
  }
  return 100.0 * sum / std::size(kTable1);
}

/// Mean relative error (%) of the Table III Polling and Optimized columns —
/// the columns calibration never fits — over the rows with published
/// Polling figures (an unpublished Optimized figure scores 0, as in
/// bench_table3).
double heldout_error_pct(const PaperGrids& grids,
                         const std::map<std::string, PaperRow>& rows) {
  double sum = 0.0;
  int scored = 0;
  for (std::size_t i = 0; i < grids.table3.size(); ++i) {
    const auto& stats = grids.table3.row(i);
    if (stats.paper_poll <= 0) {
      continue;
    }
    const PaperRow& row = rows.at("table3/" + std::string(stats.name));
    sum += std::abs(row.poll - stats.paper_poll) / stats.paper_poll;
    if (stats.paper_opt > 0) {
      sum += std::abs(row.opt - stats.paper_opt) / stats.paper_opt;
    }
    ++scored;
  }
  return 100.0 * sum / (2.0 * scored);
}

/// Digest of the running binary: keys the per-build accuracy cache.
std::string binary_digest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in) {
    throw std::runtime_error("cannot read the running binary");
  }
  return digest(bytes.str());
}

/// Accuracy figures for the workloads that do not run the tables.  They are
/// a pure function of the built program, so the first such run of a build
/// computes Table I and the scored Table III rows (golden-checked, after
/// the timed window and after peak RSS is read) and caches the two figures
/// in `out_dir`, keyed by a digest of the binary; later runs of the same
/// build read them.  Either way the pair counts as one attempted op, failed
/// when a computed row differs from its golden (a failed pair is never
/// cached), so every run of a build counts it alike.
void add_accuracy(const Options& options, const GoldenSet& tables,
                  Values& e2e, Result& result) {
  ++result.attempted;
  const std::string path =
      options.out_dir + "/accuracy-" + binary_digest() + ".txt";
  double table1 = 0.0;
  double heldout = 0.0;
  if (std::ifstream cached(path); cached >> table1 >> heldout) {
    e2e["table1_error_pct"] = table1;
    e2e["heldout_error_pct"] = heldout;
    return;
  }
  const PaperGrids grids;
  std::map<std::string, PaperRow> rows;
  bool failed = false;
  for (const PaperOp& op : paper_ops(grids)) {
    const bool scored = op.table1 != nullptr ||
                        (op.grid == &grids.table3 &&
                         op.grid->row(op.index).paper_poll > 0);
    if (!scored) {
      continue;
    }
    const PaperRow row = exec_paper_op(op, nullptr, 0, 0);
    failed = failed || !tables.matches(op.name, row.text);
    rows[op.name] = row;
  }
  table1 = table1_error_pct(rows);
  heldout = heldout_error_pct(grids, rows);
  e2e["table1_error_pct"] = table1;
  e2e["heldout_error_pct"] = heldout;
  if (failed) {
    ++result.failed;
  } else {
    const std::string partial = path + ".tmp";
    std::ofstream(partial) << std::setprecision(17) << table1 << ' '
                           << heldout << '\n';
    std::rename(partial.c_str(), path.c_str());
  }
}

// ---- Co-simulation workloads ----------------------------------------------------

struct Goldens {
  GoldenSet reports;
  GoldenSet tables;
};

std::vector<api::Scenario> stall_scenarios() {
  std::vector<api::Scenario> out;
  for (const char* tag : kStallTags) {
    for (const api::Scenario& s :
         api::ScenarioRegistry::global().query(tag, "perfbench")) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<api::Scenario> compute_scenarios() {
  const std::pair<const char*, api::Workload> hosts[] = {
      {"compute/stats64", api::Workload::stats(64)},
      {"compute/stats256", api::Workload::stats(256)},
      {"compute/matmul12", api::Workload::matmul(12)},
      {"compute/crc32_512", api::Workload::crc32(512)},
      {"compute/crc32_2048", api::Workload::crc32(2048)},
  };
  std::vector<api::Scenario> out;
  for (const auto& [name, workload] : hosts) {
    out.push_back(api::ScenarioBuilder().name(name).workload(workload).build());
  }
  return out;
}

/// Set-up of a co-simulation workload: rebuild every scenario from its
/// serialized form (the same validation a wire spec gets) and construct its
/// SoC once.
std::vector<api::Scenario> build_scenarios(
    const std::vector<std::string>& specs) {
  std::vector<api::Scenario> out;
  out.reserve(specs.size());
  for (const std::string& spec : specs) {
    out.push_back(api::ScenarioBuilder::from_serialized(spec));
    (void)out.back().make_soc();
  }
  return out;
}

struct CosimRun {
  PassRun pass;
  std::vector<api::RunReport> reports;  ///< First report of each kind.
  std::vector<double> cycles;           ///< Per kind.
};

CosimRun run_cosim(const std::vector<api::Scenario>& scenarios,
                   const Options& options, double seconds, Pacer& pacer,
                   Tracer* tracer, std::uint32_t& next_op,
                   const Goldens& goldens) {
  CosimRun run;
  run.reports.resize(scenarios.size());
  std::vector<bool> have(scenarios.size(), false);
  api::RunReport report;
  std::string rendered;
  bool ok = false;
  run.pass = run_passes(
      scenarios.size(), options.seed, seconds, 0.0, pacer, tracer, next_op,
      [&](std::size_t kind, std::uint32_t op, std::uint32_t parent) {
        ok = false;
        const api::Scenario& scenario = scenarios[kind];
        if (tracer != nullptr) {
          const ScopedSpan span(tracer, "api.make_soc", parent, op);
          (void)scenario.make_soc();
        }
        {
          const ScopedSpan span(tracer, "api.run_scenario", parent, op);
          report = api::run_scenario(scenario);
        }
        if (tracer != nullptr) {
          const ScopedSpan span(tracer, "api.render", parent, op);
          rendered = api::ReportSchema().render(report);
        }
        ok = true;
      },
      [&](std::size_t kind) {
        if (!ok) {
          return false;
        }
        if (tracer == nullptr) {
          rendered = api::ReportSchema().render(report);
        }
        if (!have[kind]) {
          run.reports[kind] = report;
          have[kind] = true;
        }
        return goldens.reports.matches(scenarios[kind].name(), rendered);
      });
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    run.cycles.push_back(static_cast<double>(run.reports[k].cycles));
  }
  return run;
}

/// Simulated counters of `reports`, scaled by `per` (1 == per pass), and
/// the per-cycle and per-instruction host costs of `sim_total_ns`.
void counter_layers(const std::vector<api::RunReport>& reports, double per,
                    double sim_total_ns, Values& layer) {
  double cycles = 0, instructions = 0, stalls = 0, cf_logs = 0, doorbells = 0,
         batches = 0, dual = 0, rot = 0, hmac = 0, mem = 0, page_hits = 0,
         page_misses = 0, decode_hits = 0, decode_misses = 0;
  for (const api::RunReport& r : reports) {
    cycles += r.cycles;
    instructions += r.instructions;
    stalls += r.queue_full_stalls;
    cf_logs += r.cf_logs;
    doorbells += r.doorbells;
    batches += r.batches;
    dual += r.dual_cf_stalls;
    rot += r.rot_instructions;
    hmac += r.rot_hmac_starts;
    mem += r.host_memory.reads + r.host_memory.writes + r.host_memory.fetches;
    page_hits += r.host_memory.page_cache_hits;
    page_misses += r.host_memory.page_cache_misses;
    decode_hits += r.decode_hits;
    decode_misses += r.decode_misses;
  }
  layer["titancfi.ns_per_sim_cycle"] = sim_total_ns / cycles;
  layer["titancfi.stall_share"] = stalls / cycles;
  layer["titancfi.cf_logs"] = cf_logs * per;
  layer["titancfi.doorbells"] = doorbells * per;
  layer["titancfi.batches"] = batches * per;
  layer["titancfi.dual_cf_stalls"] = dual * per;
  layer["cva6.instructions"] = instructions * per;
  layer["cva6.ipc"] = instructions / cycles;
  layer["cva6.ns_per_instruction"] = sim_total_ns / instructions;
  layer["cva6.decode_hit_ratio"] = decode_hits / (decode_hits + decode_misses);
  layer["ibex.instructions"] = rot * per;
  layer["ibex.instr_per_cf_log"] = cf_logs > 0 ? rot / cf_logs : 0.0;
  layer["crypto.hmac_starts"] = hmac * per;
  layer["sim.mem_accesses"] = mem * per;
  layer["sim.page_hit_ratio"] = page_hits / (page_hits + page_misses);
}

/// Timing splits of a traced co-simulation run, and its per-pass counters.
void cosim_layers(const CosimRun& run, const Tracer& tracer, Values& layer) {
  const std::size_t kinds = run.reports.size();
  const auto make_soc = tracer.durations("api.make_soc");
  const auto sim = tracer.durations("api.run_scenario");
  const auto render = tracer.durations("api.render");
  std::vector<std::vector<double>> sim_k(kinds), make_k(kinds), render_k(kinds);
  for (const OpSample& s : run.pass.samples) {
    make_k[s.kind].push_back(make_soc.at(s.op));
    sim_k[s.kind].push_back(sim.at(s.op) - make_soc.at(s.op));
    render_k[s.kind].push_back(render.at(s.op));
  }
  const double sim_us = mean_of_kind_medians(sim_k);
  layer["api.sim_us"] = sim_us;
  layer["api.make_soc_us"] = mean_of_kind_medians(make_k);
  layer["api.render_us"] = mean_of_kind_medians(render_k);
  counter_layers(run.reports, 1.0,
                 sim_us * static_cast<double>(kinds) * 1000.0, layer);
}

// ---- Served workload --------------------------------------------------------------

/// The in-process daemon: lazy warm mode, kServeThreads simulation workers,
/// an ephemeral loopback port.
struct ServeStack {
  titan::serve::MetricsRegistry metrics;
  titan::serve::ScenarioService service;
  titan::serve::Server server;

  ServeStack()
      : service(titan::serve::ScenarioService::Options{}, metrics),
        server(server_options(), service) {}

  static titan::serve::Server::Options server_options() {
    titan::serve::Server::Options options;
    options.threads = kServeThreads;
    return options;
  }
};

int http_status(const std::string& response) {
  // "HTTP/1.x NNN ..."
  if (response.size() < 12) {
    return 0;
  }
  return std::atoi(response.c_str() + 9);
}

struct Scraped {
  double errors = 0, shed = 0, cache_hits = 0, cache_misses = 0;
};

Scraped scrape_metrics(std::uint16_t port) {
  const std::string page = http_get(port, "/metrics");
  std::istringstream lines(page.substr(page.find("\r\n\r\n") + 4));
  std::map<std::string, double> counters;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space != std::string::npos) {
      counters[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
    }
  }
  Scraped s;
  s.errors = counters["titand_errors_total"];
  s.shed = counters["titand_shed_total"];
  s.cache_hits = counters["titand_checkpoint_cache_hits_total"];
  s.cache_misses = counters["titand_checkpoint_cache_misses_total"];
  return s;
}

struct ServeRun {
  /// Per-request latency, in stream order.
  std::vector<double> latency_raw_us, latency_norm_us;
  /// Σ block time of each slice of kServeSliceBlocks blocks.
  std::vector<double> slice_raw_us, slice_norm_us;
  double cycles = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  Scraped scraped;
};

/// The response line to one request; throws after 30 s of silence.
std::string await_line(LineConnection& conn) {
  std::string line;
  while (!conn.pop_line(line)) {
    pollfd fd{conn.fd(), POLLIN, 0};
    const int ready = ::poll(&fd, 1, 30000);
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      throw std::runtime_error("daemon did not answer within 30 s");
    }
    conn.fill();
  }
  return line;
}

/// Closed loop, one client thread, one persistent connection: the next
/// request goes out when the previous response arrives.  `blocks` must be
/// whole slices.  The reference kernel runs only between blocks, while no
/// request is outstanding: `pacer` must be bracket-only, or the kernel
/// would take the hardware thread from the stack it is meant to yardstick.
ServeRun run_serve_client(ServeStack& stack,
                          const std::vector<std::vector<ServeRequest>>& blocks,
                          Pacer& pacer, Tracer* tracer, std::uint32_t& next_op,
                          const Goldens& goldens, const std::string& workload,
                          Values& layer) {
  const std::uint16_t port = stack.server.port();
  LineConnection conn(port);
  // The deadline reaper only wakes for requests carrying a deadline, and
  // none of these does, so it is not counted as busy.
  check_load_budget(workload, process_threads() - 1, kServeConnections,
                    layer);

  ServeRun run;
  std::size_t request_id = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<ServeRequest>& block = blocks[b];
    const std::size_t n = block.size();
    std::vector<double> latency(n);
    std::vector<std::string> responses(n);
    const std::uint32_t first_op = next_op + 1;
    next_op += static_cast<std::uint32_t>(n);
    const auto [raw, factor] = pacer.time([&] {
      for (std::size_t r = 0; r < n; ++r) {
        const std::uint32_t span =
            tracer != nullptr
                ? tracer->begin("serve.request", 0,
                                first_op + static_cast<std::uint32_t>(r))
                : 0;
        const auto sent = Clock::now();
        conn.send_line(block[r].frame(request_id + r));
        responses[r] = await_line(conn);
        latency[r] = since_us(sent);
        if (tracer != nullptr) {
          tracer->end(span);
        }
      }
    });
    request_id += n;
    if (b % kServeSliceBlocks == 0) {
      run.slice_raw_us.push_back(0.0);
      run.slice_norm_us.push_back(0.0);
    }
    run.slice_raw_us.back() += raw;
    run.slice_norm_us.back() += raw * factor;
    for (std::size_t r = 0; r < n; ++r) {
      if (tracer != nullptr) {
        tracer->set_op_factor(first_op + static_cast<std::uint32_t>(r),
                              factor);
      }
      run.latency_raw_us.push_back(latency[r]);
      run.latency_norm_us.push_back(latency[r] * factor);
      double cycles = 0.0;
      ++run.attempted;
      if (served_output_matches(responses[r], block[r].name,
                                goldens.reports, &cycles)) {
        run.cycles += cycles;
      } else {
        ++run.failed;
      }
    }
  }
  run.scraped = scrape_metrics(port);
  return run;
}

ServeMix serve_mix() {
  ServeMix mix;
  for (const char* tag : kServeWarmTags) {
    for (const api::Scenario& s :
         api::ScenarioRegistry::global().query(tag, "perfbench")) {
      mix.warm.push_back(s.name());
    }
  }
  for (const api::Scenario& s :
       api::ScenarioRegistry::global().query(kServeAttackTag, "perfbench")) {
    mix.attack.push_back(s.name());
  }
  mix.pool = spec_pool();
  return mix;
}

/// Set-up of serve_mixed: build every named scenario of the mix and its SoC,
/// start the daemon, and wait until /readyz answers 200.
std::unique_ptr<ServeStack> serve_setup(const std::vector<std::string>& specs) {
  (void)build_scenarios(specs);
  auto stack = std::make_unique<ServeStack>();
  stack->server.start();
  stack->server.set_ready();
  while (http_status(http_get(stack->server.port(), "/readyz")) != 200) {
    std::this_thread::yield();
  }
  return stack;
}

std::vector<std::string> serve_named_specs(const ServeMix& mix) {
  std::vector<std::string> specs;
  for (const auto* names : {&mix.warm, &mix.attack}) {
    for (const std::string& name : *names) {
      specs.push_back(api::ScenarioRegistry::global().find(name)->serialize());
    }
  }
  return specs;
}

std::size_t serve_blocks(double seconds) {
  const auto slices = static_cast<std::size_t>(std::ceil(
      seconds * kServeBlocksPerSecond / static_cast<double>(kServeSliceBlocks)));
  return std::max<std::size_t>(1, slices) * kServeSliceBlocks;
}

/// Medians over slices, so a burst of host load that slows a few slices
/// does not move the figures: requests / slice time, and each slice's p50
/// and p99.  Cycles follow requests at the run's mean cycles per request.
Throughput serve_throughput(const ServeRun& r, bool normalised) {
  const auto& slice_us = normalised ? r.slice_norm_us : r.slice_raw_us;
  const auto& latency = normalised ? r.latency_norm_us : r.latency_raw_us;
  const std::size_t per_slice = latency.size() / slice_us.size();
  std::vector<double> rate, p50, p99;
  for (std::size_t s = 0; s < slice_us.size(); ++s) {
    const auto first = latency.begin() + static_cast<std::ptrdiff_t>(s * per_slice);
    const std::vector<double> part(
        first, first + static_cast<std::ptrdiff_t>(per_slice));
    rate.push_back(static_cast<double>(per_slice) / slice_us[s] * 1e6);
    p50.push_back(quantile(part, 0.50));
    p99.push_back(quantile(part, 0.99));
  }
  Throughput t;
  t.runs_per_s = median(rate);
  t.mcycles_per_s =
      t.runs_per_s * r.cycles / static_cast<double>(latency.size()) / 1e6;
  t.p50_us = median(p50);
  t.p99_us = median(p99);
  return t;
}

/// Traced replay: each request over the wire to `stack` (a fresh daemon),
/// then in process through a fresh ScenarioService, then again call by call
/// through the api layer, each call in its own span.  Daemon and service
/// see the same requests in the same order, so they do the same work, and
/// the served latency minus handle_line time, taken moments apart, is the
/// request's transport time.
void serve_replay(const std::vector<std::vector<ServeRequest>>& blocks,
                  ServeStack& stack, Pacer& pacer, Tracer& tracer,
                  std::uint32_t& next_op, const Goldens& goldens,
                  Result& result, Values& layer) {
  titan::serve::MetricsRegistry metrics;
  titan::serve::ScenarioService service(
      titan::serve::ScenarioService::Options{}, metrics);
  LineConnection conn(stack.server.port());
  std::map<std::string, std::shared_ptr<const titan::sim::Snapshot>> cache;
  std::vector<double> blob_bytes;
  std::vector<double> served_us;
  std::vector<std::uint32_t> ops;
  std::vector<ServeRequest::Kind> kinds;
  std::vector<api::RunReport> reports;
  std::size_t request_id = 0;
  for (const std::vector<ServeRequest>& block : blocks) {
    for (const ServeRequest& request : block) {
      std::string served;
      const auto [wire_raw, wire_factor] = pacer.time([&] {
        conn.send_line(request.frame(request_id));
        served = await_line(conn);
      });
      const std::uint32_t op = ++next_op;
      std::string response;
      std::string rendered;
      api::RunReport report;
      bool threw = false;
      const auto [raw, factor] = pacer.time([&] {
        const ScopedSpan root(&tracer, "bench.op", 0, op);
        try {
          {
            const ScopedSpan span(&tracer, "serve.handle_line", root.id(), op);
            response = service.handle_line(request.frame(request_id));
          }
          std::optional<api::Scenario> scenario;
          if (request.kind == ServeRequest::Kind::kSpec) {
            const ScopedSpan span(&tracer, "api.from_serialized", root.id(),
                                  op);
            scenario = api::ScenarioBuilder::from_serialized(request.spec);
          } else {
            scenario = *api::ScenarioRegistry::global().find(request.name);
          }
          {
            const ScopedSpan span(&tracer, "api.make_soc", root.id(), op);
            (void)scenario->make_soc();
          }
          auto& snapshot = cache[request.name];
          if (snapshot == nullptr) {
            {
              const ScopedSpan span(&tracer, "api.capture_checkpoint",
                                    root.id(), op);
              snapshot =
                  api::capture_checkpoint(*scenario, api::kDefaultWarmupCycle);
            }
            const ScopedSpan span(&tracer, "sim.snapshot_to_blob", root.id(),
                                  op);
            blob_bytes.push_back(
                static_cast<double>(snapshot->to_blob().size()));
          }
          {
            const ScopedSpan span(&tracer, "api.run_scenario", root.id(), op);
            report = api::run_scenario(scenario->with_warm_start(snapshot));
          }
          const ScopedSpan span(&tracer, "api.render", root.id(), op);
          rendered = api::ReportSchema().render(report);
        } catch (const std::exception& error) {
          std::printf("perfbench: replay op %u failed: %s\n", op, error.what());
          threw = true;
        }
      });
      tracer.set_op_factor(op, factor);
      ++request_id;
      ++result.attempted;
      double cycles = 0.0;
      if (threw ||
          !served_output_matches(served, request.name, goldens.reports,
                                 &cycles) ||
          !served_output_matches(response, request.name, goldens.reports,
                                 &cycles) ||
          !goldens.reports.matches(request.name, rendered)) {
        ++result.failed;
        continue;
      }
      served_us.push_back(wire_raw * wire_factor);
      ops.push_back(op);
      kinds.push_back(request.kind);
      reports.push_back(report);
    }
  }

  const auto handle = tracer.durations("serve.handle_line");
  const auto parse = tracer.durations("api.from_serialized");
  const auto make_soc = tracer.durations("api.make_soc");
  const auto capture = tracer.durations("api.capture_checkpoint");
  const auto sim = tracer.durations("api.run_scenario");
  const auto render = tracer.durations("api.render");
  const auto pick = [&ops](const std::map<std::uint32_t, double>& by_op) {
    std::vector<double> out;
    for (const std::uint32_t op : ops) {
      const auto it = by_op.find(op);
      if (it != by_op.end()) {
        out.push_back(it->second);
      }
    }
    return out;
  };
  std::vector<double> sim_only, transport;
  std::vector<double> attack_make, attack_handle;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    sim_only.push_back(sim.at(ops[i]) - make_soc.at(ops[i]));
    transport.push_back(served_us[i] - handle.at(ops[i]));
    if (kinds[i] == ServeRequest::Kind::kAttack) {
      attack_make.push_back(make_soc.at(ops[i]));
      attack_handle.push_back(handle.at(ops[i]));
    }
  }
  layer["serve.service_us"] = median(pick(handle));
  layer["serve.transport_us"] = median(transport);
  layer["api.from_serialized_us"] = median(pick(parse));
  layer["api.make_soc_us"] = median(pick(make_soc));
  layer["api.capture_us"] = median(pick(capture));
  layer["api.sim_us"] = median(sim_only);
  layer["api.render_us"] = median(pick(render));
  layer["sim.snapshot_bytes"] = median(blob_bytes);
  layer["serve.attack_make_soc_share"] =
      median(attack_make) / median(attack_handle);

  // Simulated counters per block of the replayed stream.
  double sim_total_us = 0.0;
  for (const double us : sim_only) {
    sim_total_us += us;
  }
  counter_layers(reports, 1.0 / static_cast<double>(blocks.size()),
                 sim_total_us * 1000.0, layer);
}

// ---- Workload entry points ---------------------------------------------------

Goldens load_goldens(const Options& options) {
  return {GoldenSet::load(options.golden_dir + "/reports.txt"),
          GoldenSet::load(options.golden_dir + "/tables.txt")};
}

Values zero_layers() {
  Values layer;
  for (const auto& [name, unit] : layer_catalogue()) {
    layer[name] = 0.0;
  }
  return layer;
}

void write_trace(const Options& options, const Tracer& tracer) {
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  tracer.write(path);
  std::printf("perfbench: %zu spans written to %s\n", tracer.spans().size(),
              path.c_str());
}

/// Fills the timed end-to-end figures and peak RSS.  Call it before
/// add_accuracy, whose first run of a build computes tables in this process.
void fill_e2e(Result& result, Values& e2e, Pacer& pacer,
              const Throughput& norm, const Throughput& raw) {
  e2e["sim_mcycles_per_s"] = norm.mcycles_per_s;
  e2e["runs_per_s"] = norm.runs_per_s;
  e2e["run_p50_us"] = norm.p50_us;
  e2e["run_p99_us"] = norm.p99_us;
  e2e["peak_rss_mib"] = peak_rss_mib();
  result.raw = {{"host.ref_kernel_us", pacer.kernel_median(), "us"},
                {"host.raw_sim_mcycles_per_s", raw.mcycles_per_s, "Mcycles/s"},
                {"host.raw_runs_per_s", raw.runs_per_s, "1/s"},
                {"host.raw_run_p50_us", raw.p50_us, "us"}};
}

void raw_layers(Values& layer, Pacer& pacer, const Throughput& raw,
                const Throughput& untraced, const Throughput& traced) {
  layer["host.ref_kernel_us"] = pacer.kernel_median();
  layer["host.raw_sim_mcycles_per_s"] = raw.mcycles_per_s;
  layer["host.raw_runs_per_s"] = raw.runs_per_s;
  layer["host.raw_run_p50_us"] = raw.p50_us;
  layer["host.trace_overhead_pct"] =
      (untraced.runs_per_s / traced.runs_per_s - 1.0) * 100.0;
}

Result run_cosim_workload(const Options& options,
                          const std::vector<api::Scenario>& registry_form) {
  const Goldens goldens = load_goldens(options);
  std::vector<std::string> specs;
  for (const api::Scenario& s : registry_form) {
    specs.push_back(s.serialize());
  }
  Pacer pacer;
  Result result;
  Values e2e;
  Values layer = zero_layers();
  std::vector<api::Scenario> scenarios;
  e2e["setup_s"] = timed_setup_s(
      [&] { return build_scenarios(specs); }, scenarios);
  check_load_budget(options.workload, process_threads(), 0, layer);

  std::uint32_t next_op = 0;
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const CosimRun run = run_cosim(scenarios, options, untraced_s, pacer,
                                 nullptr, next_op, goldens);
  result.attempted += run.pass.attempted;
  result.failed += run.pass.failed;
  const Throughput norm = pass_throughput(run.pass, run.cycles, true);
  const Throughput raw = pass_throughput(run.pass, run.cycles, false);
  note_tail("ops", run.pass.samples.size());
  std::printf("perfbench: %zu pass(es)\n", run.pass.passes);

  if (!options.trace) {
    fill_e2e(result, e2e, pacer, norm, raw);
    add_accuracy(options, goldens.tables, e2e, result);
    result.metrics = to_metrics(e2e_catalogue(), e2e);
    return result;
  }
  Tracer tracer;
  const CosimRun traced = run_cosim(scenarios, options, options.seconds / 2,
                                    pacer, &tracer, next_op, goldens);
  result.attempted += traced.pass.attempted;
  result.failed += traced.pass.failed;
  cosim_layers(traced, tracer, layer);
  raw_layers(layer, pacer, raw, norm,
             pass_throughput(traced.pass, traced.cycles, true));
  write_trace(options, tracer);
  result.metrics = to_metrics(layer_catalogue(), layer);
  return result;
}

Result run_paper_tables(const Options& options) {
  const Goldens goldens = load_goldens(options);
  Pacer pacer;
  Result result;
  Values e2e;
  Values layer = zero_layers();
  std::unique_ptr<PaperGrids> grids;
  std::vector<PaperOp> ops;
  e2e["setup_s"] = timed_setup_s(
      [] { return std::make_unique<PaperGrids>(); }, grids);
  ops = paper_ops(*grids);
  check_load_budget(options.workload, process_threads(), 0, layer);

  std::map<std::string, PaperRow> rows;
  std::vector<double> sim_cycles(ops.size());
  PaperRow last;
  const auto measure = [&](double seconds, Tracer* tracer,
                           std::uint32_t& next_op) {
    return run_passes(
        ops.size(), options.seed, seconds, kPaperWarmBelowUs, pacer, tracer,
        next_op,
        [&](std::size_t kind, std::uint32_t op, std::uint32_t parent) {
          last = exec_paper_op(ops[kind], tracer, parent, op);
        },
        [&](std::size_t kind) {
          rows[ops[kind].name] = last;
          sim_cycles[kind] = last.sim_cycles;
          return goldens.tables.matches(ops[kind].name, last.text);
        });
  };

  std::uint32_t next_op = 0;
  const PassRun run =
      measure(options.trace ? options.seconds / 2 : options.seconds, nullptr,
              next_op);
  result.attempted += run.attempted;
  result.failed += run.failed;
  const Throughput norm = pass_throughput(run, sim_cycles, true);
  const Throughput raw = pass_throughput(run, sim_cycles, false);
  note_tail("ops", run.samples.size());
  std::printf("perfbench: %zu pass(es)\n", run.passes);

  if (!options.trace) {
    e2e["table1_error_pct"] = table1_error_pct(rows);
    e2e["heldout_error_pct"] = heldout_error_pct(*grids, rows);
    fill_e2e(result, e2e, pacer, norm, raw);
    result.metrics = to_metrics(e2e_catalogue(), e2e);
    return result;
  }
  Tracer tracer;
  const PassRun traced = measure(options.seconds / 2, &tracer, next_op);
  result.attempted += traced.attempted;
  result.failed += traced.failed;

  const auto per_kind_mean = [&](std::string_view span_name, double per) {
    const auto by_op = tracer.durations(span_name);
    std::vector<std::vector<double>> k(ops.size());
    for (const OpSample& s : traced.samples) {
      const auto it = by_op.find(s.op);
      if (it != by_op.end()) {
        k[s.kind].push_back(it->second / per);
      }
    }
    return mean_of_kind_medians(k);
  };
  layer["ibex.policy_us"] = per_kind_mean("ibex.measure_policy_cost", 1.0);
  layer["workloads.calibrate_ms"] = per_kind_mean("workloads.calibrate", 1e3);
  layer["titancfi.overhead_point_ms"] =
      per_kind_mean("titancfi.overhead_point", 3e3);
  double instructions = 0.0;
  for (const PaperCase& c : kTable1) {
    instructions += rows.at(std::string("table1/") + c.name).instructions;
  }
  layer["ibex.instructions"] = instructions;
  raw_layers(layer, pacer, raw, norm,
             pass_throughput(traced, sim_cycles, true));
  write_trace(options, tracer);
  result.metrics = to_metrics(layer_catalogue(), layer);
  return result;
}

Result run_serve_mixed(const Options& options) {
  const Goldens goldens = load_goldens(options);
  const ServeMix mix = serve_mix();
  const std::vector<std::string> named = serve_named_specs(mix);
  Result result;
  Values e2e;
  Values layer = zero_layers();
  std::unique_ptr<ServeStack> stack;
  pin_to_one_cpu();
  e2e["setup_s"] =
      timed_setup_s([&] { return serve_setup(named); }, stack);
  Pacer pacer([] { return ref_kernel_us(); });

  const auto stream = serve_stream(
      mix, options.seed,
      serve_blocks(options.trace ? options.seconds / 2 : options.seconds));
  std::uint32_t next_op = 0;
  const ServeRun run = run_serve_client(*stack, stream, pacer, nullptr, next_op,
                                        goldens, options.workload, layer);
  stack.reset();
  result.attempted += run.attempted;
  result.failed += run.failed;
  const Throughput norm = serve_throughput(run, true);
  const Throughput raw = serve_throughput(run, false);
  std::printf("perfbench: %zu slices of %zu blocks\n", run.slice_norm_us.size(),
              kServeSliceBlocks);
  note_tail("requests per slice", kServeSliceBlocks * kBlockRequests);

  if (!options.trace) {
    fill_e2e(result, e2e, pacer, norm, raw);
    add_accuracy(options, goldens.tables, e2e, result);
    result.metrics = to_metrics(e2e_catalogue(), e2e);
    return result;
  }
  Tracer tracer;
  stack = serve_setup(named);
  const ServeRun traced = run_serve_client(
      *stack, stream, pacer, &tracer, next_op, goldens, options.workload,
      layer);
  stack.reset();
  result.attempted += traced.attempted;
  result.failed += traced.failed;
  const std::vector<std::vector<ServeRequest>> replay(
      stream.begin(),
      stream.begin() + static_cast<std::ptrdiff_t>(
                           std::min(kServeReplayBlocks, stream.size())));
  stack = serve_setup(named);
  serve_replay(replay, *stack, pacer, tracer, next_op, goldens, result, layer);
  stack.reset();
  const double lookups = run.scraped.cache_hits + run.scraped.cache_misses;
  layer["serve.warm_hit_ratio"] =
      lookups > 0 ? run.scraped.cache_hits / lookups : 0.0;
  layer["serve.errors"] = run.scraped.errors;
  layer["serve.shed"] = run.scraped.shed;
  raw_layers(layer, pacer, raw, norm, serve_throughput(traced, true));
  write_trace(options, tracer);
  result.metrics = to_metrics(layer_catalogue(), layer);
  return result;
}

}  // namespace

Result run_workload(const Options& options) {
  if (options.workload == "cosim_stall") {
    return run_cosim_workload(options, stall_scenarios());
  }
  if (options.workload == "cosim_compute") {
    return run_cosim_workload(options, compute_scenarios());
  }
  if (options.workload == "serve_mixed") {
    return run_serve_mixed(options);
  }
  if (options.workload == "paper_tables") {
    return run_paper_tables(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

void write_goldens(const std::string& dir) {
  GoldenSet reports;
  const auto add_report = [&reports](const api::Scenario& scenario) {
    const api::RunReport report =
        api::run_scenario(scenario.with_engine(api::Engine::kLockStep));
    reports.add(scenario.name(),
                digest(api::ReportSchema().render(report)));
  };
  for (const auto& set : {stall_scenarios(), compute_scenarios()}) {
    for (const api::Scenario& s : set) {
      add_report(s);
    }
  }
  const ServeMix mix = serve_mix();
  for (const auto* names : {&mix.warm, &mix.attack}) {
    for (const std::string& name : *names) {
      add_report(*api::ScenarioRegistry::global().find(name));
    }
  }
  for (const std::uint64_t program : mix.pool) {
    add_report(api::ScenarioBuilder::from_serialized(spec_text(program)));
  }
  reports.save(dir + "/reports.txt");

  GoldenSet tables;
  const PaperGrids grids;
  for (const PaperOp& op : paper_ops(grids)) {
    tables.add(op.name, digest(exec_paper_op(op, nullptr, 0, 0).text));
  }
  tables.save(dir + "/tables.txt");
  std::printf("perfbench: wrote %zu report and %zu table goldens to %s\n",
              reports.size(), tables.size(), dir.c_str());
}

}  // namespace perfbench
