// Thread-pooled sweep engine for independent simulation points.
//
// Every table/figure bench in this repo evaluates a grid of (workload,
// queue-depth, policy, fabric) points, and each point is an independent
// simulation — embarrassingly parallel host-side work.  SweepRunner shards
// the index space across a pool of worker threads and aggregates results
// *by index*, so the output is deterministic and byte-identical to a serial
// run at any thread count (jobs must be pure functions of their index: own
// your Memory/SocTop/Rng per job, which every bench here already does).
//
// Design points:
//  * job sharding via an atomic cursor — long and short points interleave
//    without static partitioning imbalance;
//  * ordered aggregation — worker completion order never leaks into output;
//  * exception safety — the first failing index's exception is rethrown on
//    the calling thread after the pool drains (matching serial semantics:
//    the lowest failing index wins, not the first to fail in wall time);
//  * threads == 1 runs inline on the calling thread (no pool, no atomics in
//    the hot path), which is both the fallback and the reference behaviour.
//
// JsonWriter is the shared emitter for the machine-readable BENCH_*.json
// sweep reports (ordered fields, no external deps).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace titan::sim {

/// Persistent worker-thread pool with a FIFO task queue — the execution
/// substrate under SweepRunner, and the same pool the scenario-serving
/// daemon (src/serve) dispatches requests on.  Extracted so "run N
/// independent jobs" (sweeps) and "serve an open-ended request stream"
/// (titand) share one pool implementation instead of two thread models.
///
/// Threads are spawned once at construction and live until destruction;
/// submit() never blocks (the queue is unbounded by default — sweeps own
/// their whole grid up front).  Callers serving an open-ended request
/// stream bound the queue with set_max_queue() and admit work through
/// try_submit(), which refuses instead of queueing past the bound — the
/// daemon's load-shedding admission control.
class WorkerPool {
 public:
  /// Spawn `threads` workers (floored at 1).
  explicit WorkerPool(unsigned threads);
  /// Finish every queued task, then join the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue one task.  Tasks run FIFO across the workers; exceptions that
  /// escape a task terminate (wrap fallible work yourself — the sweep layer
  /// and the daemon both do).
  void submit(std::function<void()> task);

  /// Bound the submission queue for try_submit (0 == unbounded, the
  /// default).  Tasks already executing on workers do not count against the
  /// bound — it limits *waiting* work only.
  void set_max_queue(std::size_t limit);

  /// Enqueue one task unless the queue already holds max_queue waiting
  /// tasks; returns false (task untouched) when the bound would be
  /// exceeded.  submit() ignores the bound — only admission-controlled
  /// callers pay it.
  [[nodiscard]] bool try_submit(std::function<void()> task);

  /// Tasks enqueued but not yet started — the daemon's queue-depth gauge.
  [[nodiscard]] std::size_t queued() const;
  /// Tasks currently executing on a worker.
  [[nodiscard]] std::size_t active() const;

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;       ///< Workers wait for tasks here.
  std::condition_variable idle_;       ///< wait_idle() waits here.
  std::deque<std::function<void()>> queue_;
  std::size_t max_queue_ = 0;  ///< try_submit bound; 0 == unbounded.
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

struct SweepOptions {
  /// Worker threads; 0 picks hardware_concurrency, 1 runs serial inline.
  unsigned threads = 1;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Number of workers this runner actually uses (>= 1).
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static unsigned hardware_threads();

  /// Evaluate `count` independent jobs and return the results in index
  /// order.  `job` is called with indices [0, count) from pool threads (or
  /// inline when threads() == 1) and must not share mutable state across
  /// indices.
  template <typename Result>
  std::vector<Result> run(std::size_t count,
                          const std::function<Result(std::size_t)>& job) {
    std::vector<Result> results(count);
    run_indexed(count, [&results, &job](std::size_t index) {
      results[index] = job(index);
    });
    return results;
  }

  /// Index-only form for jobs that write their own output slots.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& job);

 private:
  unsigned threads_;
  /// Lazily created on the first parallel run_indexed() and reused for the
  /// runner's lifetime, so repeated sweeps (warm-start loops, bench
  /// best-of-N passes) pay thread spawn once instead of per call.
  std::unique_ptr<WorkerPool> pool_;
};

/// Command-line conventions shared by the sweep benches:
///   --threads=N       worker threads for SweepRunner (default 1 == serial)
///   --json=PATH       destination for the machine-readable report
///   --engine=lockstep|event  co-simulation scheduler for benches that run
///                     full co-sims (rows are bit-identical either way, so a
///                     lock-step document byte-diffs against an event-driven
///                     one — the CI cross-engine equivalence gate); unset ==
///                     bench default (event-driven)
///   --warm_start=PATH fork every grid point from the checkpoint bundle at
///                     PATH instead of simulating its warm-up prefix (rows
///                     stay bit-identical to a cold run)
///   --write_checkpoints=PATH  capture the grid's warm-up checkpoints, write
///                     the bundle to PATH, and exit without running the sweep
/// Any other argument is an error.  An empty string field means the flag was
/// not given (the parser rejects empty values).
struct SweepCli {
  unsigned threads = 1;
  std::string json_path;
  std::string engine;
  std::string warm_start_path;
  std::string write_checkpoints_path;
  std::string error;  ///< Non-empty when a flag was malformed; exit 2.
};

[[nodiscard]] SweepCli parse_sweep_cli(int argc, char** argv,
                                       std::string default_json = {});

/// Minimal ordered JSON emitter (objects keep insertion order, arrays are
/// explicit) for the sweep reports; no external dependencies.
class JsonWriter {
 public:
  JsonWriter& begin_object();                       ///< Root or array element.
  JsonWriter& begin_object(std::string_view key);
  JsonWriter& end_object();
  JsonWriter& begin_array(std::string_view key);
  JsonWriter& end_array();
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, int value);
  JsonWriter& field(std::string_view key, unsigned value);
  JsonWriter& field(std::string_view key, bool value);
  JsonWriter& field(std::string_view key, std::string_view value);
  /// Without this overload a string literal or const char* silently takes
  /// the bool overload (pointer->bool is a standard conversion, ->
  /// string_view is user-defined) and emits `true` instead of the string.
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }

  /// Append `value` as the next element of the enclosing array.
  JsonWriter& element(std::uint64_t value);

  [[nodiscard]] const std::string& str() const { return out_; }
  bool write_file(const std::string& path) const;

 private:
  void comma_and_indent();
  void key_prefix(std::string_view key);

  std::string out_;
  std::vector<bool> need_comma_;
};

}  // namespace titan::sim
