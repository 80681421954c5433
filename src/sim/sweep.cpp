#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace titan::sim {

// ---- WorkerPool -------------------------------------------------------------

WorkerPool::WorkerPool(unsigned threads) {
  const unsigned count = threads == 0 ? 1 : threads;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void WorkerPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void WorkerPool::set_max_queue(std::size_t limit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  max_queue_ = limit;
}

bool WorkerPool::try_submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (max_queue_ != 0 && queue_.size() >= max_queue_) {
      return false;
    }
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
  return true;
}

std::size_t WorkerPool::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t WorkerPool::active() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

void WorkerPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stopping_ with a drained queue.
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) {
      idle_.notify_all();
    }
  }
}

// ---- SweepRunner ------------------------------------------------------------

SweepRunner::SweepRunner(SweepOptions options)
    : threads_(options.threads == 0 ? hardware_threads() : options.threads) {}

unsigned SweepRunner::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void SweepRunner::run_indexed(std::size_t count,
                              const std::function<void(std::size_t)>& job) {
  if (count == 0) {
    return;
  }
  if (threads_ == 1 || count == 1) {
    // Serial reference path: inline, exceptions propagate naturally.
    for (std::size_t index = 0; index < count; ++index) {
      job(index);
    }
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  // First failing *index* (not first in wall time), so parallel failure
  // reporting matches what a serial run would have thrown.  Indices are
  // claimed in ascending order, so when a failure stops further claims,
  // every lower index is already in flight and will still report — the
  // lowest failing index is found without running the rest of the grid.
  std::mutex failure_mutex;
  std::size_t failed_index = count;
  std::exception_ptr failure;

  const auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) {
        return;
      }
      try {
        job(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        failed.store(true, std::memory_order_relaxed);
        if (index < failed_index) {
          failed_index = index;
          failure = std::current_exception();
        }
      }
    }
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, count));
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(threads_ - 1);
  }
  // Dispatch workers 1..N-1 onto the persistent pool; the calling thread is
  // worker 0.  A per-call latch (not WorkerPool::wait_idle) keeps the wait
  // scoped to this run's tasks.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  unsigned pending = workers - 1;
  for (unsigned i = 1; i < workers; ++i) {
    pool_->submit([&] {
      worker();
      const std::lock_guard<std::mutex> lock(done_mutex);
      if (--pending == 0) {
        done_cv.notify_one();
      }
    });
  }
  worker();
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return pending == 0; });
  lock.unlock();
  if (failure) {
    std::rethrow_exception(failure);
  }
}

// ---- SweepCli ---------------------------------------------------------------

namespace {

constexpr const char* kSweepFlags =
    " [--threads=N] [--json=PATH] [--engine=lockstep|event] "
    "[--warm_start=PATH | --write_checkpoints=PATH]";

/// If `arg` is `flag` followed by its value, store the value in `out`.
bool take_value(const char* arg, std::string_view flag, std::string* out) {
  if (std::strncmp(arg, flag.data(), flag.size()) != 0) {
    return false;
  }
  *out = arg + flag.size();
  return true;
}

}  // namespace

SweepCli parse_sweep_cli(int argc, char** argv, std::string default_json) {
  SweepCli cli;
  cli.json_path = std::move(default_json);
  const auto fail = [&](std::string what) {
    cli.error = std::move(what) + "\nusage: " +
                (argc > 0 ? argv[0] : "bench") + kSweepFlags;
    return cli;
  };
  std::string threads;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (take_value(arg, "--threads=", &threads)) {
      const long value = std::strtol(threads.c_str(), nullptr, 10);
      cli.threads = value <= 0 ? 0 : static_cast<unsigned>(value);
    } else if (take_value(arg, "--json=", &cli.json_path)) {
      // Any path, including empty (no document).
    } else if (take_value(arg, "--engine=", &cli.engine)) {
      if (cli.engine != "lockstep" && cli.engine != "event") {
        return fail("unknown --engine value '" + cli.engine +
                    "' (expected 'lockstep' or 'event')");
      }
    } else if (take_value(arg, "--warm_start=", &cli.warm_start_path)) {
      if (cli.warm_start_path.empty()) {
        return fail("--warm_start needs a bundle path");
      }
    } else if (take_value(arg, "--write_checkpoints=",
                          &cli.write_checkpoints_path)) {
      if (cli.write_checkpoints_path.empty()) {
        return fail("--write_checkpoints needs a bundle path");
      }
    } else {
      return fail(std::string("unknown argument '") + arg + "'");
    }
  }
  if (!cli.warm_start_path.empty() && !cli.write_checkpoints_path.empty()) {
    return fail(
        "--warm_start and --write_checkpoints are mutually exclusive (one "
        "consumes a bundle, the other produces it)");
  }
  return cli;
}

// ---- JsonWriter -------------------------------------------------------------

void JsonWriter::comma_and_indent() {
  if (!need_comma_.empty()) {
    if (need_comma_.back()) {
      out_ += ",";
    }
    need_comma_.back() = true;
    out_ += "\n";
    out_.append(2 * need_comma_.size(), ' ');
  }
}

void JsonWriter::key_prefix(std::string_view key) {
  comma_and_indent();
  out_ += "\"";
  out_ += key;
  out_ += "\": ";
}

JsonWriter& JsonWriter::begin_object() {
  comma_and_indent();
  out_ += "{";
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::begin_object(std::string_view key) {
  key_prefix(key);
  out_ += "{";
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had_fields = need_comma_.back();
  need_comma_.pop_back();
  if (had_fields) {
    out_ += "\n";
    out_.append(2 * need_comma_.size(), ' ');
  }
  out_ += "}";
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view key) {
  key_prefix(key);
  out_ += "[";
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had_fields = need_comma_.back();
  need_comma_.pop_back();
  if (had_fields) {
    out_ += "\n";
    out_.append(2 * need_comma_.size(), ' ');
  }
  out_ += "]";
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  key_prefix(key);
  std::ostringstream fmt;
  fmt << value;
  out_ += fmt.str();
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, int value) {
  key_prefix(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, unsigned value) {
  key_prefix(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  key_prefix(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::element(std::uint64_t value) {
  comma_and_indent();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  key_prefix(key);
  out_ += "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
    }
    out_ += c;
  }
  out_ += "\"";
  return *this;
}

bool JsonWriter::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  os << out_ << "\n";
  return os.good();
}

}  // namespace titan::sim
