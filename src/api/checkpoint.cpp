#include "api/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace titan::api {

std::shared_ptr<const sim::Snapshot> capture_checkpoint(
    const Scenario& scenario, sim::Cycle at, const RunHooks& hooks) {
  const std::unique_ptr<cfi::SocTop> soc = scenario.make_soc();
  auto snapshot = std::make_shared<sim::Snapshot>();

  // Record every log the prefix pops: the warm run replays these through its
  // own observer so the full stream is seen exactly once either way.
  soc->log_writer().set_log_capture([&](const cfi::CommitLog& log) {
    for (const std::uint64_t beat : log.pack()) {
      snapshot->log_words.push_back(beat);
    }
    if (hooks.log_capture) {
      hooks.log_capture(log);
    }
  });
  if (hooks.configure) {
    hooks.configure(*soc);
  }

  bool captured = false;
  soc->set_checkpoint(
      at,
      [&](const sim::Snapshot& state) {
        // Shallow structure copy: the memory images share their pages
        // (shared_ptr), so this does not duplicate page contents.
        snapshot->cycle = state.cycle;
        snapshot->memories = state.memories;
        snapshot->state = state.state;
        captured = true;
      },
      /*stop_after=*/true);
  (void)soc->run();
  if (!captured) {
    throw std::runtime_error(
        "capture_checkpoint: run finished without firing the checkpoint");
  }

  snapshot->scenario = scenario.serialize();
  snapshot->seal();
  return snapshot;
}

std::shared_ptr<const sim::Snapshot> CheckpointCache::warmed(
    const Scenario& scenario, sim::Cycle at, const RunHooks& hooks) {
  const std::string key = scenario.serialize();
  const auto it = by_identity_.find(key);
  if (it != by_identity_.end()) {
    hits_.fetch_add(1);
    return it->second;
  }
  misses_.fetch_add(1);
  std::shared_ptr<const sim::Snapshot> snapshot =
      capture_checkpoint(scenario, at, hooks);
  by_identity_.emplace(key, snapshot);
  return snapshot;
}

std::shared_ptr<const sim::Snapshot> CheckpointCache::find(
    const Scenario& scenario) const {
  const auto it = by_identity_.find(scenario.serialize());
  if (it == by_identity_.end()) {
    misses_.fetch_add(1);
    return nullptr;
  }
  hits_.fetch_add(1);
  return it->second;
}

void CheckpointCache::insert(std::shared_ptr<const sim::Snapshot> snapshot) {
  std::string key = snapshot->scenario;
  by_identity_[std::move(key)] = std::move(snapshot);
}

void save_checkpoint_file(const sim::Snapshot& snapshot,
                          const std::string& path) {
  const std::vector<std::uint8_t> blob = snapshot.to_blob();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_checkpoint_file: cannot open " + path);
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw std::runtime_error("save_checkpoint_file: short write to " + path);
  }
}

sim::Snapshot load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_checkpoint_file: cannot open " + path);
  }
  std::vector<std::uint8_t> blob((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw std::runtime_error("load_checkpoint_file: read error on " + path);
  }
  return sim::Snapshot::from_blob(blob);
}

// ---- Grid (sweep) support ---------------------------------------------------

std::vector<std::shared_ptr<const sim::Snapshot>> capture_grid_checkpoints(
    const ScenarioSet& set, sim::Cycle warmup, const RunHooks& hooks) {
  std::vector<std::shared_ptr<const sim::Snapshot>> snapshots;
  snapshots.reserve(set.size());
  for (const Scenario& scenario : set) {
    snapshots.push_back(capture_checkpoint(scenario, warmup, hooks));
  }
  return snapshots;
}

ScenarioSet warm_started(const ScenarioSet& set, const CheckpointCache& cache) {
  std::vector<Scenario> scenarios;
  scenarios.reserve(set.size());
  for (const Scenario& scenario : set) {
    std::shared_ptr<const sim::Snapshot> snapshot = cache.find(scenario);
    if (snapshot == nullptr) {
      throw ScenarioError("warm_started: no checkpoint for scenario '" +
                          scenario.name() +
                          "' (stale or mismatched bundle?)");
    }
    scenarios.push_back(scenario.with_warm_start(std::move(snapshot)));
  }
  return ScenarioSet(set.bench(), std::move(scenarios));
}

namespace {

/// Bundle header: magic "TSNB", format version, snapshot count.
constexpr std::uint32_t kBundleMagic = 0x42'4E'53'54;
constexpr std::uint32_t kBundleVersion = 1;

void write_u32(std::ofstream& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.put(static_cast<char>(value >> (8 * i)));
  }
}

void write_u64(std::ofstream& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.put(static_cast<char>(value >> (8 * i)));
  }
}

std::uint64_t read_uint(std::ifstream& in, int bytes, const std::string& path) {
  std::uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    const int byte = in.get();
    if (byte == std::ifstream::traits_type::eof()) {
      throw sim::SnapshotError("checkpoint bundle: truncated header in " +
                               path);
    }
    value |= static_cast<std::uint64_t>(byte & 0xFF) << (8 * i);
  }
  return value;
}

}  // namespace

void save_checkpoint_bundle(
    const std::vector<std::shared_ptr<const sim::Snapshot>>& snapshots,
    const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_checkpoint_bundle: cannot open " + path);
  }
  write_u32(out, kBundleMagic);
  write_u32(out, kBundleVersion);
  write_u64(out, snapshots.size());
  for (const std::shared_ptr<const sim::Snapshot>& snapshot : snapshots) {
    const std::vector<std::uint8_t> blob = snapshot->to_blob();
    write_u64(out, blob.size());
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  if (!out) {
    throw std::runtime_error("save_checkpoint_bundle: short write to " + path);
  }
}

std::vector<std::shared_ptr<const sim::Snapshot>> load_checkpoint_bundle(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_checkpoint_bundle: cannot open " + path);
  }
  if (read_uint(in, 4, path) != kBundleMagic) {
    throw sim::SnapshotError("checkpoint bundle: bad magic in " + path);
  }
  if (read_uint(in, 4, path) != kBundleVersion) {
    throw sim::SnapshotError("checkpoint bundle: unsupported version in " +
                             path);
  }
  const std::uint64_t count = read_uint(in, 8, path);
  std::vector<std::shared_ptr<const sim::Snapshot>> snapshots;
  snapshots.reserve(count);
  for (std::uint64_t index = 0; index < count; ++index) {
    const std::uint64_t size = read_uint(in, 8, path);
    std::vector<std::uint8_t> blob(size);
    in.read(reinterpret_cast<char*>(blob.data()),
            static_cast<std::streamsize>(size));
    if (static_cast<std::uint64_t>(in.gcount()) != size) {
      throw sim::SnapshotError("checkpoint bundle: truncated snapshot " +
                               std::to_string(index) + " in " + path);
    }
    snapshots.push_back(
        std::make_shared<sim::Snapshot>(sim::Snapshot::from_blob(blob)));
  }
  return snapshots;
}

int handle_checkpoint_cli(ScenarioSet& grid, const sim::SweepCli& cli,
                          std::string_view bench_label) {
  const std::string label(bench_label);
  if (!cli.write_checkpoints_path.empty()) {
    try {
      save_checkpoint_bundle(
          capture_grid_checkpoints(grid, kDefaultWarmupCycle),
          cli.write_checkpoints_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: --write_checkpoints failed: %s\n",
                   label.c_str(), error.what());
      return 1;
    }
    std::fprintf(stderr, "%s: wrote %zu checkpoint(s) to %s\n", label.c_str(),
                 grid.size(), cli.write_checkpoints_path.c_str());
    return 0;
  }
  if (!cli.warm_start_path.empty()) {
    try {
      CheckpointCache cache;
      for (std::shared_ptr<const sim::Snapshot>& snapshot :
           load_checkpoint_bundle(cli.warm_start_path)) {
        cache.insert(std::move(snapshot));
      }
      grid = warm_started(grid, cache);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: --warm_start failed: %s\n", label.c_str(),
                   error.what());
      return 1;
    }
  }
  return -1;
}

}  // namespace titan::api
