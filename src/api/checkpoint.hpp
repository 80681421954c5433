// Checkpoint capture, caching, and file transport for warm-start sweeps.
//
// capture_checkpoint() runs a scenario's prefix once and freezes the full
// SoC state at a loop-top cycle; Scenario::with_warm_start() then forks any
// number of runs from that snapshot, each bit-exact versus a from-scratch
// run on both co-simulation engines.  Memory pages are shared copy-on-write
// between the snapshot and every fork (see sim/snapshot.hpp), so a
// 100-point sweep holds one copy of every page a forked run never writes.
//
// CheckpointCache keys snapshots by Scenario::serialize() — the same
// identity string run_scenario() validates on warm start — so a sweep over
// a mixed grid builds exactly one prefix run per distinct scenario.
//
// The file helpers carry a checkpoint across process boundaries (a bench's
// --write_checkpoints run writes the bundle that a later --warm_start run,
// or titand, loads) in the versioned, fingerprinted blob format; loading a
// truncated, foreign, or version-skewed file throws sim::SnapshotError.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.hpp"
#include "api/run.hpp"
#include "sim/snapshot.hpp"

namespace titan::api {

/// Default warm-up prefix for grid checkpoints: long enough that the RoT has
/// booted and the pipeline carries real state, short enough that the force
/// fire at main-loop exit (programs shorter than the warm-up) stays rare.
inline constexpr sim::Cycle kDefaultWarmupCycle = 2000;

/// Run `scenario` from cycle 0 until the first loop-top cycle >= `at` (or
/// the main-loop exit, if the program finishes first), capture the full SoC
/// state, and stop without draining.  The returned snapshot is sealed
/// (fingerprinted) and carries the scenario identity plus the packed prefix
/// of popped commit logs, which run_scenario() replays on warm start so a
/// forked run's observed log stream matches a cold run's.  `hooks.configure`
/// is applied to the prefix SoC — pass the same hooks the forked runs will
/// use so configuration-dependent state (e.g. trace-ring geometry) matches.
[[nodiscard]] std::shared_ptr<const sim::Snapshot> capture_checkpoint(
    const Scenario& scenario, sim::Cycle at, const RunHooks& hooks = {});

/// Scenario-keyed store of warm-start checkpoints: one prefix simulation per
/// distinct scenario identity, shared by every point forked from it.
class CheckpointCache {
 public:
  /// The cached checkpoint for `scenario`, capturing it (at cycle `at`, with
  /// `hooks`) on first use.  `at` and `hooks` only matter for the capturing
  /// call — later hits return the existing snapshot regardless.
  std::shared_ptr<const sim::Snapshot> warmed(const Scenario& scenario,
                                              sim::Cycle at,
                                              const RunHooks& hooks = {});

  /// The cached checkpoint for `scenario`, or null.
  [[nodiscard]] std::shared_ptr<const sim::Snapshot> find(
      const Scenario& scenario) const;

  /// Add an externally captured (or file-loaded) checkpoint, keyed by its
  /// embedded scenario identity.
  void insert(std::shared_ptr<const sim::Snapshot> snapshot);

  [[nodiscard]] std::size_t size() const { return by_identity_.size(); }
  void clear() { by_identity_.clear(); }

  /// Lookup outcome counters: a hit is a warmed()/find() call answered from
  /// the cache, a miss is one that had to capture (warmed) or came back null
  /// (find).  Atomic so read-side observers (titand's /metrics) can sample
  /// them without synchronising with lookups; note the map itself is NOT
  /// thread-safe — concurrent warmed() calls still need external locking,
  /// which the daemon's service layer provides.
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(); }

 private:
  std::map<std::string, std::shared_ptr<const sim::Snapshot>> by_identity_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

/// Write `snapshot` to `path` in the versioned blob format (see
/// sim::Snapshot::to_blob).  Throws std::runtime_error on I/O failure.
void save_checkpoint_file(const sim::Snapshot& snapshot,
                          const std::string& path);

/// Load and fully validate a checkpoint file.  Throws std::runtime_error on
/// I/O failure and sim::SnapshotError on a malformed or corrupted blob.
[[nodiscard]] sim::Snapshot load_checkpoint_file(const std::string& path);

// ---- Grid (sweep) support ---------------------------------------------------

/// Capture one warm-up checkpoint per scenario in `set` (at loop-top cycle
/// `warmup`, or the main-loop exit for shorter programs), in grid order.
[[nodiscard]] std::vector<std::shared_ptr<const sim::Snapshot>>
capture_grid_checkpoints(const ScenarioSet& set, sim::Cycle warmup,
                         const RunHooks& hooks = {});

/// The same set with every scenario forked from its checkpoint in `cache`.
/// Identity (header / config fingerprint) is unchanged — warm start is an
/// execution strategy — so a warm document is byte-identical to a cold one.  Throws ScenarioError when `cache` is missing any
/// scenario of the set (a skewed bundle must fail loudly, not silently run
/// that point cold).
[[nodiscard]] ScenarioSet warm_started(const ScenarioSet& set,
                                       const CheckpointCache& cache);

/// Multi-snapshot bundle file: every checkpoint of a sweep grid in one
/// artifact (written by --write_checkpoints, read by --warm_start and
/// titand).  Each entry is a full versioned
/// Snapshot blob, so loading validates every snapshot individually.
void save_checkpoint_bundle(
    const std::vector<std::shared_ptr<const sim::Snapshot>>& snapshots,
    const std::string& path);
[[nodiscard]] std::vector<std::shared_ptr<const sim::Snapshot>>
load_checkpoint_bundle(const std::string& path);

/// Apply the shared checkpoint CLI contract (see sim::SweepCli) to a
/// scenario grid:
///  * --write_checkpoints=PATH: capture the grid's checkpoints at
///    kDefaultWarmupCycle, write the bundle, and return 0 — the bench exits
///    without running the sweep;
///  * --warm_start=PATH: load the bundle and fork every grid point from its
///    checkpoint (replaces `grid`); returns -1 — the bench runs as usual;
///  * neither flag: returns -1 with `grid` untouched.
/// Failures print a message naming `bench_label` and return 1.
[[nodiscard]] int handle_checkpoint_cli(ScenarioSet& grid,
                                        const sim::SweepCli& cli,
                                        std::string_view bench_label);

}  // namespace titan::api
