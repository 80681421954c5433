// ScenarioRegistry — named scenarios and declarative scenario queries.
//
// Every (workload x firmware x fabric x depth x burst) point the benches and
// examples exercise is registered here once, under a stable name and a set
// of tags.  A bench's point grid is a registry query ("all scenarios tagged
// fig1_liveness"), not a hand-maintained table in the bench source, so
// adding a scenario to a sweep is one registration — not an edit to four
// benches in lock-step.
//
// A ScenarioSet's deterministic serialization IS the sweep-report identity:
// header() hashes the scenario names into the grid hash and the full
// scenario serializations into the config fingerprint, which every report
// document carries in its header.  The fingerprint therefore tracks the
// exact configuration objects the simulations ran with.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/scenario.hpp"
#include "sim/sweep_doc.hpp"

namespace titan::api {

/// An ordered, named collection of scenarios — the typed unit the sweep
/// surface iterates (one grid index per scenario).
class ScenarioSet {
 public:
  ScenarioSet() = default;
  ScenarioSet(std::string bench, std::vector<Scenario> scenarios)
      : bench_(std::move(bench)), scenarios_(std::move(scenarios)) {}

  [[nodiscard]] const std::string& bench() const { return bench_; }
  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }
  [[nodiscard]] bool empty() const { return scenarios_.empty(); }
  [[nodiscard]] const Scenario& operator[](std::size_t index) const {
    return scenarios_[index];
  }
  [[nodiscard]] auto begin() const { return scenarios_.begin(); }
  [[nodiscard]] auto end() const { return scenarios_.end(); }

  /// Report identity derived from the scenarios themselves: grid hash over
  /// the ordered names, config fingerprint over the full serializations.
  [[nodiscard]] sim::SweepDocHeader header() const;

  /// The same set run under `engine`.  Identity (header/fingerprint) is
  /// unchanged — the engine does not alter results — so a lock-step witness
  /// document stays byte-comparable to an event-driven one.
  [[nodiscard]] ScenarioSet with_engine(Engine engine) const;

 private:
  std::string bench_;
  std::vector<Scenario> scenarios_;
};

class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;

  /// Register a scenario under its name, with optional query tags.
  /// Registration order is grid order.  Throws ScenarioError on a duplicate
  /// name (two scenarios answering to one name is exactly the ambiguity the
  /// registry exists to remove).
  void add(Scenario scenario, std::vector<std::string> tags = {});

  /// Lookup by exact name; nullptr when unknown.
  [[nodiscard]] const Scenario* find(std::string_view name) const;
  [[nodiscard]] std::vector<std::string_view> names() const;

  /// Declarative grid query: every scenario carrying `tag`, in registration
  /// order, packaged as a set reporting under `bench_name`.
  [[nodiscard]] ScenarioSet query(std::string_view tag,
                                  std::string bench_name) const;

  /// The built-in registry: the paper's liveness grid (tag "fig1_liveness"),
  /// the batched-drain study points (tag "drain_study"), the hysteresis
  /// drain-policy study (tag "drain_hysteresis"), the attack scenarios, the
  /// attack-corpus scoring grid (tag "attack_matrix": generated adversarial
  /// images crossed with chain lengths and enforcement policies), the
  /// ablation co-sim grids (tags "ablation_depth", "ablation_ss"), and the
  /// fault-injection/degradation matrix (tag "fault_matrix").
  [[nodiscard]] static const ScenarioRegistry& global();

 private:
  struct Entry {
    Scenario scenario;
    std::vector<std::string> tags;
  };
  std::vector<Entry> entries_;
};

}  // namespace titan::api
