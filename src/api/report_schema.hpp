// Versioned RunReport JSON schema — the ONE place the machine-readable form
// of a co-simulation result is defined.
//
// Every surface that renders a RunReport routes through here: the sweep
// benches (via scenario_sweep_plan), tools/fault_matrix_smoke, the titand
// scenario-serving daemon, and titanctl's local batch witness.  That shared
// path is what makes the daemon's served-vs-batch byte-identity witness
// meaningful: a served response and a batch run_scenario render cannot
// drift apart, because there is only one renderer.
//
// The schema is versioned (kVersion), but the version field is emitted only
// when Options::emit_schema_version is set — committed BENCH_*.json
// artifacts and the sweep documents' byte-identity witnesses predate the
// field, so the default stays byte-for-byte the original emission.  Consumers that
// want self-describing documents (the wire protocol's future v2) opt in.
#pragma once

#include <string>

#include "api/run.hpp"
#include "sim/sweep.hpp"

namespace titan::api {

class ReportSchema {
 public:
  /// Version of the report field set/order below.  Bump when a field is
  /// added, removed, or reordered.  v2 added the flat attack-corpus scoring
  /// block (attack_detected .. attack_false_negatives).
  static constexpr unsigned kVersion = 2;

  struct Options {
    /// Emit "report_schema_version" as the first field.  Default off: the
    /// committed bench artifacts and the sweep documents' byte-identity
    /// witnesses are defined without it.
    bool emit_schema_version = false;
  };

  ReportSchema() = default;
  explicit ReportSchema(Options options) : options_(options) {}

  /// Emit the report's fields into an already-open JSON object (the sweep
  /// row form — caller owns begin_object/end_object).
  void emit_fields(sim::JsonWriter& json, const RunReport& report) const;

  /// The canonical standalone rendering: one root-level JSON object.  This
  /// exact byte string is what titand serves for a run request and what
  /// titanctl's local batch witness prints — the served-vs-batch diff
  /// compares two outputs of this function.
  [[nodiscard]] std::string render(const RunReport& report) const;

 private:
  Options options_;
};

}  // namespace titan::api
