#include "api/sweep.hpp"

#include <iostream>

#include "api/report_schema.hpp"

namespace titan::api {

int write_sweep_document(const sim::SweepDocHeader& header,
                         const std::string& json_path,
                         const sim::RowEmitter& emit_row) {
  if (!json_path.empty() &&
      !sim::write_document(json_path,
                           sim::render_full_document(header, emit_row))) {
    std::cerr << header.bench << ": cannot write " << json_path << "\n";
    return 1;
  }
  return 0;
}

SweepPlan<RunReport> scenario_sweep_plan(ScenarioSet set) {
  auto shared = std::make_shared<const ScenarioSet>(std::move(set));
  SweepPlan<RunReport> plan;
  plan.header = shared->header();
  plan.point = [shared](std::size_t index) {
    return run_scenario((*shared)[index]);
  };
  plan.emit = [](sim::JsonWriter& json, const RunReport& row, std::size_t) {
    json.begin_object();
    ReportSchema().emit_fields(json, row);
    json.end_object();
  };
  return plan;
}

}  // namespace titan::api
