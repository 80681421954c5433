#include "api/report_schema.hpp"

namespace titan::api {

void ReportSchema::emit_fields(sim::JsonWriter& json,
                               const RunReport& report) const {
  if (options_.emit_schema_version) {
    json.field("report_schema_version", kVersion);
  }
  const sim::ResilienceStats& resilience = report.resilience;
  json.field("scenario", report.scenario)
      .field("cycles", report.cycles)
      .field("instructions", report.instructions)
      .field("cf_logs", report.cf_logs)
      .field("violations", report.violations)
      .field("cfi_fault", report.cfi_fault)
      .field("exit_code", report.exit_code)
      .field("queue_full_stalls", report.queue_full_stalls)
      .field("dual_cf_stalls", report.dual_cf_stalls)
      .field("doorbells", report.doorbells)
      .field("batches", report.batches)
      .field("max_batch", report.max_batch)
      .field("mean_queue_occupancy", report.mean_queue_occupancy)
      .field("doorbells_per_log", report.doorbells_per_log())
      .field("mem_reads", report.host_memory.reads)
      .field("mem_writes", report.host_memory.writes)
      .field("mem_fetches", report.host_memory.fetches)
      .field("mem_page_cache_hits", report.host_memory.page_cache_hits)
      .field("decode_hits", report.decode_hits)
      .field("decode_misses", report.decode_misses)
      .field("rot_instructions", report.rot_instructions)
      .field("rot_hmac_starts", report.rot_hmac_starts)
      // Flat resilience summary first (easy to column-select in sweeps)...
      .field("faults_injected", resilience.total_injected())
      .field("faults_detected", resilience.total_detected())
      .field("fault_false_negatives", resilience.false_negatives)
      .field("fault_retries",
             resilience.doorbell_retries + resilience.mac_retries)
      .field("degraded_cycles", resilience.degraded_cycles);
  // ...then the full per-site block.
  json.begin_object("resilience");
  for (std::size_t site = 0; site < sim::kFaultSiteCount; ++site) {
    const std::string name(
        sim::fault_site_name(static_cast<sim::FaultSite>(site)));
    json.field("injected_" + name, resilience.injected[site])
        .field("detected_" + name, resilience.detected[site]);
  }
  json.begin_array("detection_latency_hist");
  for (const std::uint64_t count : resilience.detection_latency) {
    json.element(count);
  }
  json.end_array();
  json.field("doorbell_retries", resilience.doorbell_retries)
      .field("mac_retries", resilience.mac_retries)
      .field("spurious_completions", resilience.spurious_completions)
      .field("dropped_logs", resilience.dropped_logs)
      .field("false_negatives", resilience.false_negatives)
      .field("degraded_cycles", resilience.degraded_cycles);
  json.end_object();
  // Attack-corpus scoring (all-zero on benign runs; see attacks::AttackStats).
  const attacks::AttackStats& attack = report.attack;
  json.field("attack_detected", attack.detected)
      .field("attack_detection_latency", attack.detection_latency)
      .field("attack_first_fault_ordinal", attack.first_fault_ordinal)
      .field("attack_hijacks_retired", attack.hijacks_retired)
      .field("attack_hijacks_flagged", attack.hijacks_flagged)
      .field("attack_false_negatives", attack.false_negatives);
}

std::string ReportSchema::render(const RunReport& report) const {
  sim::JsonWriter json;
  json.begin_object();
  emit_fields(json, report);
  json.end_object();
  return json.str();
}

}  // namespace titan::api
