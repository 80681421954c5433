#include "api/registry.hpp"

#include <algorithm>
#include <sstream>

namespace titan::api {

sim::SweepDocHeader ScenarioSet::header() const {
  std::ostringstream grid;
  std::ostringstream config;
  for (const Scenario& scenario : scenarios_) {
    grid << scenario.name() << ';';
    config << scenario.serialize() << ';';
  }
  sim::SweepDocHeader header;
  header.bench = bench_;
  header.total_points = scenarios_.size();
  header.grid_hash = sim::fingerprint_hex(grid.str());
  header.config_fingerprint = sim::fingerprint_hex(config.str());
  return header;
}

ScenarioSet ScenarioSet::with_engine(Engine engine) const {
  std::vector<Scenario> scenarios;
  scenarios.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) {
    scenarios.push_back(scenario.with_engine(engine));
  }
  return ScenarioSet(bench_, std::move(scenarios));
}

void ScenarioRegistry::add(Scenario scenario, std::vector<std::string> tags) {
  if (find(scenario.name()) != nullptr) {
    throw ScenarioError("ScenarioRegistry: duplicate scenario name '" +
                        scenario.name() + "'");
  }
  entries_.push_back(Entry{std::move(scenario), std::move(tags)});
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.scenario.name() == name) {
      return &entry.scenario;
    }
  }
  return nullptr;
}

std::vector<std::string_view> ScenarioRegistry::names() const {
  std::vector<std::string_view> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    names.emplace_back(entry.scenario.name());
  }
  return names;
}

ScenarioSet ScenarioRegistry::query(std::string_view tag,
                                    std::string bench_name) const {
  std::vector<Scenario> scenarios;
  for (const Entry& entry : entries_) {
    if (std::find(entry.tags.begin(), entry.tags.end(), tag) !=
        entry.tags.end()) {
      scenarios.push_back(entry.scenario);
    }
  }
  return ScenarioSet(std::move(bench_name), std::move(scenarios));
}

namespace {

/// Paper Fig. 1 liveness grid: (firmware variant x RoT fabric x drain burst
/// x burst MAC), fib(8) through the full stack at queue depth 8.  The grid
/// the seed kept as a table literal in bench_fig1.
void register_fig1_liveness(ScenarioRegistry& registry) {
  struct Point {
    Firmware firmware;
    Fabric fabric;
    unsigned burst;
    bool mac;
    const char* label;
  };
  constexpr Point kGrid[] = {
      {Firmware::kIrq, Fabric::kBaseline, 1, false, "irq/baseline/burst1"},
      {Firmware::kIrq, Fabric::kBaseline, 8, false, "irq/baseline/burst8"},
      {Firmware::kIrq, Fabric::kBaseline, 8, true, "irq/baseline/burst8+mac"},
      {Firmware::kPolling, Fabric::kBaseline, 1, false,
       "polling/baseline/burst1"},
      {Firmware::kPolling, Fabric::kBaseline, 8, false,
       "polling/baseline/burst8"},
      {Firmware::kPolling, Fabric::kBaseline, 8, true,
       "polling/baseline/burst8+mac"},
      {Firmware::kPolling, Fabric::kOptimized, 1, false,
       "polling/optimized/burst1"},
      {Firmware::kPolling, Fabric::kOptimized, 8, false,
       "polling/optimized/burst8"},
  };
  for (const Point& point : kGrid) {
    registry.add(ScenarioBuilder()
                     .name(point.label)
                     .workload(Workload::fib(8))
                     .firmware(point.firmware)
                     .fabric(point.fabric)
                     .queue_depth(8)
                     .drain_burst(point.burst)
                     .batch_mac(point.mac)
                     .build(),
                 {"fig1_liveness"});
  }
}

/// Batched-drain before/after points (BENCH_PR2.json): fib(10), burst 1 vs 8
/// vs 8+MAC, IRQ firmware at queue depth 8.
void register_drain_study(ScenarioRegistry& registry) {
  struct Point {
    unsigned burst;
    bool mac;
    const char* label;
  };
  constexpr Point kGrid[] = {
      {1, false, "drain/burst1"},
      {8, false, "drain/burst8"},
      {8, true, "drain/burst8_mac"},
  };
  for (const Point& point : kGrid) {
    registry.add(ScenarioBuilder()
                     .name(point.label)
                     .workload(Workload::fib(10))
                     .queue_depth(8)
                     .drain_burst(point.burst)
                     .batch_mac(point.mac)
                     .build(),
                 {"drain_study"});
  }
}

/// Hysteresis drain-policy study (ROADMAP "adaptive drain burst"): fib(10)
/// at burst 8, sweeping the wait-for-k-or-timeout policy against the
/// immediate drain.  Its doorbell/latency trade-off is recorded in
/// BENCH_PR5.json (the hysteresis/* rows).
void register_drain_hysteresis(ScenarioRegistry& registry) {
  struct Point {
    unsigned wait;
    sim::Cycle timeout;
    const char* label;
  };
  constexpr Point kGrid[] = {
      {0, 0, "hysteresis/off"},
      {4, 256, "hysteresis/w4_t256"},
      {8, 256, "hysteresis/w8_t256"},
      {8, 1024, "hysteresis/w8_t1024"},
  };
  for (const Point& point : kGrid) {
    registry.add(ScenarioBuilder()
                     .name(point.label)
                     .workload(Workload::fib(10))
                     .queue_depth(8)
                     .drain_burst(8)
                     .drain_wait(point.wait, point.timeout)
                     .build(),
                 {"drain_hysteresis"});
  }
}

/// Attack demonstrations.
void register_attacks(ScenarioRegistry& registry) {
  registry.add(ScenarioBuilder()
                   .name("rop_attack")
                   .workload(Workload::rop_victim())
                   .queue_depth(8)
                   .build(),
               {"attack"});
}

/// Attack-corpus scoring matrix (tag "attack_matrix"): generated adversarial
/// images (src/attacks) crossed with chain lengths and enforcement policies.
/// Every point is deterministic (the plan seed fixes the image bit for bit),
/// so the grid doubles as a cross-engine equivalence corpus — replayed under
/// both schedulers by tools/attack_corpus_smoke and AttackCorpus tests.
///
/// Designed coverage, not just detection: the shadow-stack-only jop/ret2reg
/// rows and the fail-open deep-ROP rows are *scored false negatives* — the
/// tracker reports the hijacked edges that retired unflagged instead of
/// letting the miss pass silently.
void register_attack_matrix(ScenarioRegistry& registry) {
  const auto atk = [](const char* name, const char* plan) {
    return ScenarioBuilder().name(name).attack(
        attacks::AttackPlan::parse(plan));
  };
  // ROP chain-length sweep under the paper's lossless back-pressure: the
  // first hijacked return to reach the RoT is flagged regardless of depth.
  registry.add(atk("attacks/rop_L1", "rop@0#1,1").build(), {"attack_matrix"});
  registry.add(atk("attacks/rop_L4", "rop@0#4,1").build(), {"attack_matrix"});
  registry.add(atk("attacks/rop_L8", "rop@0#8,1").build(), {"attack_matrix"});
  registry.add(atk("attacks/rop_L12", "rop@0#12,1").build(),
               {"attack_matrix"});
  // Site / seed diversity: the overwrite lands in a different scaffold
  // function, and a different seed reshapes every function body.
  registry.add(atk("attacks/rop_site3", "rop@3#4,1").build(),
               {"attack_matrix"});
  registry.add(atk("attacks/rop_seed9", "rop@0#4,9").build(),
               {"attack_matrix"});
  // Deep chain against a tiny spilling shadow stack: detection must survive
  // the authenticated spill path.
  registry.add(atk("attacks/rop_L12_ss8x4", "rop@0#12,1")
                   .shadow_stack(8, 4)
                   .build(),
               {"attack_matrix"});
  // Overflow-policy triplet on the deep chain at queue depth 2, where
  // genuine fulls occur.  Fail-open drops hijacked returns unchecked — the
  // scored-false-negative rows — while fail-closed halts before any hijacked
  // edge can slip through.
  registry.add(atk("attacks/rop_L4_failopen", "rop@0#4,1")
                   .queue_depth(2)
                   .overflow_policy(OverflowPolicy::kFailOpen)
                   .build(),
               {"attack_matrix"});
  registry.add(atk("attacks/rop_L12_failopen", "rop@0#12,1")
                   .queue_depth(2)
                   .overflow_policy(OverflowPolicy::kFailOpen)
                   .build(),
               {"attack_matrix"});
  registry.add(atk("attacks/rop_L12_failclosed", "rop@0#12,1")
                   .queue_depth(2)
                   .overflow_policy(OverflowPolicy::kFailClosed)
                   .build(),
               {"attack_matrix"});
  // Stack pivots: the first post-pivot return pops attacker-staged state.
  registry.add(atk("attacks/pivot_L1", "pivot@1#1,2").build(),
               {"attack_matrix"});
  registry.add(atk("attacks/pivot_L6", "pivot@1#6,2").build(),
               {"attack_matrix"});
  registry.add(atk("attacks/pivot_L6_failopen", "pivot@1#6,2")
                   .queue_depth(2)
                   .overflow_policy(OverflowPolicy::kFailOpen)
                   .build(),
               {"attack_matrix"});
  // Partial return-address overwrites: 1-3 corrupted bytes, increasingly
  // far-flung (but always bogus) return targets.
  registry.add(atk("attacks/partial_b1", "partial@2#1,3").build(),
               {"attack_matrix"});
  registry.add(atk("attacks/partial_b2", "partial@2#2,3").build(),
               {"attack_matrix"});
  registry.add(atk("attacks/partial_b3", "partial@2#3,3").build(),
               {"attack_matrix"});
  registry.add(atk("attacks/partial_b3_failopen", "partial@2#3,3")
                   .queue_depth(2)
                   .overflow_policy(OverflowPolicy::kFailOpen)
                   .build(),
               {"attack_matrix"});
  // Forward-edge escapes vs the policy split: the backward-edge shadow stack
  // never sees a corrupted indirect jump (scored false negative), while the
  // jump-table policy — provisioned with the image's legitimate targets —
  // flags it.
  registry.add(atk("attacks/ret2reg_ssonly", "ret2reg@4#0,4").build(),
               {"attack_matrix"});
  registry.add(atk("attacks/ret2reg_jt", "ret2reg@4#0,4")
                   .jump_table(true)
                   .build(),
               {"attack_matrix"});
  registry.add(atk("attacks/jop_s1_ssonly", "jop@1#1,5").build(),
               {"attack_matrix"});
  registry.add(
      atk("attacks/jop_s1_jt", "jop@1#1,5").jump_table(true).build(),
      {"attack_matrix"});
  registry.add(atk("attacks/jop_s3_ssonly", "jop@1#3,5").build(),
               {"attack_matrix"});
  registry.add(
      atk("attacks/jop_s3_jt", "jop@1#3,5").jump_table(true).build(),
      {"attack_matrix"});
  // Firmware / fabric / drain variants: detection is a property of the
  // policy, not of one pipeline configuration.
  registry.add(atk("attacks/rop_L4_polling", "rop@0#4,1")
                   .firmware(Firmware::kPolling)
                   .build(),
               {"attack_matrix"});
  registry.add(atk("attacks/rop_L4_optimized", "rop@0#4,1")
                   .fabric(Fabric::kOptimized)
                   .build(),
               {"attack_matrix"});
  registry.add(atk("attacks/rop_L4_burst8_mac", "rop@0#4,1")
                   .drain_burst(8)
                   .batch_mac(true)
                   .build(),
               {"attack_matrix"});
}

/// Ablation co-sim grids (bench_ablation A3/A4): queue-depth cross-check on
/// fib(9) with polling firmware, and shadow-stack geometry on call_chain(120)
/// with IRQ firmware.
void register_ablation(ScenarioRegistry& registry) {
  for (const std::size_t depth : {1u, 2u, 4u, 8u, 16u}) {
    registry.add(ScenarioBuilder()
                     .name("ablation/depth" + std::to_string(depth))
                     .workload(Workload::fib(9))
                     .firmware(Firmware::kPolling)
                     .queue_depth(depth)
                     .build(),
                 {"ablation_depth"});
  }
  struct Geometry {
    unsigned capacity, block;
  };
  constexpr Geometry kGeometries[] = {
      {8, 4}, {16, 8}, {32, 16}, {64, 32}, {128, 64}};
  for (const Geometry& geometry : kGeometries) {
    registry.add(ScenarioBuilder()
                     .name("ablation/ss" + std::to_string(geometry.capacity) +
                           "x" + std::to_string(geometry.block))
                     .workload(Workload::call_chain(120))
                     .shadow_stack(geometry.capacity, geometry.block)
                     .build(),
                 {"ablation_ss"});
  }
}

/// Fault-injection / graceful-degradation matrix: one scenario per fault
/// site exercising its degradation mechanism, the overflow-policy triplet,
/// and two "all sites at once" stress points (fail-closed vs fail-open).
/// Every point is deterministic (event-ordinal fault plans), so the grid
/// doubles as a cross-engine equivalence corpus: RegistryEquivalence and
/// tools/fault_matrix_smoke replay it under both schedulers and demand
/// bit-identical reports.
void register_fault_matrix(ScenarioRegistry& registry) {
  const auto base = [](const char* name) {
    return ScenarioBuilder().name(name).workload(Workload::fib(8));
  };
  // Doorbell pulse lost in transit: the watchdog re-rings (window 2048 —
  // comfortably above the ~600-cycle healthy round trip, so only the lost
  // pulse retries) and the idempotent BATCH_COUNT handshake absorbs it.
  registry.add(base("faults/doorbell_drop")
                   .drain_burst(4)
                   .doorbell_retry(2048, 3)
                   .faults(sim::FaultPlan::parse("doorbell_drop@1"))
                   .build(),
               {"fault_matrix"});
  // Doorbell duplicated in transit: the second pulse collapses into the
  // pending flag; the writer pairs the injection at verdict read.
  registry.add(base("faults/doorbell_dup")
                   .drain_burst(4)
                   .faults(sim::FaultPlan::parse("doorbell_dup@2"))
                   .build(),
               {"fault_matrix"});
  // Batch-MAC bit corruption without re-request: the RoT blames slot 0 and
  // the pipeline fails closed (cfi_fault, zero false negatives).
  registry.add(base("faults/mac_corrupt_halt")
                   .drain_burst(8)
                   .batch_mac(true)
                   .faults(sim::FaultPlan::parse("mac_corrupt@1#13"))
                   .build(),
               {"fault_matrix"});
  // Same corruption with the re-request protocol: one retransmission, then
  // a clean run.
  registry.add(base("faults/mac_rerequest")
                   .drain_burst(8)
                   .batch_mac(true)
                   .mac_rerequest(true)
                   .faults(sim::FaultPlan::parse("mac_corrupt@1#200"))
                   .build(),
               {"fault_matrix"});
  // Forced-overflow burst (6 push attempts) under each policy.  The lossy
  // policies run at depth 2 where genuine fulls also occur (fail-open's
  // false-negative window is the whole point of that row); fail-closed runs
  // at depth 8 so the *forced* burst — not an incidental early fill — is
  // what trips the halt (ordinal 5 arrives while the queue still has room).
  registry.add(base("faults/overflow_backpressure")
                   .queue_depth(2)
                   .faults(sim::FaultPlan::parse("queue_overflow@5#6"))
                   .build(),
               {"fault_matrix"});
  registry.add(base("faults/overflow_failclosed")
                   .queue_depth(8)
                   .overflow_policy(OverflowPolicy::kFailClosed)
                   .faults(sim::FaultPlan::parse("queue_overflow@5#6"))
                   .build(),
               {"fault_matrix"});
  registry.add(base("faults/overflow_failopen")
                   .queue_depth(2)
                   .overflow_policy(OverflowPolicy::kFailOpen)
                   .faults(sim::FaultPlan::parse("queue_overflow@5#6"))
                   .build(),
               {"fault_matrix"});
  // Queue-word bit flips through the SECDED path: an even param is a
  // single-bit flip (corrected, run unaffected); an odd param adds a second
  // flip (detected-uncorrectable, fails closed).
  registry.add(base("faults/mem_flip_corrected")
                   .faults(sim::FaultPlan::parse("mem_flip@3#42"))
                   .build(),
               {"fault_matrix"});
  registry.add(base("faults/mem_flip_fatal")
                   .faults(sim::FaultPlan::parse("mem_flip@3#43"))
                   .build(),
               {"fault_matrix"});
  // RoT stall (400 cycles) shorter than the watchdog window (2048): the
  // service is late but no retry fires; the injection pairs at verdict
  // read and the stall shows up as degraded cycles.
  registry.add(base("faults/rot_stall")
                   .drain_burst(4)
                   .doorbell_retry(2048, 4)
                   .faults(sim::FaultPlan::parse("rot_stall@0#400"))
                   .build(),
               {"fault_matrix"});
  // Every site in one plan, on a queue deep enough (128 > what the 134-log
  // workload can accumulate) that only the FORCED overflow ever trips the
  // policy.  Timescales force two schedules: the host program retires in
  // ~1k cycles while one RoT round trip costs ~600, so under fail-closed —
  // which never stalls the host — the forced overflow halts the run while
  // batch 0 is still in flight.  The closed plan therefore front-loads
  // every site into batch 0 (ring 0 stalls the RoT, the duplicated pulse
  // is itself dropped in transit and re-rung by the watchdog, MAC transfer
  // 0 is corrupted); nothing is ever dropped, so false negatives are zero
  // by construction, and sites whose pairing needed the verdict read stay
  // injected-but-unpaired when the halt preempts it.  The open plan
  // spreads the same sites across the post-program drain (which fail-open
  // lets finish), so every degradation mechanism runs to completion — and
  // the logs the forced burst drops desynchronise the shadow stack, the
  // honest cost of fail-open on a stateful policy.
  registry.add(base("faults/all_sites_closed")
                   .queue_depth(128)
                   .drain_burst(8)
                   .batch_mac(true)
                   .mac_rerequest(true)
                   .doorbell_retry(512, 4)
                   .overflow_policy(OverflowPolicy::kFailClosed)
                   .faults(sim::FaultPlan::parse(
                       "rot_stall@0#400+doorbell_dup@0+doorbell_drop@1+"
                       "mac_corrupt@0#200+mem_flip@30#42+queue_overflow@120#6"))
                   .build(),
               {"fault_matrix"});
  registry.add(base("faults/all_sites_open")
                   .queue_depth(128)
                   .drain_burst(8)
                   .batch_mac(true)
                   .mac_rerequest(true)
                   .doorbell_retry(512, 4)
                   .overflow_policy(OverflowPolicy::kFailOpen)
                   .faults(sim::FaultPlan::parse(
                       "rot_stall@0#400+doorbell_dup@1+mac_corrupt@2#200+"
                       "doorbell_drop@3+mem_flip@30#42+queue_overflow@120#6"))
                   .build(),
               {"fault_matrix"});
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::global() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry built;
    register_fig1_liveness(built);
    register_drain_study(built);
    register_drain_hysteresis(built);
    register_attacks(built);
    register_attack_matrix(built);
    register_ablation(built);
    register_fault_matrix(built);
    return built;
  }();
  return registry;
}

}  // namespace titan::api
