#include "api/scenario.hpp"

#include <sstream>

#include "sim/sweep_doc.hpp"
#include "soc/mailbox.hpp"
#include "workloads/programs.hpp"

namespace titan::api {

namespace {

cfi::Engine to_cfi(Engine engine) {
  return engine == Engine::kLockStep ? cfi::Engine::kLockStep
                                     : cfi::Engine::kEventDriven;
}

cfi::OverflowPolicy to_cfi(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kFailClosed:
      return cfi::OverflowPolicy::kFailClosed;
    case OverflowPolicy::kFailOpen:
      return cfi::OverflowPolicy::kFailOpen;
    case OverflowPolicy::kBackPressure:
      break;
  }
  return cfi::OverflowPolicy::kBackPressure;
}

}  // namespace

// ---- Workload ---------------------------------------------------------------

Workload Workload::fib(unsigned n) {
  Workload w;
  w.kind_ = Kind::kFib;
  w.param_ = n;
  w.serialized_ = "fib(" + std::to_string(n) + ")";
  return w;
}

Workload Workload::matmul(unsigned n) {
  Workload w;
  w.kind_ = Kind::kMatmul;
  w.param_ = n;
  w.serialized_ = "matmul(" + std::to_string(n) + ")";
  return w;
}

Workload Workload::crc32(unsigned len) {
  Workload w;
  w.kind_ = Kind::kCrc32;
  w.param_ = len;
  w.serialized_ = "crc32(" + std::to_string(len) + ")";
  return w;
}

Workload Workload::quicksort(unsigned n) {
  Workload w;
  w.kind_ = Kind::kQuicksort;
  w.param_ = n;
  w.serialized_ = "quicksort(" + std::to_string(n) + ")";
  return w;
}

Workload Workload::stats(unsigned n) {
  Workload w;
  w.kind_ = Kind::kStats;
  w.param_ = n;
  w.serialized_ = "stats(" + std::to_string(n) + ")";
  return w;
}

Workload Workload::call_chain(unsigned depth) {
  Workload w;
  w.kind_ = Kind::kCallChain;
  w.param_ = depth;
  w.serialized_ = "call_chain(" + std::to_string(depth) + ")";
  return w;
}

Workload Workload::indirect_dispatch(unsigned iterations) {
  Workload w;
  w.kind_ = Kind::kIndirectDispatch;
  w.param_ = iterations;
  w.serialized_ = "indirect_dispatch(" + std::to_string(iterations) + ")";
  return w;
}

Workload Workload::rop_victim() {
  Workload w;
  w.kind_ = Kind::kRopVictim;
  w.serialized_ = "rop_victim()";
  return w;
}

Workload Workload::random_callgraph(std::uint64_t seed, unsigned functions,
                                    bool inject_rop) {
  Workload w;
  w.kind_ = Kind::kRandomCallgraph;
  w.param_ = seed;
  w.functions_ = functions;
  w.inject_rop_ = inject_rop;
  std::ostringstream text;
  text << "random_callgraph(" << seed << ',' << functions << ','
       << (inject_rop ? 1 : 0) << ")";
  w.serialized_ = text.str();
  return w;
}

Workload Workload::image(std::string name, rv::Image image) {
  Workload w;
  w.kind_ = Kind::kImage;
  // Fingerprint the actual bytes (and the base) so the identity follows the
  // program, not just the label.
  std::string blob;
  blob.reserve(image.bytes.size() + 16);
  blob.append(std::to_string(image.base)).push_back(':');
  blob.append(reinterpret_cast<const char*>(image.bytes.data()),
              image.bytes.size());
  w.serialized_ = "image:" + name + ":" + sim::fingerprint_hex(blob);
  w.image_ = std::make_shared<const rv::Image>(std::move(image));
  return w;
}

rv::Image Workload::build() const {
  switch (kind_) {
    case Kind::kFib:
      return workloads::fib_recursive(static_cast<unsigned>(param_));
    case Kind::kMatmul:
      return workloads::matmul(static_cast<unsigned>(param_));
    case Kind::kCrc32:
      return workloads::crc32(static_cast<unsigned>(param_));
    case Kind::kQuicksort:
      return workloads::quicksort(static_cast<unsigned>(param_));
    case Kind::kStats:
      return workloads::stats(static_cast<unsigned>(param_));
    case Kind::kCallChain:
      return workloads::call_chain(static_cast<unsigned>(param_));
    case Kind::kIndirectDispatch:
      return workloads::indirect_dispatch(static_cast<unsigned>(param_));
    case Kind::kRopVictim:
      return workloads::rop_victim();
    case Kind::kRandomCallgraph:
      return workloads::random_callgraph(param_, functions_, inject_rop_);
    case Kind::kImage:
      return *image_;
    case Kind::kUnset:
      break;
  }
  throw ScenarioError("Workload: build() on an unset workload");
}

// ---- Scenario ---------------------------------------------------------------

std::unique_ptr<cfi::SocTop> Scenario::make_soc() const {
  return std::make_unique<cfi::SocTop>(soc_, workload_image(), rom_);
}

std::string Scenario::serialize() const {
  std::ostringstream text;
  // An attack scenario has no Workload; the sentinel pairs with the
  // conditional `attack=` key below (from_serialized enforces the pairing).
  text << "scenario{name=" << name_ << ";workload="
       << (attack_ ? std::string_view("attack")
                   : std::string_view(workload_.serialized()))
       << ";fw=" << (fw_.variant == fw::FwVariant::kIrq ? "irq" : "polling")
       << ";fabric="
       << (soc_.fabric == cfi::RotFabric::kBaseline ? "baseline" : "optimized")
       << ";queue_depth=" << soc_.queue_depth << ";burst=" << soc_.drain_burst
       << ";mac=" << (soc_.drain_burst > 1 && soc_.mac_batches ? 1 : 0)
       << ";dwait=" << soc_.drain_wait << ";dtimeout=" << soc_.drain_timeout
       << ";ss=" << fw_.ss_capacity << ";spill=" << fw_.spill_block
       << ";jt=" << (fw_.enable_jump_table ? 1 : 0)
       << ";pmp=" << (soc_.enable_pmp ? 1 : 0)
       << ";trace=" << (soc_.trace_commits ? 1 : 0);
  // Resilience knobs appear only when set, so every pre-existing scenario
  // keeps its fingerprint byte for byte.
  if (!soc_.faults.empty()) {
    text << ";faults=" << soc_.faults.serialize();
  }
  if (soc_.overflow_policy != cfi::OverflowPolicy::kBackPressure) {
    text << ";ofp="
         << (soc_.overflow_policy == cfi::OverflowPolicy::kFailClosed
                 ? "closed"
                 : "open");
  }
  if (soc_.doorbell_timeout > 0) {
    text << ";dbretry=" << soc_.doorbell_timeout << "/"
         << soc_.doorbell_max_retries;
  }
  if (soc_.mac_rerequest) {
    text << ";macrr=1";
  }
  if (attack_) {
    text << ";attack=" << attack_->serialize();
  }
  text << "}";
  return text.str();
}

Scenario Scenario::with_engine(Engine engine) const {
  Scenario copy = *this;
  copy.soc_.engine = to_cfi(engine);
  return copy;
}

Scenario Scenario::with_warm_start(
    std::shared_ptr<const sim::Snapshot> snapshot) const {
  Scenario copy = *this;
  copy.warm_start_ = std::move(snapshot);
  return copy;
}

// ---- ScenarioBuilder --------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::name(std::string value) {
  name_ = std::move(value);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::workload(Workload value) {
  workload_ = std::move(value);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::attack(attacks::AttackPlan plan) {
  attack_ = plan;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::firmware(Firmware value) {
  firmware_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fabric(Fabric value) {
  fabric_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::queue_depth(std::size_t value) {
  queue_depth_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::drain_burst(unsigned value) {
  drain_burst_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::batch_mac(bool value) {
  batch_mac_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::drain_wait(unsigned wait, sim::Cycle timeout) {
  drain_wait_ = wait;
  drain_timeout_ = timeout;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::engine(Engine value) {
  engine_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::warm_start(
    std::shared_ptr<const sim::Snapshot> snapshot) {
  warm_start_ = std::move(snapshot);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::faults(sim::FaultPlan plan) {
  faults_ = std::move(plan);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::overflow_policy(OverflowPolicy value) {
  overflow_policy_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::doorbell_retry(sim::Cycle timeout,
                                                 unsigned max_retries) {
  doorbell_timeout_ = timeout;
  doorbell_max_retries_ = max_retries;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::mac_rerequest(bool value) {
  mac_rerequest_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::shadow_stack(unsigned capacity,
                                               unsigned spill_block) {
  ss_capacity_ = capacity;
  spill_block_ = spill_block;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::jump_table(bool value) {
  jump_table_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pmp(bool value) {
  pmp_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::trace_commits(bool value) {
  trace_commits_ = value;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::max_cycles(sim::Cycle value) {
  max_cycles_ = value;
  return *this;
}

Scenario ScenarioBuilder::build() const {
  if (name_.empty()) {
    throw ScenarioError("ScenarioBuilder: a scenario needs a name");
  }
  if (attack_ && workload_.set()) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ +
        "' has both a workload and an attack plan (an attack scenario's "
        "program is generated from the plan)");
  }
  if (!workload_.set() && !attack_) {
    throw ScenarioError("ScenarioBuilder: scenario '" + name_ +
                        "' has no workload");
  }
  if (attack_) {
    try {
      attacks::validate(*attack_);
    } catch (const std::invalid_argument& error) {
      throw ScenarioError("ScenarioBuilder: scenario '" + name_ +
                          "': " + error.what());
    }
  }
  if (queue_depth_ == 0) {
    throw ScenarioError("ScenarioBuilder: scenario '" + name_ +
                        "': queue_depth must be >= 1");
  }
  if (drain_burst_ == 0 || drain_burst_ > soc::Mailbox::kBatchSlots) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ + "': drain_burst " +
        std::to_string(drain_burst_) + " outside [1, " +
        std::to_string(soc::Mailbox::kBatchSlots) +
        "] (the mailbox batch register file has kBatchSlots log slots)");
  }
  if (batch_mac_ && drain_burst_ == 1) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ +
        "': batch_mac requires drain_burst > 1 (the one-at-a-time drain "
        "has no batch to authenticate)");
  }
  if (drain_wait_ > drain_burst_) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ + "': drain_wait " +
        std::to_string(drain_wait_) + " exceeds drain_burst " +
        std::to_string(drain_burst_) +
        " (a wait threshold deeper than one transfer can never be met)");
  }
  if (drain_wait_ > queue_depth_) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ + "': drain_wait " +
        std::to_string(drain_wait_) + " exceeds queue_depth " +
        std::to_string(queue_depth_) +
        " (the queue can never accumulate that many logs)");
  }
  if (drain_wait_ > 1 && drain_timeout_ == 0) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ +
        "': the hysteresis drain policy needs a nonzero timeout (pending "
        "logs must not wait forever on a quiet program)");
  }
  if (drain_timeout_ > 100'000) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ +
        "': drain_timeout above 100000 cycles would dominate the "
        "post-program drain guard");
  }
  if (ss_capacity_ == 0 || spill_block_ == 0 || spill_block_ > ss_capacity_) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ +
        "': shadow-stack geometry needs 1 <= spill_block <= capacity (got "
        "capacity " +
        std::to_string(ss_capacity_) + ", spill_block " +
        std::to_string(spill_block_) + ")");
  }
  if (max_cycles_ == 0) {
    throw ScenarioError("ScenarioBuilder: scenario '" + name_ +
                        "': max_cycles must be nonzero");
  }
  if (doorbell_timeout_ > 0) {
    if (drain_burst_ < 2) {
      throw ScenarioError(
          "ScenarioBuilder: scenario '" + name_ +
          "': doorbell_retry requires drain_burst > 1 (the retry protocol "
          "needs the idempotent BATCH_COUNT handshake, which the single-log "
          "register file lacks)");
    }
    if (doorbell_timeout_ > 100'000) {
      throw ScenarioError(
          "ScenarioBuilder: scenario '" + name_ +
          "': doorbell_retry timeout above 100000 cycles would dominate the "
          "post-program drain guard");
    }
    if (doorbell_max_retries_ < 1 || doorbell_max_retries_ > 8) {
      throw ScenarioError(
          "ScenarioBuilder: scenario '" + name_ +
          "': doorbell_retry max_retries must be in [1, 8]");
    }
  }
  if (mac_rerequest_ && !batch_mac_) {
    throw ScenarioError(
        "ScenarioBuilder: scenario '" + name_ +
        "': mac_rerequest requires batch_mac (there is no burst MAC whose "
        "failure could be re-requested)");
  }
  for (const sim::FaultSpec& spec : faults_.faults) {
    if (spec.site == sim::FaultSite::kDoorbellDrop && doorbell_timeout_ == 0) {
      throw ScenarioError(
          "ScenarioBuilder: scenario '" + name_ +
          "': a fault plan with doorbell_drop requires doorbell_retry() — "
          "without the watchdog a dropped doorbell hangs the CFI pipeline "
          "forever");
    }
    if (spec.site == sim::FaultSite::kRotStall && spec.param > 100'000) {
      throw ScenarioError(
          "ScenarioBuilder: scenario '" + name_ +
          "': rot_stall width above 100000 cycles would dominate the "
          "post-program drain guard");
    }
    if (spec.site == sim::FaultSite::kQueueOverflow && spec.param > 4096) {
      throw ScenarioError(
          "ScenarioBuilder: scenario '" + name_ +
          "': queue_overflow burst width above 4096 push attempts is outside "
          "any realistic transient");
    }
  }

  Scenario scenario;
  scenario.name_ = name_;
  scenario.workload_ = workload_;
  scenario.attack_ = attack_;
  if (attack_) {
    // One generate serves the image and the scoring wiring.
    attacks::AttackImage adversarial = attacks::generate(*attack_);
    scenario.image_ =
        std::make_shared<const rv::Image>(std::move(adversarial.image));
    scenario.soc_.attack_edges = std::move(adversarial.hijack_pcs);
    if (jump_table_) {
      // Forward-edge enforcement treats an empty jump table as inert, so an
      // attack scenario with jt=1 provisions the generated image's legitimate
      // indirect targets — the hijacked targets are exactly what's missing.
      scenario.soc_.jump_table.reserve(adversarial.legit_targets.size());
      for (const std::uint64_t target : adversarial.legit_targets) {
        scenario.soc_.jump_table.push_back(
            static_cast<std::uint32_t>(target));
      }
      scenario.soc_.jump_table_base = fw::FwLayout::kJumpTable;
    }
  } else {
    scenario.image_ = std::make_shared<const rv::Image>(workload_.build());
  }

  // The single source of truth for each co-designed knob: both halves are
  // derived here from one builder field, so they cannot disagree.
  scenario.soc_.queue_depth = queue_depth_;
  scenario.soc_.fabric = fabric_ == Fabric::kBaseline
                             ? cfi::RotFabric::kBaseline
                             : cfi::RotFabric::kOptimized;
  scenario.soc_.drain_burst = drain_burst_;
  scenario.soc_.mac_batches = batch_mac_;
  scenario.soc_.drain_wait = drain_wait_;
  scenario.soc_.drain_timeout = drain_timeout_;
  scenario.soc_.enable_pmp = pmp_;
  scenario.soc_.trace_commits = trace_commits_;
  scenario.soc_.max_cycles = max_cycles_;
  scenario.soc_.engine = to_cfi(engine_);
  scenario.soc_.faults = faults_;
  scenario.soc_.overflow_policy = to_cfi(overflow_policy_);
  scenario.soc_.doorbell_timeout = doorbell_timeout_;
  scenario.soc_.doorbell_max_retries = doorbell_max_retries_;
  scenario.soc_.mac_rerequest = mac_rerequest_;

  scenario.fw_.variant = firmware_ == Firmware::kIrq ? fw::FwVariant::kIrq
                                                     : fw::FwVariant::kPolling;
  scenario.fw_.batch_capacity = drain_burst_;
  scenario.fw_.batch_mac = batch_mac_;
  scenario.fw_.ss_capacity = ss_capacity_;
  scenario.fw_.spill_block = spill_block_;
  scenario.fw_.enable_jump_table = jump_table_;
  // The degradation protocols are co-designed like the drain itself: one
  // builder field configures both the Log Writer and the firmware generator.
  scenario.fw_.retry_handshake = doorbell_timeout_ > 0;
  scenario.fw_.mac_rerequest = mac_rerequest_;
  scenario.rom_ = fw::shared_rom(scenario.fw_);
  scenario.warm_start_ = warm_start_;
  return scenario;
}

}  // namespace titan::api
