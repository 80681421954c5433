// Unified Scenario API — the one public way to define a TitanCFI experiment.
//
// The paper's Fig. 1 system is a co-designed pair: the host-side CFI
// machinery (SocConfig) and the RoT firmware (FirmwareConfig) must agree on
// drain burst, batch MAC, and policy, or CFI checking silently degrades.
// The seed API let every bench and example wire the two halves by hand and
// only caught skew at SocTop construction time.  This layer makes skew
// unrepresentable instead: a ScenarioBuilder holds each co-designed knob
// ONCE (drain_burst(n) is the only way to pick a burst, and it configures
// both the Log Writer and the firmware generator), and build() validates the
// whole combination before anything is instantiated.
//
// A Scenario is immutable and deterministically serializable; the serialized
// form is the config fingerprint every sweep report document carries, so a
// report's identity is derived from the exact object the simulation ran
// with — never from a hand-maintained description.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "attacks/attack.hpp"
#include "firmware/builder.hpp"
#include "rv/assembler.hpp"
#include "titancfi/soc_top.hpp"

namespace titan::api {

/// Invalid scenario combination rejected by ScenarioBuilder::build().
class ScenarioError : public std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Firmware organisation (paper Table I).  The api-level mirror of
/// fw::FwVariant so callers never touch the firmware layer directly.
enum class Firmware { kIrq, kPolling };

/// RoT interconnect generation.  Mirror of cfi::RotFabric.
enum class Fabric { kBaseline, kOptimized };

/// Co-simulation scheduler (mirror of cfi::Engine).  Not part of a
/// scenario's serialized identity: both engines produce bit-identical
/// results (enforced by tests/engine_equivalence_test), so the engine is an
/// execution strategy — like the thread count — not configuration.
enum class Engine { kLockStep, kEventDriven };

/// Response when a commit log cannot enter the CFI Queue (mirror of
/// cfi::OverflowPolicy).  kBackPressure is the paper's lossless stall;
/// kFailClosed halts the host rather than miss a check; kFailOpen drops the
/// log and counts it (dropped returns are reported as false negatives).
enum class OverflowPolicy { kBackPressure, kFailClosed, kFailOpen };

/// Typed, serializable workload descriptor: a named reference to one of the
/// built-in program generators (src/workloads) or a caller-assembled image.
class Workload {
 public:
  Workload() = default;

  static Workload fib(unsigned n);
  static Workload matmul(unsigned n);
  static Workload crc32(unsigned len);
  static Workload quicksort(unsigned n);
  static Workload stats(unsigned n);
  static Workload call_chain(unsigned depth);
  static Workload indirect_dispatch(unsigned iterations);
  static Workload rop_victim();
  static Workload random_callgraph(std::uint64_t seed, unsigned functions = 8,
                                   bool inject_rop = false);
  /// A caller-assembled image.  `name` labels it in the serialized identity;
  /// the image bytes are fingerprinted so two different programs under the
  /// same name cannot alias.
  static Workload image(std::string name, rv::Image image);

  /// Inverse of serialized() for every named generator: "fib(8)" round-trips
  /// to Workload::fib(8), and so on.  Throws ScenarioError naming the
  /// offending token on an unknown generator, malformed argument list, or
  /// out-of-range parameter.  "image:..." workloads are rejected — their
  /// serialized form is a fingerprint of bytes a wire peer does not have, so
  /// they are deliberately not wire-constructible.
  static Workload from_serialized(std::string_view text);

  [[nodiscard]] bool set() const { return !serialized_.empty(); }
  /// Deterministic identity, e.g. "fib(8)" or "image:quickstart:<hash>".
  [[nodiscard]] const std::string& serialized() const { return serialized_; }
  /// Materialise the RV64 program image.
  [[nodiscard]] rv::Image build() const;

 private:
  enum class Kind {
    kUnset,
    kFib,
    kMatmul,
    kCrc32,
    kQuicksort,
    kStats,
    kCallChain,
    kIndirectDispatch,
    kRopVictim,
    kRandomCallgraph,
    kImage,
  };

  Kind kind_ = Kind::kUnset;
  std::uint64_t param_ = 0;       // n / len / depth / iterations / seed
  unsigned functions_ = 0;        // random_callgraph only
  bool inject_rop_ = false;       // random_callgraph only
  std::shared_ptr<const rv::Image> image_;  // kImage only (shared: Workload is a value)
  std::string serialized_;
};

/// A validated, immutable (SocConfig, FirmwareConfig, workload) triple.
/// Only ScenarioBuilder::build() creates one, so a Scenario that exists is a
/// combination the system can actually run without protocol skew.
class Scenario {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Workload& workload() const { return workload_; }
  /// Attack-corpus plan (nullopt for benign scenarios).  An attack scenario
  /// has no Workload: its program is generated from the plan.
  [[nodiscard]] const std::optional<attacks::AttackPlan>& attack() const {
    return attack_;
  }
  [[nodiscard]] const cfi::SocConfig& soc_config() const { return soc_; }
  [[nodiscard]] const fw::FirmwareConfig& firmware_config() const { return fw_; }

  // Accessor names deliberately avoid the poisoned raw-surface identifiers
  // (api/enforce.hpp) so benches can call them after the poison pragma.
  /// The host program, built once by ScenarioBuilder::build() and shared by
  /// copies and every SoC made.  An attack scenario's image comes from the
  /// plan (attacks::generate is deterministic), so there are no image bytes
  /// to fingerprint and the serialized plan IS the program identity.
  [[nodiscard]] const rv::Image& workload_image() const { return *image_; }
  [[nodiscard]] const rv::Image& firmware_image() const {
    return rom_->image();
  }
  /// Instantiate the full co-simulation (host + CFI stage + RoT) for this
  /// scenario — the only construction path the benches and examples use.
  [[nodiscard]] std::unique_ptr<cfi::SocTop> make_soc() const;

  /// Deterministic serialization of every knob.  This string (hashed) IS the
  /// scenario's config fingerprint — see ScenarioSet::header().  The engine
  /// is deliberately excluded (results are engine-independent), so a
  /// lock-step witness run and an event-driven run share one fingerprint.
  [[nodiscard]] std::string serialize() const;

  /// Copy of this scenario running under `engine` (identity unchanged).
  [[nodiscard]] Scenario with_engine(Engine engine) const;

  /// Warm-start checkpoint to fork from (null == cold run from cycle 0).
  /// Like the engine, this is an execution strategy, not configuration: a
  /// forked run is bit-exact versus a cold run (enforced by
  /// tests/warm_start_test), so the checkpoint is excluded from serialize()
  /// and the config fingerprint.  run_scenario() validates the snapshot's
  /// embedded scenario identity against serialize() and rejects a checkpoint
  /// captured for any other scenario.
  [[nodiscard]] const std::shared_ptr<const sim::Snapshot>& warm_start() const {
    return warm_start_;
  }
  /// Copy of this scenario forking from `snapshot` (identity unchanged).
  [[nodiscard]] Scenario with_warm_start(
      std::shared_ptr<const sim::Snapshot> snapshot) const;

 private:
  friend class ScenarioBuilder;
  Scenario() = default;

  std::string name_;
  Workload workload_;
  std::optional<attacks::AttackPlan> attack_;
  cfi::SocConfig soc_;
  fw::FirmwareConfig fw_;
  /// The RoT ROM built from fw_, shared by copies and every SoC made.
  std::shared_ptr<const ibex::FirmwareRom> rom_;
  /// The host program built from workload_ or attack_, shared likewise.
  std::shared_ptr<const rv::Image> image_;
  std::shared_ptr<const sim::Snapshot> warm_start_;
};

/// Fluent scenario construction.  Every co-designed value is a single
/// setter: drain_burst() and batch_mac() configure the Log Writer AND the
/// firmware generator together, so the two sides cannot disagree.
class ScenarioBuilder {
 public:
  ScenarioBuilder& name(std::string value);
  ScenarioBuilder& workload(Workload value);
  /// Run an adversarial image from the attack corpus instead of a benign
  /// workload (mutually exclusive with workload()).  The plan is validated by
  /// build(), serialized into the scenario fingerprint (`workload=attack` +
  /// `attack=<plan>`), and wired through to the SoC: the generated image's
  /// hijacked PCs become SocConfig::attack_edges, and — when jump_table() is
  /// on — its legitimate indirect targets are provisioned into the RoT jump
  /// table so forward-edge enforcement has real contents to check against.
  ScenarioBuilder& attack(attacks::AttackPlan plan);
  ScenarioBuilder& firmware(Firmware value);
  ScenarioBuilder& fabric(Fabric value);
  ScenarioBuilder& queue_depth(std::size_t value);
  /// Commit logs per doorbell (1 == the paper's one-at-a-time drain).  Sets
  /// both SocConfig::drain_burst and FirmwareConfig::batch_capacity.
  ScenarioBuilder& drain_burst(unsigned value);
  /// HMAC each burst end to end (requires drain_burst > 1).  Sets both
  /// SocConfig::mac_batches and FirmwareConfig::batch_mac.
  ScenarioBuilder& batch_mac(bool value);
  /// Hysteresis drain policy (ROADMAP "adaptive drain burst"): an idle Log
  /// Writer defers its next drain until the queue holds `wait` logs or
  /// `timeout` cycles have elapsed since the first pending log.  wait == 0
  /// (default) drains immediately — the paper's behaviour, which keeps
  /// Table I/II exact.
  ScenarioBuilder& drain_wait(unsigned wait, sim::Cycle timeout);
  /// Deterministic fault schedule (see sim::FaultPlan).  Serialized into the
  /// scenario fingerprint, so faulted sweeps cannot alias fault-free ones.
  /// A plan containing doorbell drops requires doorbell_retry() — without
  /// the watchdog a dropped doorbell would hang the pipeline forever.
  ScenarioBuilder& faults(sim::FaultPlan plan);
  /// Overflow response (default kBackPressure, the paper's behaviour).
  ScenarioBuilder& overflow_policy(OverflowPolicy value);
  /// Doorbell watchdog: re-ring after `timeout` cycles without a completion,
  /// doubling the window each retry; `max_retries` re-rings then fail
  /// closed.  Requires drain_burst > 1 (the firmware side of the retry
  /// handshake is generated automatically).
  ScenarioBuilder& doorbell_retry(sim::Cycle timeout, unsigned max_retries = 3);
  /// RoT-side MAC-failure re-request (requires batch_mac): MAC mismatches
  /// ask the Log Writer to retransmit instead of flagging a violation.
  ScenarioBuilder& mac_rerequest(bool value);
  ScenarioBuilder& shadow_stack(unsigned capacity, unsigned spill_block);
  ScenarioBuilder& jump_table(bool value);
  ScenarioBuilder& pmp(bool value);
  ScenarioBuilder& trace_commits(bool value);
  ScenarioBuilder& max_cycles(sim::Cycle value);
  /// Co-simulation scheduler (default: the event-driven engine; results are
  /// bit-identical to lock-step, which survives as the equivalence witness).
  ScenarioBuilder& engine(Engine value);
  /// Fork the run from a checkpoint instead of simulating from cycle 0 (see
  /// api::capture_checkpoint).  Null clears.  Not part of the scenario
  /// identity; the snapshot must have been captured for this exact scenario.
  ScenarioBuilder& warm_start(std::shared_ptr<const sim::Snapshot> snapshot);

  /// Validate and freeze.  Throws ScenarioError naming the first invalid
  /// combination (empty name, unset workload, zero queue depth, burst out of
  /// [1, soc::Mailbox::kBatchSlots], MAC at burst 1, degenerate shadow-stack
  /// geometry).
  [[nodiscard]] Scenario build() const;

  /// Inverse of Scenario::serialize(): parse the exact fingerprint grammar
  /// serialize() emits, feed every knob through this builder, and build() —
  /// so a deserialized scenario passes the same validation a hand-built one
  /// does, and `from_serialized(s.serialize()).serialize() == s.serialize()`
  /// for every buildable scenario.  This is how a wire request names an
  /// arbitrary scenario (api::wire "spec" requests).  Throws ScenarioError
  /// naming the offending key/token on malformed text, unknown keys,
  /// duplicate keys, missing required keys, or out-of-range values.
  /// Engine, warm-start, and max_cycles are not part of the grammar (they
  /// are execution strategy, excluded from serialize()); the result carries
  /// their defaults.
  [[nodiscard]] static Scenario from_serialized(std::string_view text);

 private:
  std::string name_;
  Workload workload_;
  std::optional<attacks::AttackPlan> attack_;
  Firmware firmware_ = Firmware::kIrq;
  Fabric fabric_ = Fabric::kBaseline;
  std::size_t queue_depth_ = 8;
  unsigned drain_burst_ = 1;
  bool batch_mac_ = false;
  unsigned drain_wait_ = 0;
  sim::Cycle drain_timeout_ = 0;
  sim::FaultPlan faults_;
  OverflowPolicy overflow_policy_ = OverflowPolicy::kBackPressure;
  sim::Cycle doorbell_timeout_ = 0;
  unsigned doorbell_max_retries_ = 3;
  bool mac_rerequest_ = false;
  unsigned ss_capacity_ = 32;
  unsigned spill_block_ = 16;
  bool jump_table_ = false;
  bool pmp_ = true;
  bool trace_commits_ = false;
  sim::Cycle max_cycles_ = 2'000'000'000;
  Engine engine_ = Engine::kEventDriven;
  std::shared_ptr<const sim::Snapshot> warm_start_;
};

}  // namespace titan::api
