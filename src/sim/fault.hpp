// Seeded, deterministic fault-injection plans.
//
// A FaultPlan is a list of scheduled faults, each firing at a named site the
// moment that site's event ordinal reaches the spec's `nth` (the nth doorbell
// ring, the nth MAC'd burst, the nth CFI-queue push attempt, ...).  Triggers
// are indexed by event ordinal — never by cycle — because the event streams
// of the lock-step and event-driven co-simulation engines are identical while
// their per-cycle schedules are not: an ordinal-indexed plan perturbs both
// engines in exactly the same way, which is what keeps the engine-equivalence
// witness bit-exact under every plan (tests/engine_equivalence_test.cpp).
//
// Plans serialize into the scenario fingerprint (Scenario::serialize), so a
// faulted sweep's report identity names the exact plan the simulations ran
// with, and a plan replayed from its serialized form reproduces the run byte
// for byte.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace titan::sim {

/// Named injection sites across the CFI pipeline.
enum class FaultSite : unsigned {
  kDoorbellDrop = 0,   ///< Nth doorbell ring is lost on the interconnect.
  kDoorbellDuplicate,  ///< Nth doorbell ring is delivered twice.
  kMacCorrupt,         ///< One bit of the nth burst MAC flips in transit.
  kQueueOverflow,      ///< Queue reports full for `param` push attempts.
  kMemBitFlip,         ///< Nth queued log passes a corrupted ECC codeword.
  kRotStall,           ///< RoT clock freezes for `param` cycles at a doorbell.
};
inline constexpr std::size_t kFaultSiteCount = 6;

[[nodiscard]] std::string_view fault_site_name(FaultSite site);
[[nodiscard]] std::optional<FaultSite> fault_site_from_name(
    std::string_view name);

/// One scheduled fault: fire at `site` when its event ordinal (0-based)
/// reaches `nth`.  `param` is site-specific:
///   kMacCorrupt     — bit index into the 256-bit transmitted MAC;
///   kQueueOverflow  — number of consecutive push attempts that see a full
///                     queue (>= 1);
///   kMemBitFlip     — bit 0 selects a double-bit (uncorrectable) flip, the
///                     remaining bits pick the codeword position(s);
///   kRotStall       — stall width in RoT cycles (>= 1);
///   doorbell sites  — unused.
struct FaultSpec {
  FaultSite site = FaultSite::kDoorbellDrop;
  std::uint64_t nth = 0;
  std::uint64_t param = 0;

  bool operator==(const FaultSpec&) const = default;
};

/// An ordered fault schedule.  Value type: copyable, comparable, and
/// round-trippable through serialize()/parse().
struct FaultPlan {
  std::vector<FaultSpec> faults;

  [[nodiscard]] bool empty() const { return faults.empty(); }
  [[nodiscard]] bool has_site(FaultSite site) const;

  /// Deterministic textual form, e.g. "doorbell_drop@1#0+mac_corrupt@0#17"
  /// ("" for the empty plan).  Safe to embed in a scenario serialization.
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(); throws std::invalid_argument on malformed text
  /// (unknown site, missing ordinal, trailing junk).
  [[nodiscard]] static FaultPlan parse(std::string_view text);

  /// Seeded random plan of `count` faults with small ordinals and bounded,
  /// site-appropriate parameters — the fuzz-harness generator.  The same
  /// seed always yields the same plan (sim::Rng).
  [[nodiscard]] static FaultPlan random(std::uint64_t seed, unsigned count);

  bool operator==(const FaultPlan&) const = default;
};

/// Detection-latency histogram geometry: log2 buckets
/// [0], [1], [2,3], [4,7], ... with the last bucket open-ended.
inline constexpr std::size_t kLatencyBuckets = 8;
[[nodiscard]] std::size_t latency_bucket(std::uint64_t latency_cycles);
/// Same geometry with a caller-chosen bucket count (last bucket open-ended).
/// The serving layer reuses this for its request-latency histograms, so one
/// bucketing rule covers detection latencies and service latencies alike.
[[nodiscard]] std::size_t latency_bucket(std::uint64_t value,
                                         std::size_t bucket_count);

/// The resilience block of a run result: what was injected, what the
/// degradation machinery caught, and how much time the system spent in
/// degraded operation.  Deterministic (a pure function of scenario + plan),
/// so it participates in the cross-engine bit-exactness checks.
struct ResilienceStats {
  /// Faults injected / detected, indexed by FaultSite.
  std::array<std::uint64_t, kFaultSiteCount> injected{};
  std::array<std::uint64_t, kFaultSiteCount> detected{};
  /// Injection-to-detection latency (host cycles), log2 buckets.
  std::array<std::uint64_t, kLatencyBuckets> detection_latency{};
  std::uint64_t doorbell_retries = 0;  ///< Watchdog re-rings (backoff).
  std::uint64_t mac_retries = 0;       ///< Burst retransmissions on MAC fail.
  std::uint64_t spurious_completions = 0;  ///< Idle-writer completions eaten.
  /// CF logs that retired unchecked (fail-open overflow drops and
  /// uncorrectable ECC words under the fail-open policy).
  std::uint64_t dropped_logs = 0;
  /// Dropped logs that were returns — the events the paper's shadow-stack
  /// policy enforces, i.e. potential missed violations.  Zero by
  /// construction under the fail-closed policy.
  std::uint64_t false_negatives = 0;
  /// Cycles spent in degraded operation: overflow back-pressure stalls,
  /// timed-out doorbell wait windows, and RoT stall width.
  std::uint64_t degraded_cycles = 0;

  [[nodiscard]] std::uint64_t total_injected() const;
  [[nodiscard]] std::uint64_t total_detected() const;

  bool operator==(const ResilienceStats&) const = default;
};

}  // namespace titan::sim
