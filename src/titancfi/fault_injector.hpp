// Runtime driver of a sim::FaultPlan.
//
// Components that host an injection site call fire(site, now) at each site
// event; the injector advances that site's ordinal and reports whether a
// scheduled fault triggers (returning its param).  Degradation machinery
// calls note_detected(site, now) when it catches the consequence; the
// injector pairs the detection with the oldest undetected injection at that
// site and buckets the latency.  Everything is a pure function of the plan
// and the (engine-invariant) event stream, so the assembled ResilienceStats
// are bit-exact across both co-simulation engines.
#pragma once

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "sim/fault.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace titan::cfi {

class FaultInjector {
 public:
  explicit FaultInjector(const sim::FaultPlan& plan);

  /// Advance `site`'s event ordinal; if the plan schedules a fault at this
  /// ordinal, record the injection and return its param.
  std::optional<std::uint64_t> fire(sim::FaultSite site, sim::Cycle now);

  /// Pair a detection with the oldest undetected injection at `site` (no-op
  /// when none is pending, e.g. a retry that was not fault-induced).
  void note_detected(sim::FaultSite site, sim::Cycle now);

  /// Upcoming `site` events, starting at the next one, that no fault spec
  /// targets (UINT64_MAX when none is scheduled at or past the ordinal).
  /// The event engine clamps a fast-forward window to this count, so every
  /// event it skips is one that fire() would have let pass.
  [[nodiscard]] std::uint64_t quiet_events(sim::FaultSite site) const {
    const std::uint64_t ordinal = ordinal_[static_cast<std::size_t>(site)];
    std::uint64_t quiet = std::numeric_limits<std::uint64_t>::max();
    for (const sim::FaultSpec& spec : plan_.faults) {
      if (spec.site == site && spec.nth >= ordinal) {
        quiet = std::min(quiet, spec.nth - ordinal);
      }
    }
    return quiet;
  }

  /// Advance `site`'s ordinal past `count` events without firing; valid only
  /// for count <= quiet_events(site).
  void skip(sim::FaultSite site, std::uint64_t count) {
    ordinal_[static_cast<std::size_t>(site)] += count;
  }

  /// Injected/detected counts and the detection-latency histogram.  The
  /// retry/drop/degraded counters live in the components that own them;
  /// SocTop assembles the full block.
  [[nodiscard]] const sim::ResilienceStats& stats() const { return stats_; }

  /// Checkpoint support: per-site event ordinals, the undetected-injection
  /// queues (for latency pairing), and the accumulated stats.  The plan
  /// itself is config-derived and not serialized.
  void save_state(sim::SnapshotWriter& writer) const {
    for (const std::uint64_t ordinal : ordinal_) {
      writer.u64(ordinal);
    }
    for (const auto& queue : pending_) {
      writer.u64(queue.size());
      for (const sim::Cycle cycle : queue) {
        writer.u64(cycle);
      }
    }
    for (const std::uint64_t count : stats_.injected) writer.u64(count);
    for (const std::uint64_t count : stats_.detected) writer.u64(count);
    for (const std::uint64_t count : stats_.detection_latency) writer.u64(count);
    writer.u64(stats_.doorbell_retries);
    writer.u64(stats_.mac_retries);
    writer.u64(stats_.spurious_completions);
    writer.u64(stats_.dropped_logs);
    writer.u64(stats_.false_negatives);
    writer.u64(stats_.degraded_cycles);
  }
  void load_state(sim::SnapshotReader& reader) {
    for (std::uint64_t& ordinal : ordinal_) {
      ordinal = reader.u64();
    }
    for (auto& queue : pending_) {
      queue.clear();
      const std::uint64_t count = reader.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        queue.push_back(reader.u64());
      }
    }
    for (std::uint64_t& count : stats_.injected) count = reader.u64();
    for (std::uint64_t& count : stats_.detected) count = reader.u64();
    for (std::uint64_t& count : stats_.detection_latency) count = reader.u64();
    stats_.doorbell_retries = reader.u64();
    stats_.mac_retries = reader.u64();
    stats_.spurious_completions = reader.u64();
    stats_.dropped_logs = reader.u64();
    stats_.false_negatives = reader.u64();
    stats_.degraded_cycles = reader.u64();
  }

 private:
  sim::FaultPlan plan_;
  std::array<std::uint64_t, sim::kFaultSiteCount> ordinal_{};
  std::array<std::deque<sim::Cycle>, sim::kFaultSiteCount> pending_;
  sim::ResilienceStats stats_;
};

}  // namespace titan::cfi
