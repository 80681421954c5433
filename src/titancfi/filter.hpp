// CFI Filter (paper Sec. IV-B1): one per CVA6 commit port.
//
// "A CFI Filter takes a scoreboard entry as input, which is emitted by the
//  commit port, and generates a commit log. ... the CFI Filter verifies if
//  the retired instruction is relevant to CFI, and it extracts useful
//  metadata, called the commit log."
#pragma once

#include <cstdint>
#include <optional>

#include "cva6/scoreboard.hpp"
#include "sim/snapshot.hpp"
#include "titancfi/commit_log.hpp"

namespace titan::cfi {

class CfiFilter {
 public:
  /// Returns the commit log when the entry is a call, return, or indirect
  /// jump; nullopt otherwise.
  [[nodiscard]] std::optional<CommitLog> filter(
      const cva6::ScoreboardEntry& entry) {
    ++scanned_;
    if (!entry.cfi_relevant()) {
      return std::nullopt;
    }
    ++selected_;
    return CommitLog::from_entry(entry);
  }

  [[nodiscard]] std::uint64_t scanned() const { return scanned_; }
  [[nodiscard]] std::uint64_t selected() const { return selected_; }

  /// Account for `count` entries this filter provably would have scanned (and
  /// rejected) during an event-driven fast-forward window, where per-entry
  /// filter() calls are skipped because no entry is CFI-relevant.  Keeps the
  /// scanned counter bit-identical to the per-cycle lock-step engine.
  void note_scanned(std::uint64_t count) { scanned_ += count; }

  /// Account for `count` re-presentations of a CFI-relevant entry the commit
  /// stage is holding back (a back-pressure window the event engine skipped):
  /// each one is scanned and selected again, exactly as filter() would.
  void note_reselected(std::uint64_t count) {
    scanned_ += count;
    selected_ += count;
  }

  /// Checkpoint support (the filter is pure; only its counters persist).
  void save_state(sim::SnapshotWriter& writer) const {
    writer.u64(scanned_);
    writer.u64(selected_);
  }
  void load_state(sim::SnapshotReader& reader) {
    scanned_ = reader.u64();
    selected_ = reader.u64();
  }

 private:
  std::uint64_t scanned_ = 0;
  std::uint64_t selected_ = 0;
};

}  // namespace titan::cfi
