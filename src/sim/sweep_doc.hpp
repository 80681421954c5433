// Canonical sweep report documents.
//
// Every sweep bench with `--json=PATH` writes one document: a header that
// names the bench and fingerprints its grid and configuration, then one row
// per grid point in index order.  Each row is a pure function of its grid
// index and the header holds nothing host-dependent, so the document is
// byte-identical at any thread count and under either co-simulation engine —
// the property CI byte-diffs.  The fingerprint is also the identity hash of
// scenarios, fault plans and checkpoints.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "sim/sweep.hpp"

namespace titan::sim {

/// FNV-1a 64-bit over `data`; the stable identity hash behind grid_hash,
/// config_fingerprint, and snapshot/checkpoint identity (no external deps,
/// cheap, and good enough to tell two grids or configurations apart).
[[nodiscard]] std::uint64_t fingerprint64(std::string_view data);

/// fingerprint64 rendered as 16 lowercase hex digits.
[[nodiscard]] std::string fingerprint_hex(std::string_view data);

/// The deterministic identity of one sweep report.  Everything here must be
/// a pure function of the grid and configuration — never wall-clock, thread
/// count, or host properties — so that documents from any run of the same
/// grid agree byte-for-byte.
struct SweepDocHeader {
  std::string bench;               ///< e.g. "table2", "fig1".
  std::uint64_t total_points = 0;  ///< Size of the full grid.
  std::string grid_hash;           ///< fingerprint_hex of the point list.
  std::string config_fingerprint;  ///< fingerprint_hex of the fixed config.
};

/// Emits one rows-array element (begin_object()...end_object()) for grid
/// index `index`.
using RowEmitter = std::function<void(JsonWriter&, std::size_t index)>;

/// Canonical document: header fields, then a rows array with one element per
/// grid index in order.
[[nodiscard]] std::string render_full_document(const SweepDocHeader& header,
                                               const RowEmitter& emit_row);

/// Write `document` plus the canonical trailing newline to `path`; false on
/// any stream error.  Every report file goes through here, so the on-disk
/// byte format the determinism diff compares has exactly one definition.
[[nodiscard]] bool write_document(const std::string& path,
                                  std::string_view document);

}  // namespace titan::sim
