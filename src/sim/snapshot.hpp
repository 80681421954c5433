// Whole-SoC checkpoint snapshots: versioned, fingerprinted, fork-shareable.
//
// A Snapshot freezes every bit of deterministic simulator state at a cycle
// boundary so a run can be forked from it instead of re-simulating the
// prefix.  Sweeps fork many points from one post-warm-up checkpoint; the
// contract is that a forked run is bit-exact versus a from-scratch run on
// both co-simulation engines (every RunReport field, ordered traces, the
// popped log stream, the resilience block).
//
// Memory is captured by reference, not by copy: Memory::capture() shares the
// live pages with the snapshot via shared_ptr (copy-on-write — see
// sim/memory.hpp), so a 100-point sweep forked from one checkpoint holds one
// copy of every page no forked run has written.  Serializing to a blob
// (to_blob) materialises the pages; a deserialized snapshot owns fresh pages
// and shares them with every Memory subsequently restored from it.
//
// Blob format (all little-endian):
//   [magic u32] [version u32] [fingerprint u64] [payload...]
// where fingerprint is FNV-1a (sim::fingerprint64) over the payload bytes.
// from_blob rejects wrong magic, unknown version, truncation, and payload
// corruption (fingerprint mismatch) with SnapshotError — a stale or foreign
// checkpoint file fails loudly, never half-restores.
//
// The payload is a flat stream written by SnapshotWriter and read back by
// SnapshotReader.  Component sections are framed by u32 sentinel tags
// (expect_tag) so a save/load skew in any one component is caught at the
// section boundary instead of corrupting everything downstream.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/memory.hpp"
#include "sim/types.hpp"

namespace titan::sim {

/// Malformed, truncated, version-skewed, or corrupted snapshot data.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian byte stream for snapshot payloads.
class SnapshotWriter {
 public:
  void u8(std::uint8_t value) { out_.push_back(value); }
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void boolean(bool value) { u8(value ? 1 : 0); }
  /// Length-prefixed raw bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u64(data.size());
    raw(data);
  }
  /// Raw bytes, no length prefix (caller knows the width).
  void raw(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void str(std::string_view text) {
    u64(text.size());
    out_.insert(out_.end(), text.begin(), text.end());
  }
  /// Section sentinel; the matching read side is expect_tag().
  void tag(std::uint32_t value) { u32(value); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked reader over a snapshot payload; throws SnapshotError on
/// truncation or a sentinel-tag mismatch.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> data) : in_(data) {}

  std::uint8_t u8() {
    need(1, "u8");
    return in_[pos_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    }
    return value;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    }
    return value;
  }
  bool boolean() { return u8() != 0; }
  std::vector<std::uint8_t> bytes() {
    const std::uint64_t len = u64();
    need(len, "bytes");
    std::vector<std::uint8_t> out(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  in_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }
  /// Copy `len` raw bytes into `out` (no length prefix on the wire).
  void raw(std::span<std::uint8_t> out) {
    need(out.size(), "raw");
    std::copy(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
              in_.begin() + static_cast<std::ptrdiff_t>(pos_ + out.size()),
              out.begin());
    pos_ += out.size();
  }
  std::string str() {
    const std::uint64_t len = u64();
    need(len, "str");
    std::string out(reinterpret_cast<const char*>(in_.data()) + pos_,
                    static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }
  /// Read a section sentinel and require it to match.
  void expect_tag(std::uint32_t expected, const char* section) {
    const std::uint32_t got = u32();
    if (got != expected) {
      throw SnapshotError(std::string("snapshot: bad section tag for ") +
                          section);
    }
  }

  [[nodiscard]] bool done() const { return pos_ == in_.size(); }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }

 private:
  void need(std::uint64_t count, const char* what) const {
    if (count > in_.size() - pos_) {
      throw SnapshotError(std::string("snapshot: truncated payload reading ") +
                          what);
    }
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

/// One frozen SoC state.  `memories` is ordered by the capturing SocTop
/// (host DRAM, RoT SRAM); `state` is the flat component stream;
/// `log_words` is the packed prefix of commit logs the checkpointed run had
/// already popped to its log sink, replayed on warm start so a forked run's
/// observed log stream matches a cold run's.
struct Snapshot {
  static constexpr std::uint32_t kMagic = 0x50'4E'53'54;  // "TSNP"
  static constexpr std::uint32_t kVersion = 3;

  std::string scenario;   ///< Scenario::serialize() of the captured run.
  Cycle cycle = 0;        ///< Checkpoint cycle (loop-top boundary).
  std::vector<Memory::Image> memories;
  std::vector<std::uint8_t> state;
  std::vector<std::uint64_t> log_words;
  std::uint64_t fingerprint = 0;  ///< FNV-1a over the serialized payload.

  /// Recompute `fingerprint` from the current contents.  Capture does this
  /// once; restore paths verify against it.
  void seal();

  /// Serialize to the versioned, fingerprinted blob format.
  [[nodiscard]] std::vector<std::uint8_t> to_blob() const;

  /// Parse and fully validate a blob (magic, version, fingerprint, payload
  /// shape).  Throws SnapshotError on any mismatch.
  [[nodiscard]] static Snapshot from_blob(std::span<const std::uint8_t> blob);
};

/// Memory::Image payload helpers (pages are written page-number-sorted, so
/// the encoding — and hence the fingerprint — is deterministic).
void write_memory_image(SnapshotWriter& writer, const Memory::Image& image);
[[nodiscard]] Memory::Image read_memory_image(SnapshotReader& reader);

}  // namespace titan::sim
