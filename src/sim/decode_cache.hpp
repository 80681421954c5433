// Decoded-instruction cache of the CVA6 core model (the Ibex model runs its
// firmware from a pre-decoded ROM instead, see ibex::FirmwareRom).
//
// The ISS front-end used to run every fetched window through rv::decode —
// a large switch plus RVC expansion — on every dynamic instruction.  Decode
// is a pure function of the 32-bit fetch window (and XLEN), so a
// direct-mapped, PC-indexed cache whose entries are *validated against the
// raw encoding* skips it entirely in steady state.
//
// The raw-encoding tag makes invalidation exact and automatic: a store that
// rewrites an instruction, a Memory::load that replaces an image, or any
// other code mutation changes the fetched window, misses the tag compare,
// and re-decodes.  (Two PCs aliasing one slot with identical encodings may
// share an entry — harmless, since decode depends only on the encoding.)
// Compressed windows are normalised to their low 16 bits before tagging so
// an RVC instruction hits regardless of what follows it in memory.
#pragma once

#include <cstdint>
#include <vector>

#include "rv/decode.hpp"
#include "rv/isa.hpp"
#include "sim/snapshot.hpp"

namespace titan::sim {

class DecodeCache {
 public:
  static constexpr std::size_t kDefaultEntries = 8192;

  explicit DecodeCache(rv::Xlen xlen, std::size_t entries = kDefaultEntries)
      : xlen_(xlen), mask_(round_up_pow2(entries) - 1),
        entries_(round_up_pow2(entries)) {}

  /// Return the decoded form of the fetch window at `pc`, consulting the
  /// cache first.  The reference stays valid until the entry is evicted, so
  /// callers must copy it if they retain it across further decodes.
  [[nodiscard]] const rv::Inst& decode(std::uint64_t pc, std::uint32_t window) {
    const std::uint32_t key = (window & 3) == 3 ? window : (window & 0xFFFF);
    // PCs are at least 2-byte aligned; drop the dead bit before indexing.
    Entry& entry = entries_[(pc >> 1) & mask_];
    if (entry.valid && entry.key == key) {
      ++hits_;
      return entry.inst;
    }
    ++misses_;
    entry.inst = rv::decode(key, xlen_);
    entry.key = key;
    entry.valid = true;
    return entry.inst;
  }

  void flush() {
    for (Entry& entry : entries_) entry.valid = false;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Decodes skipped thanks to the cache (the bench counter).
  [[nodiscard]] std::uint64_t decodes_avoided() const { return hits_; }
  void reset_stats() { hits_ = misses_ = 0; }

  /// Checkpoint support.  Entries are stored as (slot, key) pairs only:
  /// `inst` is by invariant exactly rv::decode(key, xlen_), so load_state
  /// re-decodes instead of serializing decoded forms — smaller blobs, and a
  /// key/inst skew can never be smuggled in through a snapshot.  Geometry
  /// (xlen, entry count) is config-derived and not serialized.
  void save_state(SnapshotWriter& writer) const {
    writer.u64(hits_);
    writer.u64(misses_);
    std::uint64_t valid = 0;
    for (const Entry& entry : entries_) valid += entry.valid ? 1 : 0;
    writer.u64(valid);
    for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
      if (entries_[slot].valid) {
        writer.u64(slot);
        writer.u32(entries_[slot].key);
      }
    }
  }
  void load_state(SnapshotReader& reader) {
    hits_ = reader.u64();
    misses_ = reader.u64();
    flush();
    const std::uint64_t valid = reader.u64();
    for (std::uint64_t i = 0; i < valid; ++i) {
      const std::uint64_t slot = reader.u64();
      if (slot >= entries_.size()) {
        throw SnapshotError("decode cache: slot out of range");
      }
      Entry& entry = entries_[slot];
      entry.key = reader.u32();
      entry.inst = rv::decode(entry.key, xlen_);
      entry.valid = true;
    }
  }

 private:
  struct Entry {
    std::uint32_t key = 0;
    bool valid = false;
    rv::Inst inst;
  };

  [[nodiscard]] static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  rv::Xlen xlen_;
  std::size_t mask_;
  std::vector<Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace titan::sim
