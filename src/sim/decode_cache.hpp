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
//
// An entry also carries what the host core derives from the encoding alone,
// computed once per miss: the control-flow kind (rv::classify) and the
// execute-latency class.  Both fit in the padding before the decoded form,
// so an entry stays 40 bytes.  The storage is allocated zero-filled (an
// all-zero entry is invalid), so building a cache writes none of its slots.
// A cache of the default geometry goes further: on destruction it flushes
// the slots it filled and hands its storage to a small process-wide free
// list, and the next cache of that geometry takes it from there.  A
// released arena has every slot invalid, the state calloc gives, so a SoC
// build costs what its predecessor's run touched instead of a 320 KB fill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rv/decode.hpp"
#include "rv/isa.hpp"
#include "sim/snapshot.hpp"

namespace titan::sim {

/// Execute-latency class of an operation; the host core maps each class to
/// its configured cycle count.
enum class LatencyClass : std::uint8_t { kAlu, kLoad, kStore, kMul, kDiv };
inline constexpr std::size_t kLatencyClasses = 5;

[[nodiscard]] constexpr LatencyClass latency_class(rv::Op op) {
  using rv::Op;
  switch (op) {
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu:
    case Op::kLhu: case Op::kLwu: case Op::kLd:
      return LatencyClass::kLoad;
    case Op::kSb: case Op::kSh: case Op::kSw: case Op::kSd:
      return LatencyClass::kStore;
    case Op::kMul: case Op::kMulh: case Op::kMulhsu: case Op::kMulhu:
    case Op::kMulw:
      return LatencyClass::kMul;
    case Op::kDiv: case Op::kDivu: case Op::kRem: case Op::kRemu:
    case Op::kDivw: case Op::kDivuw: case Op::kRemw: case Op::kRemuw:
      return LatencyClass::kDiv;
    default:
      return LatencyClass::kAlu;
  }
}

class DecodeCache {
 public:
  static constexpr std::size_t kDefaultEntries = 8192;

  /// One slot.  An implicit-lifetime aggregate whose all-zero bytes read as
  /// an empty slot (`valid` false), which lets the storage come from calloc.
  struct Entry {
    std::uint32_t key = 0;
    bool valid = false;
    rv::CfKind kind = rv::CfKind::kNone;
    LatencyClass latency = LatencyClass::kAlu;
    rv::Inst inst;

    /// Decode `window` and derive the fields that depend on it alone (the
    /// miss path, load_state and the core's uncached reference path).
    void fill(std::uint32_t window, rv::Xlen xlen) {
      inst = rv::decode(window, xlen);
      kind = rv::classify(inst);
      latency = latency_class(inst.op);
    }
  };

  /// Arenas of the default geometry the free list keeps at most; a cache
  /// destroyed while it is full frees its storage instead.
  static constexpr std::size_t kRecycledArenas = 8;

  explicit DecodeCache(rv::Xlen xlen, std::size_t entries = kDefaultEntries)
      : xlen_(xlen), size_(round_up_pow2(entries)), mask_(size_ - 1),
        entries_(acquire(size_)) {}
  ~DecodeCache() { release(); }
  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// Return the entry for the fetch window at `pc`, decoding on a miss.
  /// The reference stays valid until the entry is evicted, so callers must
  /// copy what they retain across further decodes.  Only the hit is inlined
  /// into the caller's loop; the miss is one out-of-line call.
  [[nodiscard, gnu::always_inline]] const Entry& decode(std::uint64_t pc,
                                                        std::uint32_t window) {
    const std::uint32_t key = (window & 3) == 3 ? window : (window & 0xFFFF);
    // PCs are at least 2-byte aligned; drop the dead bit before indexing.
    const std::size_t slot = (pc >> 1) & mask_;
    Entry& entry = entries_[slot];
    if (entry.valid && entry.key == key) [[likely]] {
      ++hits_;
      return entry;
    }
    return miss(slot, key);
  }

  /// Invalidate every entry (only the slots that were filled are written).
  void flush() {
    for (const std::size_t slot : filled_) entries_[slot].valid = false;
    filled_.clear();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Decodes skipped thanks to the cache (the bench counter).
  [[nodiscard]] std::uint64_t decodes_avoided() const { return hits_; }
  void reset_stats() { hits_ = misses_ = 0; }

  /// Checkpoint support.  Entries are stored as (slot, key) pairs only, in
  /// ascending slot order:
  /// `inst` is by invariant exactly rv::decode(key, xlen_), so load_state
  /// re-decodes instead of serializing decoded forms — smaller blobs, and a
  /// key/inst skew can never be smuggled in through a snapshot.  Geometry
  /// (xlen, entry count) is config-derived and not serialized.
  void save_state(SnapshotWriter& writer) const {
    writer.u64(hits_);
    writer.u64(misses_);
    std::vector<std::size_t> slots = filled_;
    std::sort(slots.begin(), slots.end());
    writer.u64(slots.size());
    for (const std::size_t slot : slots) {
      writer.u64(slot);
      writer.u32(entries_[slot].key);
    }
  }
  void load_state(SnapshotReader& reader) {
    hits_ = reader.u64();
    misses_ = reader.u64();
    flush();
    const std::uint64_t valid = reader.u64();
    for (std::uint64_t i = 0; i < valid; ++i) {
      const std::uint64_t slot = reader.u64();
      if (slot >= size_) {
        throw SnapshotError("decode cache: slot out of range");
      }
      const std::uint32_t key = reader.u32();
      Entry& entry = entries_[slot];
      if (!entry.valid) {
        filled_.push_back(static_cast<std::size_t>(slot));
      }
      entry.fill(key, xlen_);
      entry.key = key;
      entry.valid = true;
    }
  }

 private:
  [[gnu::noinline]] const Entry& miss(std::size_t slot, std::uint32_t key) {
    ++misses_;
    Entry& entry = entries_[slot];
    if (!entry.valid) {
      filled_.push_back(slot);
    }
    entry.fill(key, xlen_);
    entry.key = key;
    entry.valid = true;
    return entry;
  }

  /// Storage for `size` slots, all invalid: a recycled arena when `size`
  /// is the default and one is free, else a zero-filled block.
  [[nodiscard]] static Entry* acquire(std::size_t size);
  /// Flush a default-geometry cache and hand its storage to the free list;
  /// free it when the geometry differs or the list is full.
  void release();

  [[nodiscard]] static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  rv::Xlen xlen_;
  std::size_t size_;
  std::size_t mask_;
  Entry* entries_;
  /// Slots that became valid, each once: what flush() and save_state visit
  /// instead of every slot.
  std::vector<std::size_t> filled_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace titan::sim
