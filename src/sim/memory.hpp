// Sparse byte-addressable memory used for every RAM/ROM in the modelled SoC.
//
// Backed by 4 KiB pages allocated on first touch, so a 64-bit address space
// costs only what the workload actually touches.  All accesses are
// little-endian, matching RISC-V.
//
// Hot-path design (this is the floor under simulator throughput):
//  * every access resolves its page ONCE through a small direct-mapped page
//    cache (separate instruction/data lanes) in front of the hash map, then
//    memcpy's within the page — a read64 is one tag compare, not 8 hash
//    probes;
//  * accesses that straddle a page boundary take a cold out-of-line path;
//  * bulk read_block/write_block move whole page spans for image load/dump;
//  * an access-statistics block counts reads, writes, fetches, page-cache
//    hits/misses, straddles, and unmapped reads; optional strict mode turns
//    an unmapped read (which legally returns 0) into an exception so co-sim
//    fuzzing can detect wild reads.
//
// set_fast_path_enabled(false) routes every access byte-by-byte through the
// hash map — the seed implementation's behaviour — so benchmarks can report
// honest before/after numbers from one binary.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace titan::sim {

/// Access-path statistics (cheap monotonic counters, always on).
struct MemStats {
  std::uint64_t reads = 0;            ///< Data read calls (any width).
  std::uint64_t writes = 0;           ///< Write calls (any width).
  std::uint64_t fetches = 0;          ///< Instruction-window fetches.
  std::uint64_t page_cache_hits = 0;  ///< Fast-path tag matches.
  std::uint64_t page_cache_misses = 0;///< Hash-map fills of a cache way.
  std::uint64_t straddles = 0;        ///< Accesses crossing a page boundary.
  std::uint64_t unmapped_reads = 0;   ///< Reads of never-written pages.
  std::uint64_t bulk_bytes = 0;       ///< Bytes moved by block operations.
  std::uint64_t neg_cache_hits = 0;   ///< Unmapped probes answered by the
                                      ///< negative page cache (no hash walk).

  bool operator==(const MemStats&) const = default;
};

/// Stable reference to one mapped page, for callers (the ISS fetch stage)
/// that hoist the page probe out of their inner loop.  `data` is null when
/// the page is unmapped.  The reference is valid while `epoch` equals the
/// owning Memory's map_epoch(): the epoch advances whenever the page table
/// changes shape (new page mapped, clear(), move), never on plain stores —
/// stores mutate the referenced bytes in place, so a holder always reads
/// current contents.
struct PageRef {
  const std::uint8_t* data = nullptr;
  std::uint64_t epoch = 0;

  /// Little-endian 32-bit window at `offset` (caller keeps offset+4 in page).
  [[nodiscard]] std::uint32_t window32(std::size_t offset) const {
    if constexpr (std::endian::native == std::endian::little) {
      std::uint32_t value;
      std::memcpy(&value, data + offset, sizeof(value));
      return value;
    } else {
      const std::uint8_t* src = data + offset;
      return static_cast<std::uint32_t>(src[0]) |
             (static_cast<std::uint32_t>(src[1]) << 8) |
             (static_cast<std::uint32_t>(src[2]) << 16) |
             (static_cast<std::uint32_t>(src[3]) << 24);
    }
  }
};

class Memory {
 public:
  static constexpr std::size_t kPageBits = 12;
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;
  using Page = std::array<std::uint8_t, kPageSize>;
  static constexpr std::size_t kWays = 16;
  static constexpr std::size_t kNegWays = 16;
  static constexpr Addr kNoPage = ~Addr{0};

  /// Checkpoint image of one Memory (see sim/snapshot.hpp).  Pages are held
  /// by shared_ptr: capture() shares the live pages with the image instead
  /// of copying them, and a Memory restored from the image shares them too —
  /// copy-on-write in touch_page() clones a page the first time any owner
  /// writes it, so N runs forked from one checkpoint pay for one copy of
  /// every page they never write.  The way/negative-cache tags are part of
  /// the image so a restored memory's cache-stat lanes (page_cache_hits,
  /// neg_cache_hits, ...) continue bit-exactly versus the captured run.
  struct Image {
    /// (page number, page) pairs sorted by page number — deterministic
    /// serialization order, hence a deterministic snapshot fingerprint.
    std::vector<std::pair<Addr, std::shared_ptr<const Page>>> pages;
    MemStats stats{};
    std::array<std::array<Addr, kWays>, 2> way_tags{[] {
      std::array<std::array<Addr, kWays>, 2> init{};
      for (auto& lane : init) lane.fill(kNoPage);
      return init;
    }()};
    std::array<Addr, kNegWays> neg_tags{[] {
      std::array<Addr, kNegWays> init{};
      init.fill(kNoPage);
      return init;
    }()};
    bool fast_path = true;
    bool strict_unmapped = false;
  };

  Memory() = default;

  // Non-copyable (pages can be large); movable.  Moves invalidate both
  // objects' page caches: the source's ways would otherwise keep pointing
  // into pages the destination now owns.
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;
  Memory(Memory&& other) noexcept { *this = std::move(other); }
  Memory& operator=(Memory&& other) noexcept {
    if (this != &other) {
      pages_ = std::move(other.pages_);
      stats_ = other.stats_;
      fast_path_ = other.fast_path_;
      strict_unmapped_ = other.strict_unmapped_;
      invalidate_page_cache();
      ++map_epoch_;
      other.pages_.clear();
      other.invalidate_page_cache();
      ++other.map_epoch_;
      other.stats_ = MemStats{};
    }
    return *this;
  }

  [[nodiscard]] std::uint8_t read8(Addr addr) const { return read_le<std::uint8_t>(addr); }
  [[nodiscard]] std::uint16_t read16(Addr addr) const { return read_le<std::uint16_t>(addr); }
  [[nodiscard]] std::uint32_t read32(Addr addr) const { return read_le<std::uint32_t>(addr); }
  [[nodiscard]] std::uint64_t read64(Addr addr) const { return read_le<std::uint64_t>(addr); }

  void write8(Addr addr, std::uint8_t value) { write_le(addr, value); }
  void write16(Addr addr, std::uint16_t value) { write_le(addr, value); }
  void write32(Addr addr, std::uint32_t value) { write_le(addr, value); }
  void write64(Addr addr, std::uint64_t value) { write_le(addr, value); }

  /// Fetch a 32-bit instruction window at `addr` through the instruction
  /// lane of the page cache.  The window may overshoot the end of a mapped
  /// region by two bytes (a compressed instruction only consumes the low
  /// half); only the page containing `addr` itself counts as an unmapped
  /// read if absent.
  [[nodiscard]] std::uint32_t fetch32(Addr addr) const;

  /// Bulk copy out of / into memory, page-by-page.  Unmapped source pages
  /// read as zero and never count toward unmapped_reads (dumping a sparse
  /// image is legitimate); destination pages are allocated on demand.
  void read_block(Addr base, std::span<std::uint8_t> out) const;
  void write_block(Addr base, std::span<const std::uint8_t> bytes);

  /// Bulk-load a binary blob (e.g. an assembled program image).
  void load(Addr base, std::span<const std::uint8_t> bytes);
  void load_words(Addr base, std::span<const std::uint32_t> words);

  /// Copy out a range of bytes (unmapped pages read as zero).
  [[nodiscard]] std::vector<std::uint8_t> dump(Addr base, std::size_t len) const;

  /// Number of pages materialised so far.
  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }

  /// Map-shape generation counter: bumped when a page is mapped, on clear()
  /// and on move — i.e. whenever an outstanding PageRef could go stale.
  [[nodiscard]] std::uint64_t map_epoch() const { return map_epoch_; }

  /// Resolve the page containing `addr` for hoisted instruction fetches.
  /// Does not disturb the page-cache lanes or the access statistics: the
  /// caller is expected to hold the reference across many fetches (and to
  /// revalidate against map_epoch()), so per-access counters would lie.
  [[nodiscard]] PageRef page_ref(Addr addr) const {
    const Page* page = find_page(addr >> kPageBits);
    return PageRef{page == nullptr ? nullptr : page->data(), map_epoch_};
  }

  /// Drop all contents.
  void clear() {
    pages_.clear();
    invalidate_page_cache();
    ++map_epoch_;
  }

  /// Toggle the single-probe page-cache fast path.  Disabled, every access
  /// degenerates to one hash probe per byte — the seed implementation —
  /// which benchmarks use as the "before" reference.
  void set_fast_path_enabled(bool enabled) { fast_path_ = enabled; }
  [[nodiscard]] bool fast_path_enabled() const { return fast_path_; }

  /// Strict mode: scalar reads of unmapped pages throw std::out_of_range
  /// instead of silently returning 0 (block reads stay permissive).
  void set_strict_unmapped(bool strict) { strict_unmapped_ = strict; }
  [[nodiscard]] bool strict_unmapped() const { return strict_unmapped_; }

  [[nodiscard]] const MemStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MemStats{}; }
  [[nodiscard]] std::uint64_t unmapped_reads() const { return stats_.unmapped_reads; }

  /// Freeze the current contents into a copy-on-write image.  The live pages
  /// become shared with the image, so this memory's next write to any page
  /// clones it first; to keep the no-write-through-a-shared-page invariant,
  /// capture demotes every primed cache way to read-only (stat-neutral: a
  /// later write hit re-promotes without touching the hit/miss counters).
  [[nodiscard]] Image capture() const;

  /// Replace this memory's entire state with the image's: contents (shared,
  /// CoW), access statistics, fast-path/strict flags, and the page-cache and
  /// negative-cache tags, re-primed read-only against the restored pages
  /// without counting anything.  Bumps map_epoch() so every PageRef taken
  /// before the restore is stale and can never be dereferenced.
  void restore(const Image& image);

 private:
  /// Direct-mapped page-cache lanes: instruction fetches and data accesses
  /// get separate ways so a store-heavy loop cannot evict its own code page.
  enum Lane : unsigned { kDataLane = 0, kFetchLane = 1 };
  struct Way {
    Addr page_no = kNoPage;
    std::uint8_t* data = nullptr;
    /// True only when the page was exclusively owned when the way was primed
    /// for writing.  A write hit on a non-writable way re-resolves through
    /// touch_page(), which clones the page if a checkpoint (or a sibling
    /// fork) still shares it — the CoW guard.
    bool writable = false;
  };

  template <typename T>
  [[nodiscard]] T read_le(Addr addr) const {
    ++stats_.reads;
    const std::size_t offset = static_cast<std::size_t>(addr) & (kPageSize - 1);
    if (fast_path_ && offset + sizeof(T) <= kPageSize) [[likely]] {
      const std::uint8_t* page = lookup_read(addr >> kPageBits, kDataLane);
      if (page != nullptr) [[likely]] {
        return load_le<T>(page + offset);
      }
      note_unmapped(addr);
      return 0;
    }
    return read_cold<T>(addr);
  }

  template <typename T>
  void write_le(Addr addr, T value) {
    ++stats_.writes;
    const std::size_t offset = static_cast<std::size_t>(addr) & (kPageSize - 1);
    if (fast_path_ && offset + sizeof(T) <= kPageSize) [[likely]] {
      store_le(lookup_write(addr >> kPageBits) + offset, value);
      return;
    }
    write_cold(addr, value);
  }

  template <typename T>
  [[nodiscard]] static T load_le(const std::uint8_t* src) {
    if constexpr (std::endian::native == std::endian::little) {
      T value;
      std::memcpy(&value, src, sizeof(T));
      return value;
    } else {
      T value = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        value = static_cast<T>(value | (static_cast<T>(src[i]) << (8 * i)));
      }
      return value;
    }
  }

  template <typename T>
  static void store_le(std::uint8_t* dst, T value) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(dst, &value, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        dst[i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
    }
  }

  /// Resolve a page for reading through the given cache lane; null when the
  /// page was never written.
  [[nodiscard]] const std::uint8_t* lookup_read(Addr page_no, Lane lane) const;
  /// Resolve (allocating on demand) a page for writing through the data lane.
  [[nodiscard]] std::uint8_t* lookup_write(Addr page_no);

  template <typename T>
  [[nodiscard]] T read_cold(Addr addr) const;
  template <typename T>
  void write_cold(Addr addr, T value);

  [[nodiscard]] std::uint8_t read8_slow(Addr addr) const;
  void note_unmapped(Addr addr) const;
  void invalidate_page_cache() const {
    for (auto& lane : ways_) lane.fill(Way{});
    neg_ways_.fill(kNoPage);
  }

  [[nodiscard]] const Page* find_page(Addr page_no) const;
  Page& touch_page(Addr page_no);

  /// Pages are shared_ptr so checkpoint images can share them (CoW): a page
  /// with use_count() > 1 is referenced by at least one Snapshot or sibling
  /// fork and must be cloned before mutation (touch_page enforces this).
  std::unordered_map<Addr, std::shared_ptr<Page>> pages_;
  mutable std::array<std::array<Way, kWays>, 2> ways_{};
  /// TLB-style negative cache: page numbers recently probed and found
  /// unmapped.  MMIO-heavy workloads poll device regions that never become
  /// RAM, and without this every such read walks the hash map.  Flushed
  /// whenever any page is mapped (allocation is rare; correctness over
  /// cleverness).
  mutable std::array<Addr, kNegWays> neg_ways_{[] {
    std::array<Addr, kNegWays> init{};
    init.fill(kNoPage);
    return init;
  }()};
  mutable MemStats stats_;
  std::uint64_t map_epoch_ = 0;
  bool fast_path_ = true;
  bool strict_unmapped_ = false;
};

/// Hoisted fetch-page probe of the CVA6 core: sequential fetches
/// between taken branches stay on one 4 KiB page, so the page is resolved
/// once (lookup/refill) and revalidated with a page-number/epoch compare
/// per fetch instead of a full memory or bus access.  In-place stores are
/// always observed (PageRef reads live page bytes); map-shape changes are
/// caught by the epoch compare.
class FetchPageCache {
 public:
  /// Fast hit: the cached page is still valid (same page number, same map
  /// epoch) and the 4-byte window lies inside it.
  [[nodiscard]] bool lookup(Addr addr, std::uint32_t* window) const {
    const std::size_t offset =
        static_cast<std::size_t>(addr) & (Memory::kPageSize - 1);
    if (memory_ == nullptr || offset + 4 > Memory::kPageSize ||
        (addr >> Memory::kPageBits) != page_no_ ||
        page_.epoch != memory_->map_epoch()) {
      return false;
    }
    *window = page_.window32(offset);
    return true;
  }

  /// Install the page covering `addr` from `memory` and read the window.
  /// Fails (caller takes its slow path) on page straddles, unmapped pages,
  /// or when the memory's fast path is disabled for seed-mode benching.
  bool refill(const Memory& memory, Addr addr, std::uint32_t* window) {
    const std::size_t offset =
        static_cast<std::size_t>(addr) & (Memory::kPageSize - 1);
    if (!memory.fast_path_enabled() || offset + 4 > Memory::kPageSize) {
      return false;
    }
    const PageRef ref = memory.page_ref(addr);
    if (ref.data == nullptr) {
      return false;
    }
    memory_ = &memory;
    page_ = ref;
    page_no_ = addr >> Memory::kPageBits;
    *window = ref.window32(offset);
    return true;
  }

  /// Forget the cached page (used on checkpoint restore: the owning Memory
  /// may have been rebuilt).  Stat-neutral — the next fetch refills via
  /// page_ref(), which counts nothing.
  void invalidate() {
    memory_ = nullptr;
    page_ = PageRef{};
    page_no_ = ~Addr{0};
  }

 private:
  const Memory* memory_ = nullptr;
  PageRef page_{};
  Addr page_no_ = ~Addr{0};
};

}  // namespace titan::sim
