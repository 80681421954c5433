#include "sim/decode_cache.hpp"

#include <array>
#include <cstdlib>
#include <mutex>
#include <new>

namespace titan::sim {
namespace {

/// Released default-geometry arenas, every slot invalid.
struct FreeList {
  std::mutex mutex;
  std::array<DecodeCache::Entry*, DecodeCache::kRecycledArenas> arenas{};
  std::size_t count = 0;
};

FreeList& free_list() {
  // Leaked on purpose, like fw::shared_rom's map: no exit-time destructor
  // runs while another thread may still build or destroy a cache.
  static FreeList& list = *new FreeList;
  return list;
}

}  // namespace

DecodeCache::Entry* DecodeCache::acquire(std::size_t size) {
  if (size == kDefaultEntries) {
    FreeList& list = free_list();
    const std::lock_guard<std::mutex> lock(list.mutex);
    if (list.count > 0) {
      return list.arenas[--list.count];
    }
  }
  auto* const entries = static_cast<Entry*>(std::calloc(size, sizeof(Entry)));
  if (!entries) {
    throw std::bad_alloc();
  }
  return entries;
}

void DecodeCache::release() {
  if (size_ == kDefaultEntries) {
    flush();
    FreeList& list = free_list();
    const std::lock_guard<std::mutex> lock(list.mutex);
    if (list.count == list.arenas.size()) {
      std::free(entries_);
    } else {
      list.arenas[list.count++] = entries_;
    }
    return;
  }
  std::free(entries_);
}

}  // namespace titan::sim
